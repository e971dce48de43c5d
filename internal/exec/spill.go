package exec

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// Spill is the per-statement spill manager: it owns a scratch
// directory for on-disk staging (created lazily, removed by Cleanup)
// and the policy deciding when an operator should degrade to disk.
// Grouped aggregation is the one spilling operator: its group table
// asks Ctx.ShouldSpill with the bytes it holds in memory and
// takes the out-of-core path when it answers true, staging store
// segments under the scratch directory. Sorts and the dense matrix
// kernels always run in memory. Spilling never
// changes results: every spill path reproduces the in-memory
// operator's canonical output order bit for bit, so the decision only
// trades memory for disk traffic.
type Spill struct {
	base      string // parent directory for the scratch dir
	threshold int64  // explicit byte threshold; 0 derives from the tenant budget

	mu  sync.Mutex
	dir string // lazily created scratch dir
	seq atomic.Int64

	// Counters for the statement's spill activity, bumped by
	// Ctx.NoteSpill.
	bytes  atomic.Int64
	parts  atomic.Int64
	events atomic.Int64
}

// SpillStats is a snapshot of one statement's spill activity.
type SpillStats struct {
	SpilledBytes int64 `json:"spilled_bytes"`
	Partitions   int64 `json:"partitions"`
	Events       int64 `json:"events"`
}

// NewSpill returns a spill manager staging under base (empty means the
// OS temp dir). threshold is the in-memory footprint in bytes above
// which consumers spill; 0 derives half the tenant's budget at
// decision time (and disables spilling for unbudgeted tenants).
func NewSpill(base string, threshold int64) *Spill {
	return &Spill{base: base, threshold: threshold}
}

// Dir returns the statement's scratch directory, creating it on first
// use.
func (s *Spill) Dir() (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dir != "" {
		return s.dir, nil
	}
	base := s.base
	if base == "" {
		base = os.TempDir()
	}
	dir, err := os.MkdirTemp(base, "rmaspill-*")
	if err != nil {
		return "", fmt.Errorf("exec: spill dir: %w", err)
	}
	s.dir = dir
	return dir, nil
}

// Path returns a fresh file path inside the scratch directory, unique
// within this manager.
func (s *Spill) Path(label string) (string, error) {
	dir, err := s.Dir()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s/%s-%d.seg", dir, label, s.seq.Add(1)), nil
}

// Cleanup removes the scratch directory and everything staged in it.
// Idempotent; safe on a manager that never spilled.
func (s *Spill) Cleanup() {
	if s == nil {
		return
	}
	s.mu.Lock()
	dir := s.dir
	s.dir = ""
	s.mu.Unlock()
	if dir != "" {
		os.RemoveAll(dir)
	}
}

// Stats snapshots the manager's counters. Nil-safe.
func (s *Spill) Stats() SpillStats {
	if s == nil {
		return SpillStats{}
	}
	return SpillStats{
		SpilledBytes: s.bytes.Load(),
		Partitions:   s.parts.Load(),
		Events:       s.events.Load(),
	}
}

// WithSpill returns a context identical to c but carrying the spill
// manager (nil detaches). The arena, workers, and stats are shared
// with c.
func (c *Ctx) WithSpill(sp *Spill) *Ctx {
	base := c
	if base == nil {
		base = Default()
	}
	nc := *base
	nc.spill = sp
	return &nc
}

// Spill returns the context's spill manager, or nil when out-of-core
// execution is disabled. Nil-safe.
func (c *Ctx) Spill() *Spill {
	if c == nil {
		return nil
	}
	return c.spill
}

// ShouldSpill reports whether an operator holding held bytes in memory
// should take its out-of-core path. False without a spill manager.
// With one, held is compared against the explicit threshold or, when
// none is set, half the tenant's byte budget (unbudgeted tenants never
// auto-spill). The answer never affects results, only the memory/disk
// trade.
func (c *Ctx) ShouldSpill(held int64) bool {
	sp := c.Spill()
	if sp == nil {
		return false
	}
	th := sp.threshold
	if th <= 0 {
		t := c.Arena().Tenant()
		if t == nil || t.Budget() <= 0 {
			return false
		}
		th = t.Budget() / 2
	}
	return held > th
}

// NoteSpill records bytes written to disk and partitions created by
// one spill event on the context's spill manager. Nil-safe.
func (c *Ctx) NoteSpill(bytes, partitions int64) {
	if sp := c.Spill(); sp != nil {
		sp.bytes.Add(bytes)
		sp.parts.Add(partitions)
		sp.events.Add(1)
	}
}
