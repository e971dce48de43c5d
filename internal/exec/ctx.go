// Package exec provides the per-invocation execution context of the RMA
// stack: a worker budget, a size-classed buffer arena, and a stats sink,
// bundled in a Ctx that every layer — the BAT kernels, the dense linear
// algebra, the column-at-a-time matrix operations, the relational
// operators, and the RMA core — takes explicitly.
//
// A Ctx scopes the worker budget to one invocation: concurrent queries
// each carry their own Ctx and never observe each other's settings, so
// two queries with different budgets cannot race on a global knob. No
// process-wide setting exists: a context built without a budget runs with
// GOMAXPROCS as it was when the process started.
//
// A nil *Ctx is valid everywhere and behaves like Default(): the default
// worker budget, the shared arena, and no stats. Kernels therefore never
// need to guard against a missing context.
package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// SerialCutoff is the number of elements at or below which the vectorized
// kernels stay on a single goroutine: at 16Ki float64s (128 KiB, two L2
// tiles) the per-goroutine scheduling cost exceeds the work saved. The
// first parallel size is SerialCutoff+1. It is also the fixed chunk edge
// of the deterministic reductions, so tests probe the serial→parallel
// boundary at SerialCutoff-1, SerialCutoff, SerialCutoff+1.
const SerialCutoff = 1 << 14

// defaultWorkers is the budget of contexts built without one (and of nil
// contexts): GOMAXPROCS when the process starts.
var defaultWorkers = runtime.GOMAXPROCS(0)

// Stats is the per-invocation sink of execution counters. Workers is
// recorded at context construction; the atomic counters are bumped by the
// parallel drivers as sections fan out. One Stats must not be shared
// between invocations that should be accounted separately.
type Stats struct {
	// Workers is the budget the owning context resolved at construction.
	Workers int
	// Sections counts parallel sections that actually fanned out to more
	// than one goroutine (serial-cutoff sections are not counted).
	Sections atomic.Int64
	// Goroutines counts goroutines spawned by those sections.
	Goroutines atomic.Int64
	// SerialFallbacks counts operators that ran their serial body
	// because the arena refused their parallel-only scratch.
	SerialFallbacks atomic.Int64
}

// section records one fan-out of g goroutines; nil-safe.
func (s *Stats) section(g int) {
	if s != nil {
		s.Sections.Add(1)
		s.Goroutines.Add(int64(g))
	}
}

// Ctx is one invocation's execution context. The zero value (and nil) is
// the default context: default worker budget, shared arena, no stats.
type Ctx struct {
	workers int    // 0 means the default budget
	arena   *Arena // nil means the shared arena
	stats   *Stats
	spill   *Spill // nil disables out-of-core execution
}

// defaultCtx backs Default.
var defaultCtx Ctx

// Default returns the process default context: the default worker
// budget (GOMAXPROCS at start-up), the shared arena, no stats sink.
func Default() *Ctx { return &defaultCtx }

// New returns a context with a fixed worker budget. workers <= 0 selects
// the default budget (GOMAXPROCS at start-up); workers == 1 forces serial
// execution.
func New(workers int) *Ctx {
	if workers <= 0 {
		workers = defaultWorkers
	}
	return &Ctx{workers: workers}
}

// NewCtx returns a fully specified context. arena == nil selects the
// shared arena; stats == nil disables instrumentation. When stats is
// non-nil its Workers field is set to the context's budget.
func NewCtx(workers int, arena *Arena, stats *Stats) *Ctx {
	c := New(workers)
	c.arena = arena
	c.stats = stats
	if stats != nil {
		stats.Workers = c.workers
	}
	return c
}

// Workers returns the context's worker budget; nil-safe.
func (c *Ctx) Workers() int {
	if c == nil || c.workers <= 0 {
		return defaultWorkers
	}
	return c.workers
}

// Arena returns the context's buffer arena; nil-safe (the shared arena).
func (c *Ctx) Arena() *Arena {
	if c == nil || c.arena == nil {
		return Shared()
	}
	return c.arena
}

// Stats returns the context's stats sink, or nil; nil-safe.
func (c *Ctx) Stats() *Stats {
	if c == nil {
		return nil
	}
	return c.stats
}

// NoteSerialFallback records that an operator ran its serial body
// because the arena refused its parallel-only scratch; nil-safe.
func (c *Ctx) NoteSerialFallback() {
	if s := c.Stats(); s != nil {
		s.SerialFallbacks.Add(1)
	}
}

// ParallelFor splits [0, n) into at most Workers() contiguous ranges and
// runs body on every range, on the calling goroutine when n does not
// exceed minWork (so parallelism engages at n = minWork+1; ranges can be
// as small as ⌈minWork/workers⌉ right above the boundary). This is the
// shared parallel driver of the execution stack: the BAT kernels, the
// column loops of package batlin, the dense kernels of package linalg
// and the copy-in loops of package core all decompose their work
// through it.
func (c *Ctx) ParallelFor(n, minWork int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := c.Workers()
	if minWork < 1 {
		minWork = 1
	}
	if ceil := (n + minWork - 1) / minWork; workers > ceil {
		workers = ceil
	}
	if workers <= 1 {
		body(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	spawned := (n + chunk - 1) / chunk
	c.Stats().section(spawned)
	// Worker panics are forwarded to the calling goroutine after the
	// section drains: a budget overrun (or any other panic) inside a
	// parallel body must unwind the caller — where CatchBudget waits —
	// not kill the process from an unrecoverable worker goroutine.
	var wg sync.WaitGroup
	var panicMu sync.Mutex
	var panicked bool
	var panicVal any
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if !panicked {
						panicked, panicVal = true, r
					}
					panicMu.Unlock()
				}
			}()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	if panicked {
		panic(panicVal)
	}
}

// ParallelRuns returns the contiguous-range decomposition the
// range-concatenating kernels share: at most Workers() runs of at least
// SerialCutoff elements each, as (count, size) with count = ceil(n/size).
// Kernels that concatenate per-run outputs in run order produce the same
// result for any decomposition, so the run count may depend on the worker
// budget without breaking determinism. An empty range (n <= 0) yields
// zero runs with a positive size, so loops over the runs do nothing and
// ceil-divisions by size stay well-defined.
func (c *Ctx) ParallelRuns(n int) (runs, size int) {
	if n <= 0 {
		return 0, 1
	}
	runs = min(c.Workers(), (n+SerialCutoff-1)/SerialCutoff)
	size = (n + runs - 1) / runs
	return (n + size - 1) / size, size
}

// Serial reports whether ParallelFor would run a range of n elements with
// minWork SerialCutoff on the calling goroutine. Kernels branch on it
// before building their ParallelFor closure: a closure capturing the
// operand slices is a heap allocation, which on the serial path would
// cost more than it saves.
func (c *Ctx) Serial(n int) bool {
	return n <= SerialCutoff || c.Workers() <= 1
}

// Reduce sums per-chunk partial results over fixed-size chunks of
// SerialCutoff elements. Chunk boundaries depend only on n — never on the
// worker budget — and partials are combined in ascending chunk order, so
// the result is bitwise-identical at any parallelism (the property the
// -race tests across the stack assert).
func (c *Ctx) Reduce(n int, partial func(lo, hi int) float64) float64 {
	if n <= 0 {
		return 0
	}
	chunks := (n + SerialCutoff - 1) / SerialCutoff
	if chunks == 1 {
		return partial(0, n)
	}
	// The partials are the parallel path's only buffer, so the serial
	// loop also takes over when the arena refuses them.
	var parts []float64
	if c.Workers() > 1 {
		if parts = c.Arena().TryFloats(chunks); parts == nil {
			c.NoteSerialFallback()
		}
	}
	if parts == nil {
		var s float64
		for ch := 0; ch < chunks; ch++ {
			s += partial(ch*SerialCutoff, min((ch+1)*SerialCutoff, n))
		}
		return s
	}
	c.ParallelFor(chunks, 1, func(clo, chi int) {
		for ch := clo; ch < chi; ch++ {
			parts[ch] = partial(ch*SerialCutoff, min((ch+1)*SerialCutoff, n))
		}
	})
	var s float64
	for _, p := range parts {
		s += p
	}
	c.Arena().FreeFloats(parts)
	return s
}
