package core

import (
	"time"

	"repro/internal/exec"
)

// Policy selects the execution engine for the base result (paper §7.3).
type Policy uint8

const (
	// PolicyAuto mirrors the paper's optimizer decision: the linear
	// elementwise family (add, sub, emu) runs no-copy over BATs, all
	// other operations are delegated to the dense kernel, paying its
	// data transformation (none for an ordered float operand of the
	// column-form products).
	PolicyAuto Policy = iota
	// PolicyBAT forces the no-copy column-at-a-time implementation
	// (RMA+BAT). Operations without a BAT algorithm (evc, evl, chf, dsv,
	// usv, vsv, rnk) fall back to the dense kernel.
	PolicyBAT
	// PolicyDense forces delegation to the dense kernel (RMA+MKL),
	// including its data transformation.
	PolicyDense
)

// String names the policy as in the paper's figures.
func (p Policy) String() string {
	switch p {
	case PolicyAuto:
		return "RMA+"
	case PolicyBAT:
		return "RMA+BAT"
	case PolicyDense:
		return "RMA+MKL"
	}
	return "Policy?"
}

// SortMode toggles the sorting optimizations of Section 8.1.
type SortMode uint8

const (
	// SortFull always sorts every argument by its order schema and
	// verifies that the order schema forms a key.
	SortFull SortMode = iota
	// SortOptimized skips sorting for operations whose base result is
	// invariant/equivariant under row permutation and uses relative
	// sorting for binary elementwise operations.
	SortOptimized
)

// Stats instruments one relational matrix operation, splitting the runtime
// the way the paper's Figures 13 and 14 do.
type Stats struct {
	// Context is the time spent handling contextual information:
	// splitting, computing sort indexes, gathering order and application
	// BATs, morphing, and assembling the result relation.
	Context time.Duration
	// Transform is the time the dense path spends making the ordered
	// application columns into the kernel's operand: one arena copy per
	// column for a kernel that works in place, or a gather or conversion
	// of a column that is not already an ordered dense float column.
	// Result columns are not copied back. Zero for the no-copy BAT path.
	Transform time.Duration
	// Kernel is the time spent in the matrix operation itself.
	Kernel time.Duration
	// Sorted records whether any argument was actually sorted.
	Sorted bool
	// UsedDense records whether the dense kernel computed the base result.
	UsedDense bool
	// Workers is the worker budget the invocation ran with: the
	// Parallelism option when set, the process default otherwise. It is
	// recorded from the invocation's own execution context, so two
	// concurrent invocations with different budgets each report their
	// own value.
	Workers int
	// ParallelSections counts the parallel fan-outs of the invocation's
	// context (sections that actually spawned goroutines), and
	// ParallelGoroutines the goroutines those sections spawned. Both
	// accumulate across invocations sharing one Stats, like the phase
	// timings.
	ParallelSections   int64
	ParallelGoroutines int64
	// SerialFallback records that at least one operator of an
	// invocation sharing this Stats ran its serial body because the
	// memory budget refused its parallel-only scratch (see
	// Options.MemoryBudget). The invocation ran once either way.
	SerialFallback bool
	// Arena is the tenant's counter snapshot at the end of the
	// invocation, after its arena closed: live bytes (what other
	// invocations of the tenant still hold), peak bytes and per-domain
	// pool hit/miss/free counts. Only populated for budgeted/tenant
	// invocations (zero otherwise). The counters are cumulative for the tenant — shared
	// with every other invocation charging the same tenant — so
	// consecutive snapshots overwrite rather than accumulate.
	Arena exec.TenantStats
}

// Total returns the instrumented wall time.
func (s *Stats) Total() time.Duration { return s.Context + s.Transform + s.Kernel }

// Options configures an RMA operation invocation. The zero value is
// PolicyAuto with full sorting, default-budget parallelism, and no
// instrumentation.
type Options struct {
	Policy   Policy
	SortMode SortMode
	// Parallelism bounds the number of workers used by the invocation's
	// kernels and copy loops on both the BAT and dense paths. Zero (the
	// default) selects the process default budget, GOMAXPROCS at
	// start-up; 1 forces serial execution.
	Parallelism int
	// Tenant names the accounting principal the invocation's arena
	// buffers are charged to. Empty with a zero MemoryBudget means
	// ungoverned execution on the shared arena; empty with a budget set
	// charges the "default" tenant.
	Tenant string
	// MemoryBudget, when positive, caps the tenant's live arena bytes.
	// The invocation draws every kernel buffer from a private accounted
	// arena charging the tenant; an allocation that would push the
	// tenant past the cap fails the invocation with an error matching
	// exec.ErrMemoryBudget. Parallel execution never needs more than
	// serial: an operator whose parallel-only scratch does not fit runs
	// its serial body instead (see Stats.SerialFallback). The budget
	// governs in-flight execution memory: the result relation returned
	// to the caller leaves the governed scope when the invocation ends.
	//
	// Tenant caps persist on the governor: zero leaves a previously set
	// cap in place (repeated invocations need not restate it), so going
	// back to MemoryBudget 0 with a Tenant still set does NOT lift an
	// earlier cap. A negative MemoryBudget explicitly removes the
	// tenant's cap — accounting continues unlimited.
	MemoryBudget int64
	// Governor resolves the tenant; nil uses exec.DefaultGovernor().
	// Admission control (queueing whole queries against a global cap) is
	// the governor's job and is applied by callers that own a query
	// boundary, like sql.DB — not per operation here.
	Governor *exec.Governor
	// Stats, when non-nil, receives the phase timings of the invocation.
	Stats *Stats
}

// GovernorOrDefault returns the governor the options resolve tenants
// (and, for callers that own a query boundary, admission) against:
// Governor, or exec.DefaultGovernor() when that or o is nil.
func (o *Options) GovernorOrDefault() *exec.Governor {
	if o == nil || o.Governor == nil {
		return exec.DefaultGovernor()
	}
	return o.Governor
}

func (o *Options) orDefault() *Options {
	if o == nil {
		return &Options{}
	}
	return o
}

// ctx builds the per-invocation execution context from the options: the
// arena is a private accounted arena charging the options' tenant when
// Tenant or MemoryBudget is set, the shared arena otherwise, and a fresh
// stats sink is attached when Stats is set. Nothing process-wide is
// touched — concurrent invocations with different budgets each carry
// their own context, which is what makes mixed-budget query streams
// race-free. Unary/Binary own the context's lifecycle: finishCtx must
// run when the invocation ends, because it is what closes an accounted
// arena and releases its charges — which is why this constructor is not
// exported.
func (o *Options) ctx() *exec.Ctx {
	var sink *exec.Stats
	if o.Stats != nil {
		sink = &exec.Stats{}
	}
	c := exec.NewCtx(o.Parallelism, o.GovernorOrDefault().ArenaFor(o.Tenant, o.MemoryBudget), sink)
	if o.Stats != nil {
		o.Stats.Workers = sink.Workers
	}
	return c
}

// finishCtx folds the context's execution counters back into Stats at the
// end of one invocation and, for governed invocations, closes the
// per-invocation arena so its outstanding charges (the result columns,
// typically) leave the governed scope, then snapshots the tenant's arena
// counters.
func (o *Options) finishCtx(c *exec.Ctx) {
	if tn := c.Arena().Tenant(); tn != nil {
		c.Arena().Close()
		if o.Stats != nil {
			o.Stats.Arena = tn.Stats()
		}
	}
	if o.Stats == nil {
		return
	}
	if s := c.Stats(); s != nil {
		o.Stats.ParallelSections += s.Sections.Load()
		o.Stats.ParallelGoroutines += s.Goroutines.Load()
		if s.SerialFallbacks.Load() > 0 {
			o.Stats.SerialFallback = true
		}
	}
}

type phaseClock struct {
	stats *Stats
	start time.Time
}

func (c *phaseClock) begin() {
	if c.stats != nil {
		//lint:ignore rmalint/detorder wall-clock phase timing feeds Stats observability only, never result bits
		c.start = time.Now()
	}
}

func (c *phaseClock) endContext() {
	if c.stats != nil {
		c.stats.Context += time.Since(c.start)
	}
}

func (c *phaseClock) endTransform() {
	if c.stats != nil {
		c.stats.Transform += time.Since(c.start)
	}
}

func (c *phaseClock) endKernel() {
	if c.stats != nil {
		c.stats.Kernel += time.Since(c.start)
	}
}
