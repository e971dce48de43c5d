package exec

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
)

// This file implements the memory governance layer above the arena: a
// Governor hands out per-tenant accounted arenas, enforces per-tenant
// byte budgets (through Tenant.charge, called by accounted allocations),
// admission-controls concurrent queries against a global reservation
// cap, and exports the per-tenant counters as a Metrics snapshot.

// DomainStats is the per-element-domain counter snapshot of a tenant:
// how many buffers the tenant's arenas allocated and released, and how
// many allocations were served from the pools (hits) versus the heap
// (misses).
type DomainStats struct {
	Allocs     int64
	Frees      int64
	PoolHits   int64
	PoolMisses int64
}

func (d DomainStats) plus(o DomainStats) DomainStats {
	return DomainStats{
		Allocs:     d.Allocs + o.Allocs,
		Frees:      d.Frees + o.Frees,
		PoolHits:   d.PoolHits + o.PoolHits,
		PoolMisses: d.PoolMisses + o.PoolMisses,
	}
}

// domainCounters is the live atomic form of DomainStats.
type domainCounters struct {
	allocs, frees, hits, misses atomic.Int64
}

func (c *domainCounters) snapshot() DomainStats {
	return DomainStats{
		Allocs:     c.allocs.Load(),
		Frees:      c.frees.Load(),
		PoolHits:   c.hits.Load(),
		PoolMisses: c.misses.Load(),
	}
}

// TenantStats is one tenant's Metrics row: the budget, the live and
// peak byte watermarks, and the pool counters per element domain.
type TenantStats struct {
	Tenant      string
	BudgetBytes int64 // 0 means unlimited
	LiveBytes   int64
	PeakBytes   int64
	Floats      DomainStats
	Ints        DomainStats
	Int64s      DomainStats
	Strings     DomainStats
}

// Total sums the counters over all four element domains.
func (s TenantStats) Total() DomainStats {
	return s.Floats.plus(s.Ints).plus(s.Int64s).plus(s.Strings)
}

// HitRate returns the fraction of allocations served from the pools
// across all domains (0 when nothing was allocated).
func (s TenantStats) HitRate() float64 {
	t := s.Total()
	if n := t.PoolHits + t.PoolMisses; n > 0 {
		return float64(t.PoolHits) / float64(n)
	}
	return 0
}

// Tenant is one accounting principal of a Governor: a byte budget plus
// the live/peak watermarks and pool counters aggregated over every
// arena the tenant has handed out. All fields are updated atomically,
// so arenas of concurrent queries belonging to the same tenant share
// one coherent byte count.
type Tenant struct {
	name   string
	budget atomic.Int64 // 0 means unlimited
	live   atomic.Int64 // bytes currently charged to outstanding buffers
	peak   atomic.Int64 // high-water mark of live

	floats, ints, int64s, strings domainCounters

	// pools is the tenant's warm pool set, shared by every arena the
	// tenant hands out: buffers freed by one statement are reused by the
	// next instead of each query starting from cold pools.
	pools poolSet
}

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.name }

// Budget returns the tenant's byte cap (0 = unlimited).
func (t *Tenant) Budget() int64 { return t.budget.Load() }

// SetBudget replaces the tenant's byte cap; 0 removes it. Already-live
// bytes are never reclaimed — a lowered budget only affects future
// allocations.
func (t *Tenant) SetBudget(b int64) {
	if b < 0 {
		b = 0
	}
	t.budget.Store(b)
}

// LiveBytes returns the bytes currently charged to the tenant.
func (t *Tenant) LiveBytes() int64 { return t.live.Load() }

// PeakBytes returns the tenant's live high-water mark.
func (t *Tenant) PeakBytes() int64 { return t.peak.Load() }

// NewArena returns a fresh accounted arena charging this tenant. Every
// query (or statement) should draw its own arena and Close it when the
// query finishes: Close releases the query's outstanding charges, so a
// failed or abandoned query cannot strand bytes against the budget.
// The arena draws from the tenant's shared warm pools — only the
// ledger (origin verification) is per-arena.
func (t *Tenant) NewArena() *Arena {
	return &Arena{pools: &t.pools, acct: &acct{tenant: t, ledger: map[any]int64{}}}
}

// Stats snapshots the tenant's counters.
func (t *Tenant) Stats() TenantStats {
	return TenantStats{
		Tenant:      t.name,
		BudgetBytes: t.budget.Load(),
		LiveBytes:   t.live.Load(),
		PeakBytes:   t.peak.Load(),
		Floats:      t.floats.snapshot(),
		Ints:        t.ints.snapshot(),
		Int64s:      t.int64s.snapshot(),
		Strings:     t.strings.snapshot(),
	}
}

// charge admits bytes against the budget, returning the typed error
// when the cap would be exceeded. The compare-and-swap loop makes the
// check-and-add atomic under concurrent queries of the same tenant.
func (t *Tenant) charge(bytes int64) *MemoryBudgetError {
	for {
		live := t.live.Load()
		if b := t.budget.Load(); b > 0 && live+bytes > b {
			return &MemoryBudgetError{Tenant: t.name, Requested: bytes, Live: live, Budget: b}
		}
		if t.live.CompareAndSwap(live, live+bytes) {
			maxInt64(&t.peak, live+bytes)
			return nil
		}
	}
}

// uncharge releases previously charged bytes.
func (t *Tenant) uncharge(bytes int64) {
	if bytes != 0 {
		t.live.Add(-bytes)
	}
}

// maxInt64 raises m to at least v.
func maxInt64(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Governor owns a set of tenants and admission-controls concurrent
// queries against a global byte cap: each query declares its budget on
// Admit and blocks until the sum of admitted budgets fits under the
// cap (and, when MaxQueries is set, until a concurrency slot frees up).
// Per-tenant budgets are enforced separately, at allocation time, by
// the accounted arenas the tenants hand out.
type Governor struct {
	globalCap  int64 // admission cap on the sum of declared budgets; 0 = unlimited
	maxQueries int   // admission cap on concurrently running queries; 0 = unlimited

	mu       sync.Mutex
	cond     *sync.Cond
	reserved int64 // sum of admitted budgets
	running  int
	queued   int
	admitted int64 // queries admitted over the governor's lifetime
	tenants  map[string]*Tenant

	// FIFO tickets: every Admit takes the next ticket and only the query
	// holding serveTicket may be admitted, so a large-budget waiter
	// cannot be starved by a stream of small queries slipping past it —
	// the standard head-of-line tradeoff: arrivals behind a blocked
	// query wait their turn. A waiter that gives up leaves its ticket in
	// abandoned, and serveTicket steps over it.
	nextTicket  int64
	serveTicket int64
	abandoned   map[int64]bool
}

// NewGovernor returns a governor with the given admission limits:
// globalCap bounds the sum of declared budgets of concurrently admitted
// queries (0 = unlimited), maxQueries bounds their count (0 =
// unlimited).
func NewGovernor(globalCap int64, maxQueries int) *Governor {
	g := &Governor{
		globalCap:  globalCap,
		maxQueries: maxQueries,
		tenants:    make(map[string]*Tenant),
		abandoned:  make(map[int64]bool),
	}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Tenant returns the named tenant, creating it on first use. A positive
// budget sets (or replaces) the tenant's byte cap; zero leaves the
// existing cap untouched, so callers that only read an established
// tenant pass 0.
func (g *Governor) Tenant(name string, budget int64) *Tenant {
	g.mu.Lock()
	defer g.mu.Unlock()
	t, ok := g.tenants[name]
	if !ok {
		t = &Tenant{name: name}
		g.tenants[name] = t
	}
	if budget > 0 {
		t.budget.Store(budget)
	}
	return t
}

// DefaultTenant is the accounting principal governed invocations charge
// when no tenant name is configured.
const DefaultTenant = "default"

// ArenaFor resolves the accounted arena of one governed invocation: nil
// when neither a tenant nor a budget is configured (ungoverned execution
// on the shared arena), otherwise a fresh arena for the named tenant
// (DefaultTenant when the name is empty). A positive budget installs the
// tenant's cap; zero leaves any previously set cap in place (so
// repeated invocations need not restate it); a negative budget
// explicitly removes the cap — the accounting continues unlimited. This
// is the single place the governed-ness predicate and the default
// tenant name live; core and sql both resolve their per-invocation
// arenas through it.
func (g *Governor) ArenaFor(tenant string, budget int64) *Arena {
	if tenant == "" && budget == 0 {
		return nil
	}
	if tenant == "" {
		tenant = DefaultTenant
	}
	t := g.Tenant(tenant, budget)
	if budget < 0 {
		t.SetBudget(0)
	}
	return t.NewArena()
}

// Admit blocks until the query's declared budget fits under the
// governor's admission limits, then reserves it; the returned release
// function (idempotent) hands the reservation back. Admission is FIFO:
// queries are served in arrival order, so a large-budget query waits
// for room but is never starved by later small ones. A query whose
// declared budget alone exceeds the global cap is admitted when it
// would run alone rather than queueing forever; its tenant budget still
// governs its allocations.
//
// A query that must wait gives up when ctx is done: Admit returns
// ctx.Err() and its ticket is skipped, so the queries behind it keep
// their turn. A query admitted at once never consults ctx.
func (g *Governor) Admit(ctx context.Context, budget int64) (release func(), err error) {
	if budget < 0 {
		budget = 0
	}
	g.mu.Lock()
	ticket := g.nextTicket
	g.nextTicket++
	g.queued++
	if ticket != g.serveTicket || !g.fitsLocked(budget) {
		stop := context.AfterFunc(ctx, func() {
			g.mu.Lock()
			g.cond.Broadcast()
			g.mu.Unlock()
		})
		defer stop()
		for ticket != g.serveTicket || !g.fitsLocked(budget) {
			if err := ctx.Err(); err != nil {
				g.queued--
				g.abandoned[ticket] = true
				g.advanceLocked()
				g.mu.Unlock()
				g.cond.Broadcast()
				return nil, err
			}
			g.cond.Wait()
		}
	}
	g.serveTicket++
	g.advanceLocked()
	g.queued--
	g.running++
	g.reserved += budget
	g.admitted++
	g.mu.Unlock()
	// Wake the next ticket holder: it may fit alongside this query.
	g.cond.Broadcast()
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			g.running--
			g.reserved -= budget
			g.mu.Unlock()
			g.cond.Broadcast()
		})
	}, nil
}

// advanceLocked steps serveTicket over the tickets of waiters that gave
// up, so the next live waiter holds it.
func (g *Governor) advanceLocked() {
	for g.abandoned[g.serveTicket] {
		delete(g.abandoned, g.serveTicket)
		g.serveTicket++
	}
}

func (g *Governor) fitsLocked(budget int64) bool {
	if g.maxQueries > 0 && g.running >= g.maxQueries {
		return false
	}
	if g.globalCap > 0 && g.reserved+budget > g.globalCap {
		return g.running == 0
	}
	return true
}

// GovernorMetrics is the exported snapshot of a governor: the admission state
// plus one TenantStats row per tenant, sorted by name.
type GovernorMetrics struct {
	GlobalCapBytes int64
	ReservedBytes  int64
	Running        int
	Queued         int
	Admitted       int64
	Tenants        []TenantStats
}

// Metrics snapshots the governor's admission state and every tenant's
// counters.
func (g *Governor) Metrics() GovernorMetrics {
	g.mu.Lock()
	m := GovernorMetrics{
		GlobalCapBytes: g.globalCap,
		ReservedBytes:  g.reserved,
		Running:        g.running,
		Queued:         g.queued,
		Admitted:       g.admitted,
	}
	tenants := make([]*Tenant, 0, len(g.tenants))
	for _, t := range g.tenants {
		tenants = append(tenants, t)
	}
	g.mu.Unlock()
	sort.Slice(tenants, func(a, b int) bool { return tenants[a].name < tenants[b].name })
	for _, t := range tenants {
		m.Tenants = append(m.Tenants, t.Stats())
	}
	return m
}

// defaultGov is the process-default governor behind DefaultGovernor:
// unlimited admission, so it only provides tenancy and per-tenant
// budgets; a deployment that needs admission caps builds its own with
// NewGovernor.
var defaultGov = NewGovernor(0, 0)

// DefaultGovernor returns the process-default governor. core.Options
// and sql.DB resolve tenants against it unless an explicit governor is
// configured.
func DefaultGovernor() *Governor { return defaultGov }
