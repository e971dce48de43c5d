package exec

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Arena recycles the buffers the vectorized kernels produce: float64
// tails, int permutations, and — since the per-query context refactor —
// int64 and string tails. Kernels allocate every output through the
// arena of their Ctx; callers that know a buffer is dead hand it back
// with the matching Free method (or bat.Release at the BAT level) and the
// next allocation reuses the memory instead of growing the heap.
//
// Buffers are pooled in power-of-two size classes backed by sync.Pool, so
// anything never freed is simply garbage collected and a Get after a GC
// falls back to make; an arena can only reduce allocations, never retain
// memory beyond what the GC allows. Each Arena instance owns its own
// pools: the shared arena serves default contexts, while a query that
// wants buffer isolation (bounded interference) carries a private
// NewArena in its Ctx.
//
// Arenas come in two accounting flavors. Plain arenas (Shared, NewArena)
// keep zero bookkeeping: buffers may migrate between them freely — Free
// only checks the capacity class, never the origin. Accounted arenas
// (Tenant.NewArena) additionally charge every allocation's full capacity
// in bytes against their tenant's live count, enforce the tenant's
// budget (an overrun unwinds as a typed panic that CatchBudget converts
// back into ErrMemoryBudget at the nearest error boundary), and verify
// buffer origin through a per-arena ledger: Free on an accounted arena
// only pools buffers that arena itself handed out. A buffer freed into
// the wrong arena is resolved through a process-wide owner registry —
// the true owner's tenant is uncharged at that moment, not at Close —
// but the foreign buffer still never enters an accounted arena's pools,
// so migration cannot smuggle memory into pools the owner never fed.
// Close releases an accounted arena's remaining charges at end of
// query.
//
// Tenant arenas share their tenant's pool set (warm non-nil) instead of
// carrying private pools: buffers freed during one statement warm the
// pools for the tenant's next statement, so budgeted tenants stop paying
// the cold-pool cost on every query. The ledger stays per-arena, so the
// shared pools change nothing about origin verification or budgets.
type Arena struct {
	local poolSet
	warm  *poolSet // tenant-shared pools; nil for standalone arenas
	acct  *acct    // nil for plain (unaccounted) arenas
}

// poolSet holds one size-classed sync.Pool array per element domain.
// Standalone arenas embed one; tenants own one shared by all of their
// arenas.
type poolSet struct {
	floats  [poolClasses]sync.Pool // class c holds *[]float64 of cap 1<<(minPoolShift+c)
	ints    [poolClasses]sync.Pool // class c holds *[]int
	int64s  [poolClasses]sync.Pool // class c holds *[]int64
	strings [poolClasses]sync.Pool // class c holds *[]string
}

// ps returns the pool set this arena draws from: the tenant's shared
// set when present, otherwise the arena's own.
func (a *Arena) ps() *poolSet {
	if a.warm != nil {
		return a.warm
	}
	return &a.local
}

// acct is the accounting state of a budgeted arena: the tenant the
// bytes are charged to, plus one ledger per element domain mapping a
// buffer's first-element pointer to the bytes charged for it. The
// ledger is what lets Free verify origin — only buffers this arena
// allocated (and has not yet released) appear in it.
type acct struct {
	tenant *Tenant

	mu      sync.Mutex
	closed  bool
	floats  map[*float64]int64
	ints    map[*int]int64
	int64s  map[*int64]int64
	strings map[*string]int64
}

// ownerReg maps a live accounted buffer's first-element pointer to the
// acct that charged it, one registry per element domain. It closes the
// foreign-free accounting gap: a buffer freed into an arena that did
// not allocate it used to stay charged against its owner until the
// owning arena closed; the registry lets any arena's Free find the true
// owner and release the charge immediately. Registry and ledger are
// updated together under the owner's mutex, so an entry here always has
// a matching ledger entry (and vice versa) — a foreign free that loses
// the race with the owner's own free or Close simply finds no ledger
// entry and backs off.
type ownerReg[T any] struct {
	m      sync.Map // *T -> *acct
	ledger func(ac *acct) map[*T]int64
	ctr    func(tn *Tenant) *domainCounters
}

// liveOwned counts registered buffers process-wide. It is the fast-path
// guard on unaccounted frees: while no accounted arena holds live
// buffers, a plain Free pays one atomic load and nothing else.
var liveOwned atomic.Int64

var (
	floatOwners = ownerReg[float64]{
		ledger: func(ac *acct) map[*float64]int64 { return ac.floats },
		ctr:    func(tn *Tenant) *domainCounters { return &tn.floats },
	}
	intOwners = ownerReg[int]{
		ledger: func(ac *acct) map[*int]int64 { return ac.ints },
		ctr:    func(tn *Tenant) *domainCounters { return &tn.ints },
	}
	int64Owners = ownerReg[int64]{
		ledger: func(ac *acct) map[*int64]int64 { return ac.int64s },
		ctr:    func(tn *Tenant) *domainCounters { return &tn.int64s },
	}
	stringOwners = ownerReg[string]{
		ledger: func(ac *acct) map[*string]int64 { return ac.strings },
		ctr:    func(tn *Tenant) *domainCounters { return &tn.strings },
	}
)

// release uncharges a buffer freed into an arena that does not own it.
// When some accounted arena's ledger still carries the buffer, the
// owner's ledger entry is removed, the free is counted on the owner's
// tenant, and the charge is released — exactly what the owner's own
// Free would have done, minus the pooling. Returns false for buffers no
// registry knows (plain-arena or already-released memory), leaving the
// caller's behavior unchanged.
func (r *ownerReg[T]) release(s []T) bool {
	if cap(s) == 0 || liveOwned.Load() == 0 {
		return false
	}
	key := &s[:1][0]
	v, ok := r.m.Load(key)
	if !ok {
		return false
	}
	ac := v.(*acct)
	ac.mu.Lock()
	var bytes int64
	if ac.closed {
		ok = false
	} else {
		m := r.ledger(ac)
		if bytes, ok = m[key]; ok {
			delete(m, key)
			r.m.Delete(key)
			liveOwned.Add(-1)
		}
	}
	ac.mu.Unlock()
	if !ok {
		return false
	}
	r.ctr(ac.tenant).frees.Add(1)
	ac.tenant.uncharge(bytes)
	return true
}

// dropOwners clears the registry entries for every buffer still in an
// arena's ledger; called by Close under the owner's mutex.
func dropOwners[T any](r *ownerReg[T], m map[*T]int64) {
	for k := range m {
		r.m.Delete(k)
		liveOwned.Add(-1)
	}
}

// Element sizes charged per domain, in bytes.
const (
	floatSize  = 8
	intSize    = bits.UintSize / 8
	int64Size  = 8
	stringSize = 2 * bits.UintSize / 8 // string header: pointer + length
)

const (
	// minPoolShift is the smallest pooled capacity (64 elements): below
	// that the pool bookkeeping costs more than the allocation.
	minPoolShift = 6
	// maxPoolShift caps pooled buffers at 16Mi elements (128 MiB of
	// float64s); larger columns go straight to the allocator.
	maxPoolShift = 24
	poolClasses  = maxPoolShift - minPoolShift + 1
)

// shared is the process-wide arena behind Shared() and every Ctx without
// a private arena.
var shared Arena

// Shared returns the process-wide arena.
func Shared() *Arena { return &shared }

// NewArena returns a fresh arena with empty pools.
func NewArena() *Arena { return &Arena{} }

// classFor returns the pool class whose capacity 1<<(minPoolShift+class)
// is the smallest one holding n elements, or -1 when n is outside the
// pooled range.
func classFor(n int) int {
	if n <= 0 || n > 1<<maxPoolShift {
		return -1
	}
	shift := bits.Len(uint(n - 1))
	if shift < minPoolShift {
		shift = minPoolShift
	}
	return shift - minPoolShift
}

// capClass returns the pool class for a buffer of exactly capacity c, or
// -1 when c is not a pooled class size. Only exact class capacities are
// accepted so foreign slices cannot poison the pool with odd sizes.
func capClass(c int) int {
	if c < 1<<minPoolShift || c > 1<<maxPoolShift || c&(c-1) != 0 {
		return -1
	}
	return bits.Len(uint(c)) - 1 - minPoolShift
}

// alloc returns a slice of length n from the size-classed pools, falling
// back to make outside the pooled range. Contents are undefined.
func alloc[T any](pools *[poolClasses]sync.Pool, n int) []T {
	c := classFor(n)
	if c < 0 {
		return make([]T, n)
	}
	if p, _ := pools[c].Get().(*[]T); p != nil {
		return (*p)[:n]
	}
	return make([]T, n, 1<<(c+minPoolShift))
}

// free returns a slice to the pools. clearRefs zeroes the full capacity
// first — required for pointer-carrying element types (strings) so pooled
// buffers do not pin dead values against the garbage collector.
func free[T any](pools *[poolClasses]sync.Pool, s []T, clearRefs bool) {
	c := capClass(cap(s))
	if c < 0 {
		return
	}
	if clearRefs {
		clear(s[:cap(s)])
	}
	s = s[:0]
	pools[c].Put(&s)
}

// acctAlloc is alloc for accounted arenas: it counts the pool hit/miss,
// charges the buffer's full capacity against the tenant's budget, and
// records the buffer in the arena's ledger. A budget overrun panics
// with the typed budgetPanic (see CatchBudget), or with try set returns
// nil; either way before any buffer is taken, so a rejected allocation
// strands nothing.
// The ledger is passed as a pointer to the acct field and dereferenced
// only under ac.mu: Close nils the field under the same lock, so a
// racing alloc/free can never act on a stale map snapshot.
func acctAlloc[T any](ac *acct, reg *ownerReg[T], pools *[poolClasses]sync.Pool, ctr *domainCounters, owned *map[*T]int64, elemSize, n int, try bool) []T {
	// Charge before allocating: the buffer's capacity is known up front
	// (the pool class size, or exactly n outside the pooled range — Free
	// only pools exact class capacities, so a pooled Get always matches),
	// and an over-budget request must be rejected before any physical
	// memory is committed, or the budget would not prevent the very
	// transient spike it exists to bound. Rejected allocations are not
	// counted: the metrics report buffers actually delivered.
	cls := classFor(n)
	capElems := n
	if cls >= 0 {
		capElems = 1 << (cls + minPoolShift)
	}
	bytes := int64(capElems) * int64(elemSize)
	if bytes > 0 {
		if err := ac.tenant.charge(bytes); err != nil {
			if try {
				return nil
			}
			panic(budgetPanic{err})
		}
	}
	var s []T
	hit := false
	if cls >= 0 {
		if p, _ := pools[cls].Get().(*[]T); p != nil {
			s = (*p)[:n]
			hit = true
		} else {
			s = make([]T, n, capElems)
		}
	} else {
		s = make([]T, n)
	}
	ctr.allocs.Add(1)
	if hit {
		ctr.hits.Add(1)
	} else {
		ctr.misses.Add(1)
	}
	if bytes == 0 {
		return s
	}
	key := &s[:1][0]
	ac.mu.Lock()
	if ac.closed {
		ac.mu.Unlock()
		ac.tenant.uncharge(bytes)
		return s
	}
	(*owned)[key] = bytes
	reg.m.Store(key, ac)
	liveOwned.Add(1)
	ac.mu.Unlock()
	return s
}

// acctFree is free for accounted arenas. Origin is verified through the
// ledger: only buffers this arena handed out are uncharged and pooled.
// A buffer owned by some other accounted arena is uncharged against its
// true owner through the registry but still left to the garbage
// collector rather than pooled here, so cross-arena migration can
// neither corrupt a tenant's byte count nor smuggle memory into pools
// the owner never fed. Double frees and stray make()d buffers remain
// no-ops.
func acctFree[T any](ac *acct, reg *ownerReg[T], pools *[poolClasses]sync.Pool, ctr *domainCounters, owned *map[*T]int64, s []T, clearRefs bool) {
	if cap(s) == 0 {
		return
	}
	key := &s[:1][0]
	ac.mu.Lock()
	bytes, ok := (*owned)[key]
	if ok {
		delete(*owned, key)
		reg.m.Delete(key)
		liveOwned.Add(-1)
	}
	closed := ac.closed
	ac.mu.Unlock()
	if !ok {
		reg.release(s)
		return
	}
	ctr.frees.Add(1)
	ac.tenant.uncharge(bytes)
	if closed {
		return
	}
	cls := capClass(cap(s))
	if cls < 0 {
		return
	}
	if clearRefs {
		clear(s[:cap(s)])
	}
	s = s[:0]
	pools[cls].Put(&s)
}

// Floats returns a float64 slice of length n, recycled when a buffer of a
// suitable class is available. The contents are undefined; use FloatsZero
// when the kernel does not overwrite every element. Nil-safe: a nil arena
// delegates to the shared one.
func (a *Arena) Floats(n int) []float64 { return a.floats(n, false) }

// TryFloats is Floats for scratch an operator can do without: where the
// budget refuses the buffer it returns nil, charging nothing, instead of
// panicking. Unaccounted arenas never refuse.
func (a *Arena) TryFloats(n int) []float64 { return a.floats(n, true) }

func (a *Arena) floats(n int, try bool) []float64 {
	if a == nil {
		a = Shared()
	}
	if ac := a.acct; ac != nil {
		return acctAlloc(ac, &floatOwners, &a.ps().floats, &ac.tenant.floats, &ac.floats, floatSize, n, try)
	}
	return alloc[float64](&a.ps().floats, n)
}

// FloatsZero returns a zeroed float64 slice of length n.
func (a *Arena) FloatsZero(n int) []float64 {
	f := a.Floats(n)
	clear(f)
	return f
}

// FreeFloats returns a float64 slice to the arena. The caller asserts
// sole ownership: the slice (and any BAT or Vector wrapping it) must not
// be used afterwards. Slices whose capacity is not an exact arena class
// are left to the garbage collector.
func (a *Arena) FreeFloats(f []float64) {
	if a == nil {
		a = Shared()
	}
	if ac := a.acct; ac != nil {
		acctFree(ac, &floatOwners, &a.ps().floats, &ac.tenant.floats, &ac.floats, f, false)
		return
	}
	floatOwners.release(f)
	free(&a.ps().floats, f, false)
}

// Ints returns an int slice of length n (the permutation buffers of
// SortKeys and Identity).
func (a *Arena) Ints(n int) []int { return a.ints(n, false) }

// TryInts is Ints for scratch an operator can do without: where the
// budget refuses the buffer it returns nil, charging nothing, instead of
// panicking. Unaccounted arenas never refuse.
func (a *Arena) TryInts(n int) []int { return a.ints(n, true) }

func (a *Arena) ints(n int, try bool) []int {
	if a == nil {
		a = Shared()
	}
	if ac := a.acct; ac != nil {
		return acctAlloc(ac, &intOwners, &a.ps().ints, &ac.tenant.ints, &ac.ints, intSize, n, try)
	}
	return alloc[int](&a.ps().ints, n)
}

// FreeInts returns an int slice to the arena under the same ownership
// contract as FreeFloats.
func (a *Arena) FreeInts(idx []int) {
	if a == nil {
		a = Shared()
	}
	if ac := a.acct; ac != nil {
		acctFree(ac, &intOwners, &a.ps().ints, &ac.tenant.ints, &ac.ints, idx, false)
		return
	}
	intOwners.release(idx)
	free(&a.ps().ints, idx, false)
}

// Int64s returns an int64 slice of length n (the int tails of gathered
// and padded columns).
func (a *Arena) Int64s(n int) []int64 {
	if a == nil {
		a = Shared()
	}
	if ac := a.acct; ac != nil {
		return acctAlloc(ac, &int64Owners, &a.ps().int64s, &ac.tenant.int64s, &ac.int64s, int64Size, n, false)
	}
	return alloc[int64](&a.ps().int64s, n)
}

// FreeInt64s returns an int64 slice to the arena.
func (a *Arena) FreeInt64s(xs []int64) {
	if a == nil {
		a = Shared()
	}
	if ac := a.acct; ac != nil {
		acctFree(ac, &int64Owners, &a.ps().int64s, &ac.tenant.int64s, &ac.int64s, xs, false)
		return
	}
	int64Owners.release(xs)
	free(&a.ps().int64s, xs, false)
}

// Strings returns a string slice of length n. Recycled buffers come back
// zeroed (FreeStrings clears them), so every element is the empty string.
func (a *Arena) Strings(n int) []string {
	if a == nil {
		a = Shared()
	}
	if ac := a.acct; ac != nil {
		return acctAlloc(ac, &stringOwners, &a.ps().strings, &ac.tenant.strings, &ac.strings, stringSize, n, false)
	}
	return alloc[string](&a.ps().strings, n)
}

// FreeStrings returns a string slice to the arena, clearing it first so
// the pool does not pin the released values against the collector.
func (a *Arena) FreeStrings(ss []string) {
	if a == nil {
		a = Shared()
	}
	if ac := a.acct; ac != nil {
		acctFree(ac, &stringOwners, &a.ps().strings, &ac.tenant.strings, &ac.strings, ss, true)
		return
	}
	stringOwners.release(ss)
	free(&a.ps().strings, ss, true)
}

// Tenant returns the tenant an accounted arena charges, or nil for
// plain arenas (including the shared one).
func (a *Arena) Tenant() *Tenant {
	if a == nil || a.acct == nil {
		return nil
	}
	return a.acct.tenant
}

// Close ends an accounted arena's accounting: every outstanding charge
// is released back to the tenant and the ledgers are dropped, so a
// finished (or failed) query cannot strand bytes against the budget.
// Buffers still referenced — a query's result columns, typically —
// remain valid; they simply leave the governed scope, which is the
// budget's contract: it bounds in-flight execution memory, not results
// a caller holds on to. Frees arriving after Close are ignored (the
// ledger no longer knows the buffer) and allocations fall through to
// the heap uncharged. Close is idempotent and a no-op on plain arenas.
func (a *Arena) Close() {
	if a == nil || a.acct == nil {
		return
	}
	ac := a.acct
	ac.mu.Lock()
	if ac.closed {
		ac.mu.Unlock()
		return
	}
	ac.closed = true
	var total int64
	for _, b := range ac.floats {
		total += b
	}
	for _, b := range ac.ints {
		total += b
	}
	for _, b := range ac.int64s {
		total += b
	}
	for _, b := range ac.strings {
		total += b
	}
	dropOwners(&floatOwners, ac.floats)
	dropOwners(&intOwners, ac.ints)
	dropOwners(&int64Owners, ac.int64s)
	dropOwners(&stringOwners, ac.strings)
	ac.floats, ac.ints, ac.int64s, ac.strings = nil, nil, nil, nil
	ac.mu.Unlock()
	ac.tenant.uncharge(total)
}
