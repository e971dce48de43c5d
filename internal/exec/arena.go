package exec

import (
	"math/bits"
	"sync"
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
// memory beyond what the GC allows.
//
// There are two kinds of arena. The shared arena (Shared, and every Ctx
// without an arena of its own) keeps no books: its Free checks only the
// capacity class, never the origin. A tenant arena (Tenant.NewArena)
// draws from its tenant's warm pool set, so buffers freed during one
// statement serve the tenant's next one, and accounts for what it
// hands out: every allocation's full capacity is charged in bytes
// against the tenant's live count, the tenant's budget is enforced (an
// overrun unwinds as a typed panic that CatchBudget converts back into
// ErrMemoryBudget at the nearest error boundary), and the buffer is
// entered in the arena's one ledger. The ledger is the only record of a
// buffer: Free on a tenant arena uncharges and pools only buffers in its
// own ledger. A buffer freed into any other arena stays charged to its
// owner until the owner's Close, and a tenant arena that did not draw it
// neither charges nor pools it — accounting may over-count live bytes
// for a while, never under-count. Close releases the arena's remaining
// charges at end of query.
type Arena struct {
	pools *poolSet
	acct  *acct // nil for the shared arena
}

// poolSet holds one size-classed sync.Pool array per element domain.
// The shared arena draws from sharedPools; each tenant owns one set,
// shared by all of its arenas.
type poolSet struct {
	floats  [poolClasses]sync.Pool // class c holds *[]float64 of cap 1<<(minPoolShift+c)
	ints    [poolClasses]sync.Pool // class c holds *[]int
	int64s  [poolClasses]sync.Pool // class c holds *[]int64
	strings [poolClasses]sync.Pool // class c holds *[]string
}

// acct is the accounting state of a tenant arena: the tenant the bytes
// are charged to, plus the ledger mapping each live buffer's typed
// first-element pointer (*float64, *int, *int64 or *string) to the
// bytes charged for it. Only buffers this arena allocated (and has not
// yet released) appear in it.
type acct struct {
	tenant *Tenant

	mu     sync.Mutex
	ledger map[any]int64 // nil once the arena is closed
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

// sharedPools backs the process-wide arena behind Shared() and every
// Ctx without an arena of its own.
var (
	sharedPools poolSet
	shared      = Arena{pools: &sharedPools}
)

// Shared returns the process-wide arena.
func Shared() *Arena { return &shared }

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
// back to make outside the pooled range, and whether the pools served
// it. Contents are undefined.
func alloc[T any](pools *[poolClasses]sync.Pool, n int) (s []T, hit bool) {
	c := classFor(n)
	if c < 0 {
		return make([]T, n), false
	}
	if p, _ := pools[c].Get().(*[]T); p != nil {
		return (*p)[:n], true
	}
	return make([]T, n, 1<<(c+minPoolShift)), false
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

// acctAlloc is alloc for tenant arenas: it counts the pool hit/miss,
// charges the buffer's full capacity against the tenant's budget, and
// records the buffer in the arena's ledger. A budget overrun panics
// with the typed budgetPanic (see CatchBudget), or with try set returns
// nil; either way before any buffer is taken, so a rejected allocation
// strands nothing.
func acctAlloc[T any](ac *acct, pools *[poolClasses]sync.Pool, ctr *domainCounters, elemSize, n int, try bool) []T {
	// Charge before allocating: the buffer's capacity is known up front
	// (the pool class size, or exactly n outside the pooled range — Free
	// only pools exact class capacities, so a pooled Get always matches),
	// and an over-budget request must be rejected before any physical
	// memory is committed, or the budget would not prevent the very
	// transient spike it exists to bound. Rejected allocations are not
	// counted: the metrics report buffers actually delivered.
	capElems := n
	if cls := classFor(n); cls >= 0 {
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
	s, hit := alloc[T](pools, n)
	ctr.allocs.Add(1)
	if hit {
		ctr.hits.Add(1)
	} else {
		ctr.misses.Add(1)
	}
	if bytes == 0 {
		return s
	}
	ac.mu.Lock()
	open := ac.ledger != nil
	if open {
		ac.ledger[&s[:1][0]] = bytes
	}
	ac.mu.Unlock()
	if !open { // closed: the buffer is the heap's, uncharged
		ac.tenant.uncharge(bytes)
	}
	return s
}

// acctFree is free for tenant arenas. Origin is verified through the
// ledger: only buffers this arena handed out are uncharged and pooled.
// Anything else — a buffer another arena drew, which stays charged to
// its owner until the owner's Close, a double free, a stray make()d
// slice — is left alone, so cross-arena migration can neither corrupt a
// tenant's byte count nor smuggle memory into pools the tenant never
// fed.
func acctFree[T any](ac *acct, pools *[poolClasses]sync.Pool, ctr *domainCounters, s []T, clearRefs bool) {
	if cap(s) == 0 {
		return
	}
	key := &s[:1][0]
	ac.mu.Lock()
	bytes, ok := ac.ledger[key]
	delete(ac.ledger, key)
	ac.mu.Unlock()
	if !ok {
		return
	}
	ctr.frees.Add(1)
	ac.tenant.uncharge(bytes)
	free(pools, s, clearRefs)
}

// Floats returns a float64 slice of length n, recycled when a buffer of a
// suitable class is available. The contents are undefined; use FloatsZero
// when the kernel does not overwrite every element. Nil-safe: a nil arena
// delegates to the shared one.
func (a *Arena) Floats(n int) []float64 { return a.floats(n, false) }

// TryFloats is Floats for scratch an operator can do without: where the
// budget refuses the buffer it returns nil, charging nothing, instead of
// panicking. The shared arena never refuses.
func (a *Arena) TryFloats(n int) []float64 { return a.floats(n, true) }

func (a *Arena) floats(n int, try bool) []float64 {
	if a == nil {
		a = Shared()
	}
	if ac := a.acct; ac != nil {
		return acctAlloc[float64](ac, &a.pools.floats, &ac.tenant.floats, floatSize, n, try)
	}
	s, _ := alloc[float64](&a.pools.floats, n)
	return s
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
		acctFree(ac, &a.pools.floats, &ac.tenant.floats, f, false)
		return
	}
	free(&a.pools.floats, f, false)
}

// Ints returns an int slice of length n (the permutation buffers of
// SortKeys and Identity).
func (a *Arena) Ints(n int) []int { return a.ints(n, false) }

// TryInts is Ints for scratch an operator can do without: where the
// budget refuses the buffer it returns nil, charging nothing, instead of
// panicking. The shared arena never refuses.
func (a *Arena) TryInts(n int) []int { return a.ints(n, true) }

func (a *Arena) ints(n int, try bool) []int {
	if a == nil {
		a = Shared()
	}
	if ac := a.acct; ac != nil {
		return acctAlloc[int](ac, &a.pools.ints, &ac.tenant.ints, intSize, n, try)
	}
	s, _ := alloc[int](&a.pools.ints, n)
	return s
}

// FreeInts returns an int slice to the arena under the same ownership
// contract as FreeFloats.
func (a *Arena) FreeInts(idx []int) {
	if a == nil {
		a = Shared()
	}
	if ac := a.acct; ac != nil {
		acctFree(ac, &a.pools.ints, &ac.tenant.ints, idx, false)
		return
	}
	free(&a.pools.ints, idx, false)
}

// Int64s returns an int64 slice of length n (the int tails of gathered
// and padded columns).
func (a *Arena) Int64s(n int) []int64 {
	if a == nil {
		a = Shared()
	}
	if ac := a.acct; ac != nil {
		return acctAlloc[int64](ac, &a.pools.int64s, &ac.tenant.int64s, int64Size, n, false)
	}
	s, _ := alloc[int64](&a.pools.int64s, n)
	return s
}

// FreeInt64s returns an int64 slice to the arena.
func (a *Arena) FreeInt64s(xs []int64) {
	if a == nil {
		a = Shared()
	}
	if ac := a.acct; ac != nil {
		acctFree(ac, &a.pools.int64s, &ac.tenant.int64s, xs, false)
		return
	}
	free(&a.pools.int64s, xs, false)
}

// Strings returns a string slice of length n. Recycled buffers come back
// zeroed (FreeStrings clears them), so every element is the empty string.
func (a *Arena) Strings(n int) []string {
	if a == nil {
		a = Shared()
	}
	if ac := a.acct; ac != nil {
		return acctAlloc[string](ac, &a.pools.strings, &ac.tenant.strings, stringSize, n, false)
	}
	s, _ := alloc[string](&a.pools.strings, n)
	return s
}

// FreeStrings returns a string slice to the arena, clearing it first so
// the pool does not pin the released values against the collector.
func (a *Arena) FreeStrings(ss []string) {
	if a == nil {
		a = Shared()
	}
	if ac := a.acct; ac != nil {
		acctFree(ac, &a.pools.strings, &ac.tenant.strings, ss, true)
		return
	}
	free(&a.pools.strings, ss, true)
}

// Tenant returns the tenant a tenant arena charges, or nil for the
// shared arena.
func (a *Arena) Tenant() *Tenant {
	if a == nil || a.acct == nil {
		return nil
	}
	return a.acct.tenant
}

// Close ends a tenant arena's accounting: every outstanding charge is
// released back to the tenant and the ledger is dropped, so a finished
// (or failed) query cannot strand bytes against the budget. Buffers
// still referenced — a query's result columns, typically — remain
// valid; they simply leave the governed scope, which is the budget's
// contract: it bounds in-flight execution memory, not results a caller
// holds on to. Frees arriving after Close are ignored (the ledger no
// longer knows the buffer) and allocations fall through to the heap
// uncharged. Close is idempotent and a no-op on the shared arena.
func (a *Arena) Close() {
	if a == nil || a.acct == nil {
		return
	}
	ac := a.acct
	ac.mu.Lock()
	var total int64
	for _, b := range ac.ledger {
		total += b
	}
	ac.ledger = nil
	ac.mu.Unlock()
	ac.tenant.uncharge(total)
}
