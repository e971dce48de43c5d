package exec

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// allocBudgeted runs fn under CatchBudget and returns the converted
// error, the way every error-returning layer above the kernels does.
func allocBudgeted(fn func()) (err error) {
	defer CatchBudget(&err)
	fn()
	return nil
}

// TestAccountedArenaCharges checks the byte accounting of a budgeted
// tenant arena: live/peak watermarks, pool hit/miss/free counters, and
// the typed error when the budget cannot be met.
func TestAccountedArenaCharges(t *testing.T) {
	g := NewGovernor(0, 0)
	tn := g.Tenant("acct", 64*1024)
	a := tn.NewArena()
	defer a.Close()

	f := a.Floats(1000) // rounds up to the 1024-cap class: 8 KiB
	if got := tn.LiveBytes(); got != 8192 {
		t.Fatalf("live after Floats(1000) = %d, want 8192", got)
	}
	if got := tn.PeakBytes(); got != 8192 {
		t.Fatalf("peak = %d, want 8192", got)
	}
	a.FreeFloats(f)
	if got := tn.LiveBytes(); got != 0 {
		t.Fatalf("live after free = %d, want 0", got)
	}
	if got := tn.PeakBytes(); got != 8192 {
		t.Fatalf("peak after free = %d, want 8192 (high-water mark)", got)
	}
	st := tn.Stats()
	if st.Floats.Allocs != 1 || st.Floats.Frees != 1 || st.Floats.PoolMisses != 1 {
		t.Fatalf("float counters = %+v, want 1 alloc / 1 free / 1 miss", st.Floats)
	}

	// The freed buffer comes back from the pool (a hit) and is charged
	// again on every round trip. sync.Pool deliberately drops a fraction
	// of Puts under the race detector, so the hit is asserted with a
	// bounded retry rather than an exact count.
	hit := false
	for i := 0; i < 64 && !hit; i++ {
		f := a.Floats(1000)
		if got := tn.LiveBytes(); got != 8192 {
			t.Fatalf("live after re-alloc = %d, want 8192", got)
		}
		hit = tn.Stats().Floats.PoolHits > 0
		a.FreeFloats(f)
	}
	if !hit {
		t.Fatal("recycled buffer never came back as a pool hit")
	}

	f2 := a.Floats(1000)

	// An allocation past the cap returns the typed error through
	// CatchBudget instead of panicking out.
	err := allocBudgeted(func() { a.Floats(8192) }) // 64 KiB on top of 8 KiB live
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("over-budget alloc error = %v, want ErrMemoryBudget", err)
	}
	var be *MemoryBudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error %v is not a *MemoryBudgetError", err)
	}
	if be.Tenant != "acct" || be.Requested != 64*1024 || be.Live != 8192 || be.Budget != 64*1024 {
		t.Fatalf("budget error fields = %+v", be)
	}
	// The failed allocation must not leak charge.
	if got := tn.LiveBytes(); got != 8192 {
		t.Fatalf("live after failed alloc = %d, want 8192", got)
	}
	a.FreeFloats(f2)
}

// TestArenaOriginVerification is the cross-arena migration regression:
// freeing a buffer into a tenant arena that did not allocate it must not
// corrupt the receiving tenant's byte count or pool the foreign buffer.
// The charge stays with the true owner, whose own later free releases
// it once; a second free anywhere is a no-op.
func TestArenaOriginVerification(t *testing.T) {
	g := NewGovernor(0, 0)
	t1 := g.Tenant("owner", 0)
	t2 := g.Tenant("bystander", 0)
	a1 := t1.NewArena()
	a2 := t2.NewArena()
	defer a1.Close()
	defer a2.Close()

	buf := a1.Floats(64) // 512 bytes charged to t1
	if t1.LiveBytes() != 512 || t2.LiveBytes() != 0 {
		t.Fatalf("live after alloc: t1=%d t2=%d", t1.LiveBytes(), t2.LiveBytes())
	}

	// Free into the wrong tenant arena: the bystander's books stay
	// untouched and the owner stays charged.
	a2.FreeFloats(buf)
	if got := t2.LiveBytes(); got != 0 {
		t.Fatalf("bystander live went to %d on a foreign free", got)
	}
	if got := t2.Stats().Floats.Frees; got != 0 {
		t.Fatalf("bystander counted %d frees for a foreign buffer", got)
	}
	if got := t1.LiveBytes(); got != 512 {
		t.Fatalf("owner live = %d after foreign free, want 512", got)
	}
	if got := t1.Stats().Floats.Frees; got != 0 {
		t.Fatalf("owner counted %d frees after foreign free, want 0", got)
	}
	// The foreign buffer must not have entered a2's pools: a fresh
	// allocation there is a miss, not a hit on smuggled memory.
	x := a2.Floats(64)
	if got := a2.Tenant().Stats().Floats.PoolHits; got != 0 {
		t.Fatalf("bystander pool served %d hits after foreign free", got)
	}
	a2.FreeFloats(x)

	// A buffer make()d outside any arena is ignored entirely.
	a1.FreeFloats(make([]float64, 64))
	if got := t1.LiveBytes(); got != 512 {
		t.Fatalf("owner live = %d after stray free, want 512", got)
	}

	// The owner's own free releases the charge; a second free is a
	// no-op.
	a1.FreeFloats(buf)
	a1.FreeFloats(buf)
	if got := t1.LiveBytes(); got != 0 {
		t.Fatalf("owner live = %d after its own and a double free, want 0", got)
	}
	if got := t1.Stats().Floats.Frees; got != 1 {
		t.Fatalf("owner counted %d frees after double free, want 1", got)
	}
}

// TestArenaCloseReleasesOutstanding checks the end-of-query contract:
// Close uncharges everything the arena still holds, so an abandoned or
// failed query cannot strand bytes against its tenant's budget.
func TestArenaCloseReleasesOutstanding(t *testing.T) {
	g := NewGovernor(0, 0)
	tn := g.Tenant("closer", 0)
	a := tn.NewArena()
	a.Floats(64)
	a.Ints(64)
	a.Int64s(64)
	a.Strings(64)
	if got := tn.LiveBytes(); got == 0 {
		t.Fatal("nothing charged before Close")
	}
	a.Close()
	if got := tn.LiveBytes(); got != 0 {
		t.Fatalf("live after Close = %d, want 0", got)
	}
	a.Close() // idempotent
	// Frees and allocations after Close are uncharged no-ops.
	f := a.Floats(64)
	a.FreeFloats(f)
	if got := tn.LiveBytes(); got != 0 {
		t.Fatalf("live after post-Close traffic = %d, want 0", got)
	}
}

// TestTenantIsolationStress runs two tenants with distinct budgets
// concurrently under -race and asserts their accounting never bleeds
// into each other: each tenant's peak stays under its own budget, and
// every tenant drains back to zero live bytes once its queries close.
func TestTenantIsolationStress(t *testing.T) {
	g := NewGovernor(0, 0)
	const (
		bigBudget   = 1 << 20
		smallBudget = 16 << 10
	)
	big := g.Tenant("big", bigBudget)
	small := g.Tenant("small", smallBudget)

	var wg sync.WaitGroup
	var overruns sync.Map
	for _, tc := range []struct {
		tenant *Tenant
		size   int
	}{
		{big, 8192},  // 64 KiB per buffer: fits big, would bust small
		{big, 1024},  //
		{small, 512}, // 4 KiB per buffer: fits small
		{small, 512},
	} {
		wg.Add(1)
		go func(tn *Tenant, size int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				a := tn.NewArena()
				err := allocBudgeted(func() {
					f1 := a.Floats(size)
					f2 := a.Floats(size)
					a.FreeFloats(f1)
					a.FreeFloats(f2)
				})
				if err != nil {
					if !errors.Is(err, ErrMemoryBudget) {
						t.Errorf("tenant %s: unexpected error %v", tn.Name(), err)
					}
					overruns.Store(tn.Name(), true)
				}
				a.Close()
			}
		}(tc.tenant, tc.size)
	}
	wg.Wait()

	if got := big.LiveBytes(); got != 0 {
		t.Errorf("big tenant live after drain = %d, want 0", got)
	}
	if got := small.LiveBytes(); got != 0 {
		t.Errorf("small tenant live after drain = %d, want 0", got)
	}
	if got := big.PeakBytes(); got > bigBudget {
		t.Errorf("big tenant peak %d exceeded its budget %d", got, bigBudget)
	}
	if got := small.PeakBytes(); got > smallBudget {
		t.Errorf("small tenant peak %d exceeded its budget %d", got, smallBudget)
	}
	// The big tenant's traffic (two 64 KiB buffers in flight) would
	// overrun the small budget many times over; its own budget must
	// never have rejected it, proving the books are separate.
	if _, ok := overruns.Load("big"); ok {
		t.Error("big tenant hit its budget — accounting bled between tenants")
	}
}

// waitUntil polls cond up to a deadline; admission tests use it instead
// of fixed sleeps for the positive direction.
func waitUntil(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionQueueing checks the governor's reservation-based
// admission: a query whose declared budget does not fit under the
// global cap queues until a running query releases its reservation.
func TestAdmissionQueueing(t *testing.T) {
	g := NewGovernor(1000, 0)
	release1 := admitNow(g, 600)

	admitted := make(chan struct{})
	go func() {
		release2 := admitNow(g, 600)
		close(admitted)
		release2()
	}()

	waitUntil(t, 2*time.Second, func() bool { return g.Metrics().Queued == 1 },
		"second query never queued")
	select {
	case <-admitted:
		t.Fatal("600+600 admitted under a cap of 1000")
	case <-time.After(50 * time.Millisecond):
	}

	release1()
	select {
	case <-admitted:
	case <-time.After(2 * time.Second):
		t.Fatal("queued query not admitted after release")
	}
	release1() // idempotent
	m := g.Metrics()
	if m.Admitted != 2 {
		t.Fatalf("Admitted = %d, want 2", m.Admitted)
	}
	waitUntil(t, 2*time.Second, func() bool {
		m := g.Metrics()
		return m.Running == 0 && m.ReservedBytes == 0 && m.Queued == 0
	}, "governor did not drain to idle")
}

// admitNow admits budget on g under a context that is never done, so
// Admit cannot fail.
func admitNow(g *Governor, budget int64) func() {
	release, err := g.Admit(context.Background(), budget)
	if err != nil {
		panic(err)
	}
	return release
}

// TestAdmissionCancelledWaiterSkipped holds the one slot of a
// maxQueries=1 governor and queues waiters behind it. The cancelled
// waiter B returns ctx.Err() and leaves the queue, and C, queued behind
// B's abandoned ticket, is admitted in FIFO order once the slot frees,
// whether B held the head of the queue or sat behind another waiter A.
func TestAdmissionCancelledWaiterSkipped(t *testing.T) {
	for _, ahead := range []int{0, 1} {
		g := NewGovernor(0, 1)
		holder := admitNow(g, 0)
		queued := 0
		waiter := func(ctx context.Context) (chan func(), chan error) {
			admitted, failed := make(chan func(), 1), make(chan error, 1)
			go func() {
				if release, err := g.Admit(ctx, 0); err != nil {
					failed <- err
				} else {
					admitted <- release
				}
			}()
			queued++
			waitUntil(t, 2*time.Second, func() bool { return g.Metrics().Queued == queued },
				"waiter never queued")
			return admitted, failed
		}
		var aAdmitted chan func()
		if ahead == 1 {
			aAdmitted, _ = waiter(context.Background())
		}
		ctxB, cancelB := context.WithCancel(context.Background())
		_, bFailed := waiter(ctxB)
		cAdmitted, _ := waiter(context.Background())

		cancelB()
		select {
		case err := <-bFailed:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("ahead=%d: cancelled waiter returned %v, want context.Canceled", ahead, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("ahead=%d: cancelled waiter never returned", ahead)
		}
		waitUntil(t, 2*time.Second, func() bool { return g.Metrics().Queued == queued-1 },
			"cancelled waiter still counted as queued")
		select {
		case <-cAdmitted:
			t.Fatalf("ahead=%d: C admitted while the slot is held", ahead)
		case <-time.After(20 * time.Millisecond):
		}

		holder()
		if aAdmitted != nil {
			select {
			case release := <-aAdmitted:
				release()
			case <-time.After(2 * time.Second):
				t.Fatal("A not admitted after the holder released")
			}
		}
		select {
		case release := <-cAdmitted:
			release()
		case <-time.After(2 * time.Second):
			t.Fatalf("ahead=%d: C stalled behind the abandoned ticket", ahead)
		}
		m := g.Metrics()
		if m.Queued != 0 || m.Running != 0 || m.Admitted != int64(2+ahead) {
			t.Fatalf("ahead=%d: queued=%d running=%d admitted=%d, want 0, 0, %d", ahead, m.Queued, m.Running, m.Admitted, 2+ahead)
		}
	}
}

// TestAdmissionOversizedQuery checks the no-deadlock rule: a budget
// larger than the global cap is admitted when it would run alone.
func TestAdmissionOversizedQuery(t *testing.T) {
	g := NewGovernor(1000, 0)
	done := make(chan struct{})
	go func() {
		release := admitNow(g, 5000)
		release()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("oversized query deadlocked on an idle governor")
	}
}

// TestAdmissionMaxQueries checks the concurrency slot limit.
func TestAdmissionMaxQueries(t *testing.T) {
	g := NewGovernor(0, 1)
	release1 := admitNow(g, 0)
	admitted := make(chan struct{})
	go func() {
		release2 := admitNow(g, 0)
		close(admitted)
		release2()
	}()
	waitUntil(t, 2*time.Second, func() bool { return g.Metrics().Queued == 1 },
		"second query never queued on the slot limit")
	release1()
	select {
	case <-admitted:
	case <-time.After(2 * time.Second):
		t.Fatal("slot not handed over on release")
	}
}

// TestGovernorMetricsTenants checks the snapshot shape: tenants sorted
// by name with their budgets and counters.
func TestGovernorMetricsTenants(t *testing.T) {
	g := NewGovernor(123, 4)
	g.Tenant("zeta", 100)
	g.Tenant("alpha", 8192)
	a := g.Tenant("alpha", 0).NewArena()
	a.FreeFloats(a.Floats(64))
	a.Close()

	m := g.Metrics()
	if m.GlobalCapBytes != 123 {
		t.Fatalf("GlobalCapBytes = %d", m.GlobalCapBytes)
	}
	if len(m.Tenants) != 2 || m.Tenants[0].Tenant != "alpha" || m.Tenants[1].Tenant != "zeta" {
		t.Fatalf("tenants = %+v, want [alpha zeta]", m.Tenants)
	}
	alpha := m.Tenants[0]
	if alpha.BudgetBytes != 8192 {
		t.Fatalf("alpha budget = %d, want 8192 (second Tenant(0) call must not clear it)", alpha.BudgetBytes)
	}
	if tot := alpha.Total(); tot.Allocs != 1 || tot.Frees != 1 {
		t.Fatalf("alpha totals = %+v", tot)
	}
}

// TestArenaForResolution checks the single resolution point core and
// sql build their per-invocation arenas through: ungoverned yields nil,
// an empty tenant name lands on DefaultTenant, zero budget preserves an
// established cap, and a negative budget explicitly clears it.
func TestArenaForResolution(t *testing.T) {
	g := NewGovernor(0, 0)
	if a := g.ArenaFor("", 0); a != nil {
		t.Fatal("ungoverned ArenaFor returned an accounted arena")
	}
	a := g.ArenaFor("", 4096)
	if tn := a.Tenant(); tn == nil || tn.Name() != DefaultTenant {
		t.Fatalf("empty tenant resolved to %v, want %q", a.Tenant(), DefaultTenant)
	}
	if b := g.Tenant(DefaultTenant, 0).Budget(); b != 4096 {
		t.Fatalf("budget = %d, want 4096", b)
	}
	a.Close()

	// Zero keeps the cap (the tenant must be named: an empty name with
	// zero budget is the ungoverned case): an over-budget allocation
	// still fails.
	a = g.ArenaFor(DefaultTenant, 0)
	if err := allocBudgeted(func() { a.Floats(4096) }); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("alloc under preserved cap: err = %v, want ErrMemoryBudget", err)
	}
	a.Close()

	// Negative clears the cap: the same allocation now succeeds and the
	// accounting keeps running.
	a = g.ArenaFor("", -1)
	if b := a.Tenant().Budget(); b != 0 {
		t.Fatalf("budget after ArenaFor(-1) = %d, want 0 (unlimited)", b)
	}
	if err := allocBudgeted(func() { a.Floats(4096) }); err != nil {
		t.Fatalf("alloc after cap removal failed: %v", err)
	}
	if a.Tenant().LiveBytes() == 0 {
		t.Fatal("accounting stopped after cap removal")
	}
	a.Close()
}

// TestBudgetRejectionAboveLedgerRange checks that an oversized request
// (beyond the pooled size classes) is rejected by the budget check with
// no counter movement — the charge happens before any allocation, so a
// rejected request commits nothing.
func TestBudgetRejectionAboveLedgerRange(t *testing.T) {
	g := NewGovernor(0, 0)
	tn := g.Tenant("huge", 1<<20)
	a := tn.NewArena()
	err := allocBudgeted(func() { a.Floats((1 << 24) + 1) }) // above maxPoolShift
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget", err)
	}
	st := tn.Stats()
	if st.LiveBytes != 0 || st.Floats.Allocs != 0 {
		t.Fatalf("rejected oversized alloc moved counters: %+v", st)
	}
	a.Close()
}
