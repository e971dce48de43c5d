package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bat"
	"repro/internal/exec"
	"repro/internal/rel"
)

// budgetRows is sized above the serial cutoff so the order-schema sort
// takes the parallel merge-sort path, whose double buffer is the extra
// arena scratch the serial fallback avoids.
const budgetRows = 3 * bat.SerialCutoff

// sparseShuffledRel builds a relation whose columns are both
// zero-suppressed: a shuffled distinct key (so sorting really runs) and
// a sparse value column. With sparse tails, the gathers and the add
// kernel allocate outside the arena, which makes the sort scratch the
// dominant accounted allocation — the shape that separates the parallel
// and serial peaks.
func sparseShuffledRel(name, key, val string, n int) *rel.Relation {
	kf := make([]float64, n)
	vf := make([]float64, n)
	for i := 0; i < n; i++ {
		kf[i] = float64((i*5+3)%n + 1) // 5 is coprime to n: a permutation
		if i%3 == 0 {
			vf[i] = float64(i + 1)
		}
	}
	return rel.MustNew(name, rel.Schema{
		{Name: key, Type: bat.Float},
		{Name: val, Type: bat.Float},
	}, []*bat.BAT{
		bat.FromSparse(bat.Compress(kf)),
		bat.FromSparse(bat.Compress(vf)),
	})
}

// governedAdd runs one ADD under the given tenant/budget/parallelism
// against gov and returns the result, the stats, and the error.
func governedAdd(workers int, budget int64, tenant string, gov *exec.Governor) (*rel.Relation, *Stats, error) {
	r := sparseShuffledRel("r", "ka", "va", budgetRows)
	s := sparseShuffledRel("s", "kb", "vb", budgetRows)
	st := &Stats{}
	res, err := Add(r, []string{"ka"}, s, []string{"kb"}, &Options{
		Policy:       PolicyBAT,
		Parallelism:  workers,
		Tenant:       tenant,
		MemoryBudget: budget,
		Governor:     gov,
		Stats:        st,
	})
	return res, st, err
}

func sameRelation(a, b *rel.Relation) bool {
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		return false
	}
	for j := range a.Cols {
		for i := 0; i < a.NumRows(); i++ {
			if !a.Cols[j].Get(i).Equal(b.Cols[j].Get(i)) {
				return false
			}
		}
	}
	return true
}

// TestMemoryBudgetGovernsInvocation is the acceptance test of the
// memory governance: a budgeted invocation never exceeds its cap in
// live arena bytes, degrades to a serial retry when the parallel
// scratch does not fit — producing a bitwise-identical result — and
// returns the typed error (never a panic) when even the serial run
// cannot fit.
func TestMemoryBudgetGovernsInvocation(t *testing.T) {
	gov := exec.NewGovernor(0, 0)

	// Measure the ungoverned (unlimited-budget) peaks of both modes on
	// fresh tenants.
	serialRes, serialStats, err := governedAdd(1, 0, "measure-serial", gov)
	if err != nil {
		t.Fatal(err)
	}
	parRes, parStats, err := governedAdd(8, 0, "measure-parallel", gov)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRelation(serialRes, parRes) {
		t.Fatal("serial and parallel ungoverned results differ")
	}
	pSerial, pPar := serialStats.Arena.PeakBytes, parStats.Arena.PeakBytes
	if pSerial <= 0 || pPar <= pSerial {
		t.Fatalf("peaks: serial=%d parallel=%d, want 0 < serial < parallel (the sort double buffer)",
			pSerial, pPar)
	}

	// A budget between the two peaks: the parallel attempt must fail,
	// the serial fallback must fit and reproduce the result exactly.
	budget := (pSerial + pPar) / 2
	res, st, err := governedAdd(8, budget, "governed", gov)
	if err != nil {
		t.Fatalf("budgeted invocation failed despite a feasible serial plan: %v", err)
	}
	if !st.SerialFallback {
		t.Fatal("SerialFallback not recorded; the parallel attempt should have exceeded the budget")
	}
	if got := st.Arena.PeakBytes; got > budget {
		t.Fatalf("peak %d exceeded the budget %d", got, budget)
	}
	if got := gov.Tenant("governed", 0).PeakBytes(); got > budget {
		t.Fatalf("tenant peak %d exceeded the budget %d", got, budget)
	}
	if st.Arena.Tenant != "governed" {
		t.Fatalf("Stats.Arena.Tenant = %q", st.Arena.Tenant)
	}
	if !sameRelation(res, serialRes) {
		t.Fatal("serial-fallback result differs from the ungoverned result")
	}

	// A budget no plan fits under yields the typed error — through the
	// normal error return, not a panic.
	_, _, err = governedAdd(8, 4096, "starved", gov)
	if err == nil {
		t.Fatal("starved invocation succeeded under a 4 KiB budget")
	}
	if !errors.Is(err, exec.ErrMemoryBudget) {
		t.Fatalf("starved invocation error = %v, want ErrMemoryBudget", err)
	}
	// Failed invocations must not strand charges against the tenant.
	if got := gov.Tenant("starved", 0).LiveBytes(); got != 0 {
		t.Fatalf("starved tenant live = %d after failure, want 0", got)
	}
}

// TestConcurrentTenantGovernance runs two tenants with distinct budgets
// simultaneously under -race: a tight tenant whose budget forces the
// serial fallback on every query, and a roomy tenant that never falls
// back. Both must produce results identical to an ungoverned reference
// on every round, their peaks must respect their own budgets, and both
// must drain to zero live bytes — isolation plus determinism under
// budget pressure.
func TestConcurrentTenantGovernance(t *testing.T) {
	gov := exec.NewGovernor(0, 0)
	ref, refStats, err := governedAdd(1, 0, "ref", gov)
	if err != nil {
		t.Fatal(err)
	}
	_, parStats, err := governedAdd(8, 0, "ref-par", gov)
	if err != nil {
		t.Fatal(err)
	}
	pSerial, pPar := refStats.Arena.PeakBytes, parStats.Arena.PeakBytes
	if pPar <= pSerial {
		t.Fatalf("peaks: serial=%d parallel=%d, want a parallel-only scratch gap", pSerial, pPar)
	}
	tight := (pSerial + pPar) / 2
	roomy := 4 * pPar

	var wg sync.WaitGroup
	for _, tc := range []struct {
		tenant       string
		budget       int64
		wantFallback bool
	}{
		{"tight", tight, true},
		{"roomy", roomy, false},
	} {
		wg.Add(1)
		go func(tenant string, budget int64, wantFallback bool) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				res, st, err := governedAdd(8, budget, tenant, gov)
				if err != nil {
					t.Errorf("tenant %s round %d: %v", tenant, round, err)
					return
				}
				if st.SerialFallback != wantFallback {
					t.Errorf("tenant %s round %d: SerialFallback = %v, want %v",
						tenant, round, st.SerialFallback, wantFallback)
					return
				}
				if !sameRelation(res, ref) {
					t.Errorf("tenant %s round %d: result diverged from the reference", tenant, round)
					return
				}
			}
		}(tc.tenant, tc.budget, tc.wantFallback)
	}
	wg.Wait()

	if got := gov.Tenant("tight", 0).PeakBytes(); got > tight {
		t.Errorf("tight tenant peak %d exceeded its budget %d", got, tight)
	}
	if got := gov.Tenant("roomy", 0).PeakBytes(); got > roomy {
		t.Errorf("roomy tenant peak %d exceeded its budget %d", got, roomy)
	}
	for _, tenant := range []string{"tight", "roomy"} {
		if got := gov.Tenant(tenant, 0).LiveBytes(); got != 0 {
			t.Errorf("tenant %s live = %d after drain, want 0", tenant, got)
		}
	}
}

// TestTenantSharedAcrossInvocations checks that two invocations naming
// the same tenant share one byte ledger: the tenant's counters
// accumulate across both.
func TestTenantSharedAcrossInvocations(t *testing.T) {
	gov := exec.NewGovernor(0, 0)
	if _, _, err := governedAdd(1, 0, "shared", gov); err != nil {
		t.Fatal(err)
	}
	first := gov.Tenant("shared", 0).Stats().Total().Allocs
	if first == 0 {
		t.Fatal("no accounted allocations in a governed invocation")
	}
	if _, _, err := governedAdd(1, 0, "shared", gov); err != nil {
		t.Fatal(err)
	}
	second := gov.Tenant("shared", 0).Stats().Total().Allocs
	if second <= first {
		t.Fatalf("tenant allocs did not accumulate: %d then %d", first, second)
	}
	if got := gov.Tenant("shared", 0).LiveBytes(); got != 0 {
		t.Fatalf("tenant live = %d after both invocations closed, want 0", got)
	}
}

// TestQRWorkingMemoryCharged holds the dense QQR route to its tenant's
// books: NewQRColumns' working columns and Q's columns are live together
// while Q is formed, so the tenant peak covers both, and every byte is
// released once the invocation closes.
func TestQRWorkingMemoryCharged(t *testing.T) {
	const m, n = 20000, 40
	r := randRelation(rand.New(rand.NewSource(47)), "q", m, n)
	gov := exec.NewGovernor(0, 0)
	res, err := Qqr(r, []string{"Kq"}, &Options{Policy: PolicyDense, Parallelism: 1, Tenant: "qr", Governor: gov})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != m {
		t.Fatalf("QQR returned %d rows, want %d", res.NumRows(), m)
	}
	tn := gov.Tenant("qr", 0)
	if want := int64(2 * m * n * 8); tn.PeakBytes() < want {
		t.Fatalf("tenant peak %d bytes, want at least the working and Q columns' %d", tn.PeakBytes(), want)
	}
	if live := tn.LiveBytes(); live != 0 {
		t.Fatalf("tenant live = %d after the QQR, want 0", live)
	}
	t.Logf("tenant peak %d bytes", tn.PeakBytes())
}

// TestElementwiseAddTenantPeak holds a governed ADD of two shuffled
// 250 000×10 relations at 2 workers, the benchmark's trip-count shape,
// to 32 MiB of tenant peak. That covers the 10 result columns, the two
// order columns gathered into the result, both sort permutations and
// one sort scratch, and no copy of an application column: the kernels
// read both arguments through their permutations. Every byte is
// released once the invocation closes.
func TestElementwiseAddTenantPeak(t *testing.T) {
	const n, budget = 250000, 32 << 20
	r := mixedRel("r", n, 10, 71)
	s, err := mixedRel("s", n, 10, 72).Rename(map[string]string{"k": "k2"})
	if err != nil {
		t.Fatal(err)
	}
	gov := exec.NewGovernor(0, 0)
	if _, err := Add(r, []string{"k"}, s, []string{"k2"}, &Options{Parallelism: 2, Tenant: "add", Governor: gov}); err != nil {
		t.Fatal(err)
	}
	tn := gov.Tenant("add", 0)
	if peak := tn.PeakBytes(); peak > budget {
		t.Fatalf("tenant peak %d bytes, want at most %d", peak, budget)
	} else {
		t.Logf("tenant peak %d bytes", peak)
	}
	if live := tn.LiveBytes(); live != 0 {
		t.Fatalf("tenant live = %d after the ADD, want 0", live)
	}
}

// orderedFloatRel builds a rows×cols relation whose rows are already in
// key order, with float application columns.
func orderedFloatRel(rng *rand.Rand, name string, rows, cols int) *rel.Relation {
	keys := make([]int64, rows)
	for i := range keys {
		keys[i] = int64(i)
	}
	schema := rel.Schema{{Name: "K" + name, Type: bat.Int}}
	bats := []*bat.BAT{bat.FromInts(keys)}
	for j := 0; j < cols; j++ {
		f := make([]float64, rows)
		for i := range f {
			f[i] = rng.NormFloat64()
		}
		schema = append(schema, rel.Attr{Name: fmt.Sprintf("%s%02d", name, j), Type: bat.Float})
		bats = append(bats, bat.FromFloats(f))
	}
	return rel.MustNew(name, schema, bats)
}

// TestDenseProductsReadOrderedOperandInPlace holds the dense MMU, CPD
// and OPD routes to reading an operand that is already in key order,
// with float columns, where it lies: the tenant peak of each (sort
// permutation, result columns) stays below one copy of that operand.
func TestDenseProductsReadOrderedOperandInPlace(t *testing.T) {
	const m, n = 20000, 10
	rng := rand.New(rand.NewSource(53))
	r := orderedFloatRel(rng, "a", m, n)
	r2 := orderedFloatRel(rng, "b", m, 3)
	inner := orderedFloatRel(rng, "i", n, 3)
	narrow := orderedFloatRel(rng, "o", 3, n)
	k := func(r *rel.Relation) []string { return []string{r.Schema[0].Name} }
	operand := int64(m * n * 8)
	for _, tc := range []struct {
		name string
		run  func(*Options) (*rel.Relation, error)
	}{
		{"cpd-self", func(o *Options) (*rel.Relation, error) { return Cpd(r, k(r), r, k(r), o) }},
		{"cpd", func(o *Options) (*rel.Relation, error) { return Cpd(r, k(r), r2, k(r2), o) }},
		{"mmu", func(o *Options) (*rel.Relation, error) { return Mmu(r, k(r), inner, k(inner), o) }},
		{"opd", func(o *Options) (*rel.Relation, error) { return Opd(r, k(r), narrow, k(narrow), o) }},
	} {
		gov := exec.NewGovernor(0, 0)
		if _, err := tc.run(&Options{Policy: PolicyDense, Parallelism: 1, Tenant: "p", Governor: gov}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		tn := gov.Tenant("p", 0)
		if peak := tn.PeakBytes(); peak >= operand {
			t.Errorf("%s: tenant peak %d bytes, want below one copy of the operand (%d)", tc.name, peak, operand)
		} else {
			t.Logf("%s: tenant peak %d bytes against a %d-byte operand", tc.name, peak, operand)
		}
		if live := tn.LiveBytes(); live != 0 {
			t.Errorf("%s: tenant live = %d after the invocation, want 0", tc.name, live)
		}
	}
}
