package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/exec"
	"repro/internal/rel"
)

// tallMixedRel builds an n-row relation in shuffled key order with an
// Int, a dense Float and a sparse Float application column (a third of
// its rows non-zero), so sorting, gathering and the elementwise kernels
// run on every tail kind.
func tallMixedRel(name, key string, n int, seed int64) *rel.Relation {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]int64, n)
	for i, k := range rng.Perm(n) {
		keys[i] = int64(k)
	}
	ints := make([]int64, n)
	floats := make([]float64, n)
	sparse := make([]float64, n)
	for i := 0; i < n; i++ {
		ints[i] = int64(rng.Intn(21) - 10)
		floats[i] = rng.NormFloat64()
		if rng.Intn(3) == 0 {
			sparse[i] = rng.NormFloat64()
		}
	}
	return rel.MustNew(name, rel.Schema{
		{Name: key, Type: bat.Int},
		{Name: name + "i", Type: bat.Int},
		{Name: name + "f", Type: bat.Float},
		{Name: name + "s", Type: bat.Float},
	}, []*bat.BAT{
		bat.FromInts(keys), bat.FromInts(ints), bat.FromFloats(floats),
		bat.FromSparse(bat.Compress(sparse)),
	})
}

// governedPeak runs one invocation on a fresh governor under the given
// workers and budget (0: unbudgeted) and returns the result and the
// tenant's arena peak.
func governedPeak(run policyRun, p Policy, workers int, budget int64) (*rel.Relation, int64, error) {
	gov := exec.NewGovernor(0, 0)
	res, err := run(&Options{
		Policy: p, Parallelism: workers, Tenant: "peak",
		MemoryBudget: budget, Governor: gov,
	})
	return res, gov.Tenant("peak", 0).PeakBytes(), err
}

// TestParallelFitsSerialBudget holds every operator to the property the
// engine relies on instead of a serial re-run: under a budget equal to
// an invocation's workers-1 peak, the same invocation at more workers
// succeeds, stays within the budget and returns the workers-1 bits. An
// operator whose parallel path needs scratch the serial one does not
// must fall back to its serial body when that scratch does not fit.
// The tall shape is past 3·SerialCutoff rows so the sorts, gathers and
// elementwise kernels fan out; ops whose result is rows×rows run on a
// 96×96 square.
func TestParallelFitsSerialBudget(t *testing.T) {
	n := 3*bat.SerialCutoff + 11
	tall := tallMixedRel("t", "Kt", n, 41)
	tall2 := tallMixedRel("u", "Ku", n, 42)
	small := randRelation(rand.New(rand.NewSource(43)), "m", 3, 2)
	rhs := randRelation(rand.New(rand.NewSource(44)), "b", n, 1)
	sq := squareRel(rand.New(rand.NewSource(45)), 96)
	spd := spdRelation(rand.New(rand.NewSource(46)), 96)
	kt, ku, kq, k := []string{"Kt"}, []string{"Ku"}, []string{"Kq"}, []string{"K"}
	ops := []struct {
		name string
		run  policyRun
	}{
		{"emu", func(o *Options) (*rel.Relation, error) { return Emu(tall, kt, tall2, ku, o) }},
		{"add", func(o *Options) (*rel.Relation, error) { return Add(tall, kt, tall2, ku, o) }},
		{"sub", func(o *Options) (*rel.Relation, error) { return Sub(tall, kt, tall2, ku, o) }},
		{"mmu", func(o *Options) (*rel.Relation, error) { return Mmu(tall, kt, small, []string{"Km"}, o) }},
		{"cpd", func(o *Options) (*rel.Relation, error) { return Cpd(tall, kt, tall2, ku, o) }},
		{"sol", func(o *Options) (*rel.Relation, error) { return Sol(tall, kt, rhs, []string{"Kb"}, o) }},
		{"qqr", func(o *Options) (*rel.Relation, error) { return Qqr(tall, kt, o) }},
		{"rqr", func(o *Options) (*rel.Relation, error) { return Rqr(tall, kt, o) }},
		{"dsv", func(o *Options) (*rel.Relation, error) { return Dsv(tall, kt, o) }},
		{"vsv", func(o *Options) (*rel.Relation, error) { return Vsv(tall, kt, o) }},
		{"rnk", func(o *Options) (*rel.Relation, error) { return Rnk(tall, kt, o) }},
		{"tra", func(o *Options) (*rel.Relation, error) { return Tra(sq, kq, o) }},
		{"opd", func(o *Options) (*rel.Relation, error) { return Opd(sq, kq, sq, kq, o) }},
		{"usv", func(o *Options) (*rel.Relation, error) { return Usv(sq, kq, o) }},
		{"inv", func(o *Options) (*rel.Relation, error) { return Inv(sq, kq, o) }},
		{"det", func(o *Options) (*rel.Relation, error) { return Det(sq, kq, o) }},
		{"evc", func(o *Options) (*rel.Relation, error) { return Evc(spd, k, o) }},
		{"evl", func(o *Options) (*rel.Relation, error) { return Evl(spd, k, o) }},
		{"chf", func(o *Options) (*rel.Relation, error) { return Chf(spd, k, o) }},
	}
	for _, tc := range ops {
		for _, p := range []Policy{PolicyBAT, PolicyDense} {
			name := fmt.Sprintf("%s %v", tc.name, p)
			want, budget, err := governedPeak(tc.run, p, 1, 0)
			if err != nil {
				t.Fatalf("%s workers=1: %v", name, err)
			}
			for _, workers := range []int{2, 8} {
				got, peak, err := governedPeak(tc.run, p, workers, budget)
				if err != nil {
					t.Errorf("%s workers=%d under its workers-1 peak %d: %v", name, workers, budget, err)
					continue
				}
				if peak > budget {
					t.Errorf("%s workers=%d: peak %d exceeds budget %d", name, workers, peak, budget)
				}
				if !relsBitwiseEqual(got, want) {
					t.Errorf("%s workers=%d: result differs from workers=1", name, workers)
				}
			}
		}
	}
}

// TestStatsAccumulateAcrossSerialFallback shares one Stats between two
// invocations, the second under a budget that makes an operator fall
// back to its serial body: the fallback is recorded, and the
// parallel-section counters and phase timings of the first invocation
// survive into the sum instead of being reset.
func TestStatsAccumulateAcrossSerialFallback(t *testing.T) {
	gov := exec.NewGovernor(0, 0)
	_, serial, err := governedAdd(1, 0, "acc-serial", gov)
	if err != nil {
		t.Fatal(err)
	}
	_, par, err := governedAdd(8, 0, "acc-par", gov)
	if err != nil {
		t.Fatal(err)
	}
	budget := (serial.Arena.PeakBytes + par.Arena.PeakBytes) / 2
	r := sparseShuffledRel("r", "ka", "va", budgetRows)
	s := sparseShuffledRel("s", "kb", "vb", budgetRows)
	st := &Stats{}
	add := func(budget int64) {
		t.Helper()
		if _, err := Add(r, []string{"ka"}, s, []string{"kb"}, &Options{
			Policy: PolicyBAT, Parallelism: 8, Tenant: "acc",
			MemoryBudget: budget, Governor: gov, Stats: st,
		}); err != nil {
			t.Fatal(err)
		}
	}
	add(0)
	first := *st
	if first.ParallelSections == 0 || first.SerialFallback {
		t.Fatalf("unbudgeted run: %d parallel sections, SerialFallback %v", first.ParallelSections, first.SerialFallback)
	}
	add(budget)
	t.Logf("sections %d -> %d, goroutines %d -> %d", first.ParallelSections, st.ParallelSections,
		first.ParallelGoroutines, st.ParallelGoroutines)
	if !st.SerialFallback {
		t.Fatal("second run under the between-peaks budget recorded no fallback")
	}
	if st.ParallelSections <= first.ParallelSections || st.ParallelGoroutines <= first.ParallelGoroutines {
		t.Fatalf("parallel counters %d sections / %d goroutines after both runs, want more than the first run's %d / %d",
			st.ParallelSections, st.ParallelGoroutines, first.ParallelSections, first.ParallelGoroutines)
	}
	if st.Context <= first.Context || st.Kernel <= first.Kernel {
		t.Fatalf("phase timings context %v kernel %v after both runs, want more than the first run's %v / %v",
			st.Context, st.Kernel, first.Context, first.Kernel)
	}
	if st.Workers != 8 {
		t.Fatalf("Workers = %d, want the configured 8", st.Workers)
	}
}
