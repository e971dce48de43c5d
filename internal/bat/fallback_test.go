package bat

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/exec"
)

// TestSparseKernelsSerialFallback runs the parallel sparse gather and
// merge on an arena with no room for their per-run staging: each records
// one serial fallback, charges nothing, and returns exactly the
// workers-1 result.
func TestSparseKernelsSerialFallback(t *testing.T) {
	n := 3*SerialCutoff + 11
	a, b := make([]float64, n), make([]float64, n)
	idx := make([]int, n)
	for k := range a {
		if k%3 == 0 {
			a[k] = float64(k%97) - 48
		}
		if k%5 == 0 {
			b[k] = float64(k%89) - 44
		}
		idx[k] = (k*7 + 3) % n // 7 is coprime to n: a permutation
	}
	sa, sb := Compress(a), Compress(b)
	serial := exec.New(1)
	cases := []struct {
		name string
		run  func(c *exec.Ctx) *Sparse
	}{
		{"gather", func(c *exec.Ctx) *Sparse { return sa.Gather(c, idx) }},
		{"add", func(c *exec.Ctx) *Sparse { return SparseAdd(c, sa, sb) }},
	}
	for _, tc := range cases {
		want := tc.run(serial)
		tn := exec.NewGovernor(0, 0).Tenant(tc.name, 1)
		ar := tn.NewArena()
		st := &exec.Stats{}
		got := tc.run(exec.NewCtx(8, ar, st))
		ar.Close()
		if got.Len() != want.Len() || len(got.oid) != len(want.oid) {
			t.Fatalf("%s: %d entries of %d, want %d of %d", tc.name, len(got.oid), got.Len(), len(want.oid), want.Len())
		}
		for k := range want.oid {
			if got.oid[k] != want.oid[k] || math.Float64bits(got.val[k]) != math.Float64bits(want.val[k]) {
				t.Fatalf("%s: entry %d is (%d, %v), want (%d, %v)", tc.name, k, got.oid[k], got.val[k], want.oid[k], want.val[k])
			}
		}
		if f := st.SerialFallbacks.Load(); f != 1 {
			t.Fatalf("%s: %d serial fallbacks, want 1", tc.name, f)
		}
		if p := tn.PeakBytes(); p != 0 {
			t.Fatalf("%s: peak %d bytes under a 1-byte budget", tc.name, p)
		}
	}
}

// TestSortKeysRadixFallsBackToMerge sorts one Float key, ascending and
// descending, under the serial merge sort's own budget (the permutation
// plus an n/2-int scratch), where the radix sort's n-int scratch does
// not fit beside its result. SortKeys records one fallback, merge-sorts
// within the budget and returns the stable reference permutation.
func TestSortKeysRadixFallsBackToMerge(t *testing.T) {
	n := 3*SerialCutoff + 7
	f := make([]float64, n)
	for k := range f {
		f[k] = float64((k*7919 + 13) % n)
	}
	charge := func(m int) int64 {
		tn := exec.NewGovernor(0, 0).Tenant("charge", 0)
		a := tn.NewArena()
		defer a.Close()
		a.Ints(m)
		return tn.LiveBytes()
	}
	budget := charge(n) + charge(n/2)
	for _, desc := range []bool{false, true} {
		want := refStablePerm(n, func(a, b int) bool {
			if desc {
				return floatOrderLess(f[b], f[a])
			}
			return floatOrderLess(f[a], f[b])
		})
		tn := exec.NewGovernor(0, 0).Tenant("radix", budget)
		ar := tn.NewArena()
		st := &exec.Stats{}
		got := SortKeys(exec.NewCtx(1, ar, st), []*Vector{NewFloatVector(f)}, []bool{desc})
		permsEqual(t, "radix-fallback", n, 1, got, want)
		ar.FreeInts(got)
		ar.Close()
		if fb := st.SerialFallbacks.Load(); fb != 1 {
			t.Fatalf("desc=%v: %d fallbacks, want 1", desc, fb)
		}
		if p := tn.PeakBytes(); p > budget {
			t.Fatalf("desc=%v: peak %d exceeds budget %d", desc, p, budget)
		}
	}
}

// TestSortKeysCountingHistogramRefused sorts one Int key whose span
// (3840) is narrow enough for the radix sort's counting pass and whose
// only varying byte is its second, so the LSD path needs a single
// scatter into the result and no scratch. Unbudgeted, the counting pass
// draws its histogram beside the result. Under a budget with room for
// the result alone, the arena refuses the histogram and the sort takes
// the 8-bit LSD path instead — not the merge sort, so no fallback is
// recorded — and returns the same permutation, ASC and DESC.
func TestSortKeysCountingHistogramRefused(t *testing.T) {
	const n = 4096
	rng := rand.New(rand.NewSource(11))
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = 256 * int64(rng.Intn(16))
	}
	xs[7], xs[n-7] = 0, 3840
	charge := func(m int) int64 {
		tn := exec.NewGovernor(0, 0).Tenant("charge", 0)
		a := tn.NewArena()
		defer a.Close()
		a.Ints(m)
		return tn.LiveBytes()
	}
	for _, desc := range []bool{false, true} {
		want := refStablePerm(n, func(a, b int) bool {
			if desc {
				return xs[b] < xs[a]
			}
			return xs[a] < xs[b]
		})
		for _, tc := range []struct {
			budget, peak int64
		}{
			{0, 2 * charge(n)},
			{charge(n) + charge(n)/2, charge(n)},
		} {
			tn := exec.NewGovernor(0, 0).Tenant("counting", tc.budget)
			ar := tn.NewArena()
			st := &exec.Stats{}
			got := SortKeys(exec.NewCtx(1, ar, st), []*Vector{NewIntVector(xs)}, []bool{desc})
			permsEqual(t, "counting-refused", n, 1, got, want)
			ar.FreeInts(got)
			ar.Close()
			if fb := st.SerialFallbacks.Load(); fb != 0 {
				t.Fatalf("desc=%v budget=%d: %d fallbacks, want the radix sort to run", desc, tc.budget, fb)
			}
			if p := tn.PeakBytes(); p != tc.peak {
				t.Fatalf("desc=%v budget=%d: peak %d bytes, want %d", desc, tc.budget, p, tc.peak)
			}
		}
	}
}

// TestSortStableSerialScratch pins a serial sort's arena peak to the
// permutation plus a half-length scratch, below the two n-int buffers of a
// parallel sort, and checks what that buys: under a budget between the two
// peaks the parallel sort falls back to its serial body in place, records
// the fallback, stays within the budget and returns the same permutation.
func TestSortStableSerialScratch(t *testing.T) {
	n := 3*SerialCutoff + 7
	keys := rand.New(rand.NewSource(5)).Perm(n)
	less := func(a, b int) bool { return keys[a]/3 < keys[b]/3 }
	want := refStablePerm(n, less)
	var fallbacks int64
	sortUnder := func(workers int, budget int64) (int64, error) {
		tn := exec.NewGovernor(0, 0).Tenant("sort", budget)
		a := tn.NewArena()
		defer a.Close()
		st := &exec.Stats{}
		err := func() (err error) {
			defer exec.CatchBudget(&err)
			got := SortStable(exec.NewCtx(workers, a, st), n, less)
			permsEqual(t, "budgeted", n, workers, got, want)
			a.FreeInts(got)
			return nil
		}()
		fallbacks = st.SerialFallbacks.Load()
		return tn.PeakBytes(), err
	}
	charge := func(m int) int64 {
		tn := exec.NewGovernor(0, 0).Tenant("charge", 0)
		a := tn.NewArena()
		defer a.Close()
		a.Ints(m)
		return tn.LiveBytes()
	}
	serial, err := sortUnder(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := sortUnder(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lim := charge(n) + charge(n/2); serial > lim {
		t.Fatalf("serial sort peak %d bytes, want at most idx + n/2 ints = %d", serial, lim)
	}
	if parallel < 2*charge(n) {
		t.Fatalf("parallel sort peak %d bytes, want its two n-int buffers %d", parallel, 2*charge(n))
	}
	budget := (serial + parallel) / 2
	if peak, err := sortUnder(2, budget); err != nil || peak > budget || fallbacks == 0 {
		t.Fatalf("parallel sort under %d bytes: peak %d, err %v, %d serial fallbacks, want a fallback within the budget",
			budget, peak, err, fallbacks)
	}
	if peak, err := sortUnder(1, budget); err != nil || peak > budget {
		t.Fatalf("serial sort under %d bytes: peak %d, err %v", budget, peak, err)
	}
}

// TestSortStableSpillScratchBounded runs a two-worker sort whose tenant
// budget covers the permutation plus three quarters of it but not a second
// n-int buffer, with a spill manager at its automatic threshold attached.
// The sort holds no disk path: it must fall back to its serial body, spill
// nothing, stay within the budget and return the stable permutation.
func TestSortStableSpillScratchBounded(t *testing.T) {
	const workers = 2
	n := 16 * SerialCutoff
	rng := rand.New(rand.NewSource(3))
	keys := make([]int, n)
	for k := range keys {
		keys[k] = rng.Intn(n / 16)
	}
	less := func(a, b int) bool { return keys[a] < keys[b] }

	tn := exec.NewGovernor(0, 0).Tenant("sort-scratch", 0)
	a := tn.NewArena()
	a.Ints(n)
	idxBytes := tn.LiveBytes()
	a.Close()
	budget := idxBytes + idxBytes*3/4

	tn = exec.NewGovernor(0, 0).Tenant("sort-scratch", budget)
	a = tn.NewArena()
	defer a.Close()
	sp := exec.NewSpill(t.TempDir(), 0)
	defer sp.Cleanup()
	st := &exec.Stats{}
	c := exec.NewCtx(workers, a, st).WithSpill(sp)
	var got []int
	err := func() (err error) {
		defer exec.CatchBudget(&err)
		got = SortStable(c, n, less)
		return nil
	}()
	if err != nil {
		t.Fatalf("sort under a %d-byte budget: %v", budget, err)
	}
	if f := st.SerialFallbacks.Load(); f == 0 {
		t.Fatal("sort under a budget below two n-int buffers did not fall back to its serial body")
	}
	if s := sp.Stats(); s.SpilledBytes != 0 || s.Partitions != 0 {
		t.Fatalf("sort spilled: %+v", s)
	}
	if peak := tn.PeakBytes(); peak > budget {
		t.Fatalf("peak %d bytes over the %d-byte budget", peak, budget)
	}
	permsEqual(t, "scratch-bounded", n, workers, got, refStablePerm(n, less))
	a.FreeInts(got)
}
