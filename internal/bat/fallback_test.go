package bat

import (
	"math"
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
