package bat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/exec"
)

// randDense generates a dense slice with the given zero density: d = 0
// yields all zeros, d = 1 fully dense, in between a random pattern.
func randDense(rng *rand.Rand, n int, density float64) []float64 {
	f := make([]float64, n)
	for k := range f {
		if rng.Float64() < density {
			f[k] = rng.NormFloat64() * 10
		}
	}
	return f
}

// sparseDensities covers the degenerate patterns the kernels special-case
// implicitly: all-zero, fully dense, and mixtures.
func sparseDensities(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return 1
	default:
		return rng.Float64()
	}
}

// TestQuickSparseAddMatchesDense: SparseAdd densified is bitwise-equal to
// the dense elementwise sum, on randomized sparsity patterns at worker
// budgets 1, 2, and 8.
func TestQuickSparseAddMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		fa := randDense(rng, n, sparseDensities(rng))
		fb := randDense(rng, n, sparseDensities(rng))
		a, b := Compress(fa), Compress(fb)
		for _, w := range []int{1, 2, 8} {
			c := exec.New(w)
			got := SparseAdd(c, a, b).Densify(c)
			for k := range got {
				if math.Float64bits(got[k]) != math.Float64bits(fa[k]+fb[k]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSparseAddParallelBoundary drives the range-merged parallel path
// (nnz above the serial cutoff) and pins it to the serial result.
func TestSparseAddParallelBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 2*SerialCutoff + 17
	fa := randDense(rng, n, 0.7)
	fb := randDense(rng, n, 0.7)
	a, b := Compress(fa), Compress(fb)
	want := SparseAdd(exec.New(1), a, b)
	for _, w := range []int{2, 8} {
		got := SparseAdd(exec.New(w), a, b)
		if len(got.val) != len(want.val) || got.Len() != want.Len() {
			t.Fatalf("workers=%d: nnz %d/%d len %d/%d", w, len(got.val), len(want.val), got.Len(), want.Len())
		}
		for k := range want.oid {
			if got.oid[k] != want.oid[k] || math.Float64bits(got.val[k]) != math.Float64bits(want.val[k]) {
				t.Fatalf("workers=%d: entry %d differs", w, k)
			}
		}
	}
}

// TestQuickSparseGatherMatchesDense: gathering a zero-suppressed column
// equals gathering its densified form, for random index lists with
// repeats, at worker budgets 1, 2, and 8.
func TestQuickSparseGatherMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		fa := randDense(rng, n, sparseDensities(rng))
		sp := Compress(fa)
		idx := make([]int, rng.Intn(400))
		for k := range idx {
			idx[k] = rng.Intn(n)
		}
		for _, w := range []int{1, 2, 8} {
			c := exec.New(w)
			got := sp.Gather(c, idx).Densify(c)
			if len(got) != len(idx) {
				return false
			}
			for k, j := range idx {
				if math.Float64bits(got[k]) != math.Float64bits(fa[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSparseGatherDensifyParallelBoundary drives the parallel Gather and
// Densify paths above the serial cutoff and pins them to the serial output.
func TestSparseGatherDensifyParallelBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 2*SerialCutoff + 5
	fa := randDense(rng, n, 0.4)
	sp := Compress(fa)
	idx := make([]int, n+3)
	for k := range idx {
		idx[k] = rng.Intn(n)
	}
	one := exec.New(1)
	wantG := sp.Gather(one, idx).Densify(one)
	wantD := sp.Densify(one)
	for _, w := range []int{2, 8} {
		c := exec.New(w)
		bitsEqual(t, "sparse-gather", n, wantG, sp.Gather(c, idx).Densify(c))
		bitsEqual(t, "sparse-densify", n, wantD, sp.Densify(c))
	}
}

// TestSparseSumDeterministicAcrossWorkers: the chunked reduction is
// bitwise-identical at any worker budget and approximates the naive sum.
func TestSparseSumDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 3*SerialCutoff + 1
	fa := randDense(rng, n, 0.8)
	sp := Compress(fa)
	want := sp.Sum(exec.New(1))
	for _, w := range []int{2, 3, 8} {
		if got := sp.Sum(exec.New(w)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("workers=%d: %v vs %v", w, got, want)
		}
	}
	var naive float64
	for _, v := range fa {
		naive += v
	}
	if d := math.Abs(want - naive); d > 1e-9*math.Max(1, math.Abs(naive)) {
		t.Fatalf("chunked sum %v far from naive %v", want, naive)
	}
}

// TestSparseDifferentialDegenerate pins the all-zero and fully-dense
// corners explicitly (beyond the randomized coverage above).
func TestSparseDifferentialDegenerate(t *testing.T) {
	zero := Compress(make([]float64, 100))
	dense := Compress(randDense(rand.New(rand.NewSource(3)), 100, 1))
	if len(zero.val) != 0 || len(dense.val) != 100 {
		t.Fatalf("nnz: zero=%d dense=%d", len(zero.val), len(dense.val))
	}
	sum := SparseAdd(nil, zero, dense)
	for k := 0; k < 100; k++ {
		if sum.Get(k) != dense.Get(k) {
			t.Fatalf("zero+dense at %d: %v vs %v", k, sum.Get(k), dense.Get(k))
		}
	}
	if s := SparseAdd(nil, zero, zero); len(s.val) != 0 || s.Sum(nil) != 0 {
		t.Fatalf("zero+zero: nnz=%d sum=%v", len(s.val), s.Sum(nil))
	}
}
