package bat

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/exec"
)

// chunkBoundarySizes probes the parallel decomposition exactly where the
// fixed-size chunking of the kernels changes shape.
func chunkBoundarySizes() []int {
	return []int{1, 7, SerialCutoff - 1, SerialCutoff, SerialCutoff + 1, 3*SerialCutoff + 17}
}

func randomFloats(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	f := make([]float64, n)
	for k := range f {
		f[k] = rng.NormFloat64() * 100
	}
	return f
}

func bitsEqual(t *testing.T, name string, n int, serial, parallel []float64) {
	t.Helper()
	if len(serial) != len(parallel) {
		t.Fatalf("%s n=%d: length %d vs %d", name, n, len(serial), len(parallel))
	}
	for k := range serial {
		if math.Float64bits(serial[k]) != math.Float64bits(parallel[k]) {
			t.Fatalf("%s n=%d: element %d differs: %v vs %v", name, n, k, serial[k], parallel[k])
		}
	}
}

// TestElementwiseBitwiseIdentical asserts that every elementwise kernel
// produces bitwise-identical tails at worker budgets 1 and 8, across
// chunk-boundary sizes. Run with -race this also exercises the parallel
// writes for data races.
func TestElementwiseBitwiseIdentical(t *testing.T) {
	kernels := []struct {
		name string
		run  func(x *exec.Ctx, b, c *BAT) *BAT
	}{
		{"add", func(x *exec.Ctx, b, c *BAT) *BAT { return Add(x, b, nil, c, nil) }},
		{"sub", func(x *exec.Ctx, b, c *BAT) *BAT { return Sub(x, b, nil, c, nil) }},
		{"mul", func(x *exec.Ctx, b, c *BAT) *BAT { return Mul(x, b, nil, c, nil) }},
		{"add-permuted", func(x *exec.Ctx, b, c *BAT) *BAT { return Add(x, b, reversed(b.Len()), c, nil) }},
		{"sub-permuted", func(x *exec.Ctx, b, c *BAT) *BAT { return Sub(x, b, nil, c, reversed(c.Len())) }},
		{"mul-permuted", func(x *exec.Ctx, b, c *BAT) *BAT { return Mul(x, b, reversed(b.Len()), c, reversed(c.Len())) }},
		{"addscalar", func(x *exec.Ctx, b, c *BAT) *BAT { return AddScalar(x, b, 2.25) }},
		{"mulscalar", func(x *exec.Ctx, b, c *BAT) *BAT { return MulScalar(x, b, -3.5) }},
		{"divscalar", func(x *exec.Ctx, b, c *BAT) *BAT { return DivScalar(x, b, 7) }},
	}
	for _, n := range chunkBoundarySizes() {
		b := FromFloats(randomFloats(n, 1))
		c := FromFloats(randomFloats(n, 2))
		for _, k := range kernels {
			serial, parallel := k.run(exec.New(1), b, c), k.run(exec.New(8), b, c)
			bitsEqual(t, k.name, n, serial.Vector().Floats(), parallel.Vector().Floats())
		}
	}
}

// reversed is the permutation that reads n rows back to front.
func reversed(n int) []int {
	p := make([]int, n)
	for k := range p {
		p[k] = n - 1 - k
	}
	return p
}

// TestReductionsBitwiseIdentical asserts that Sum and Dot — whose fixed
// chunk decomposition is combined in chunk order — are bitwise-identical
// at any worker budget.
func TestReductionsBitwiseIdentical(t *testing.T) {
	for _, n := range chunkBoundarySizes() {
		b := FromFloats(randomFloats(n, 3))
		c := FromFloats(randomFloats(n, 4))
		for _, workers := range []int{2, 3, 8} {
			one, par := exec.New(1), exec.New(workers)
			sum1, dot1 := Sum(one, b), Dot(one, b, c)
			sumP, dotP := Sum(par, b), Dot(par, b, c)
			if math.Float64bits(sum1) != math.Float64bits(sumP) {
				t.Fatalf("sum n=%d workers=%d: %v vs %v", n, workers, sum1, sumP)
			}
			if math.Float64bits(dot1) != math.Float64bits(dotP) {
				t.Fatalf("dot n=%d workers=%d: %v vs %v", n, workers, dot1, dotP)
			}
		}
	}
}

// TestGatherBitwiseIdentical covers the parallel leftfetchjoin for all
// three tail types.
func TestGatherBitwiseIdentical(t *testing.T) {
	for _, n := range chunkBoundarySizes() {
		idx := make([]int, n)
		for k := range idx {
			idx[k] = n - 1 - k
		}
		fb := FromFloats(randomFloats(n, 5))
		serial, parallel := fb.Gather(exec.New(1), idx), fb.Gather(exec.New(8), idx)
		bitsEqual(t, "gather-float", n, serial.Vector().Floats(), parallel.Vector().Floats())

		ints := make([]int64, n)
		for k := range ints {
			ints[k] = int64(k * 3)
		}
		ib := FromInts(ints)
		is, ip := ib.Gather(exec.New(1), idx), ib.Gather(exec.New(8), idx)
		for k := 0; k < n; k++ {
			if is.Vector().Ints()[k] != ip.Vector().Ints()[k] {
				t.Fatalf("gather-int n=%d: element %d differs", n, k)
			}
		}
	}
}

// TestAXPYIntoMatchesAXPY pins the in-place kernel to an AXPY computed
// one element at a time, b_k - x_k*s, at one and at eight workers.
func TestAXPYIntoMatchesAXPY(t *testing.T) {
	for _, n := range chunkBoundarySizes() {
		b := randomFloats(n, 6)
		c := FromFloats(randomFloats(n, 7))
		want := make([]float64, n)
		for k, x := range c.Vector().Floats() {
			want[k] = b[k] - x*0.75
		}
		for _, workers := range []int{1, 8} {
			dst := append([]float64(nil), b...)
			AXPYInto(exec.New(workers), dst, c, 0.75)
			bitsEqual(t, "axpyinto", n, want, dst)
		}
	}
}

// TestArenaRoundTrip checks the allocation classes of the shared arena,
// the zeroing contract of FloatsZero against recycled dirty buffers, and
// that foreign slices with non-class capacities are rejected rather than
// pooled.
func TestArenaRoundTrip(t *testing.T) {
	a := exec.Shared()
	f := a.Floats(100)
	if len(f) != 100 || cap(f) != 128 {
		t.Fatalf("Floats(100): len=%d cap=%d, want 100/128", len(f), cap(f))
	}
	for k := range f {
		f[k] = 42
	}
	a.FreeFloats(f)
	z := a.FloatsZero(100)
	for k, v := range z {
		if v != 0 {
			t.Fatalf("FloatsZero: element %d = %v after recycling a dirty buffer", k, v)
		}
	}
	a.FreeFloats(z)

	got := a.Floats(0)
	if len(got) != 0 {
		t.Fatalf("Floats(0): len=%d", len(got))
	}
	a.FreeFloats(got)
	a.FreeFloats(make([]float64, 100)) // cap 100 is no class size: must be dropped, not pooled

	idx := a.Ints(1000)
	if len(idx) != 1000 || cap(idx) != 1024 {
		t.Fatalf("Ints(1000): len=%d cap=%d", len(idx), cap(idx))
	}
	a.FreeInts(idx)
}

// TestReleaseOwnership checks Release's gating: dense tails return to
// the arena (all three domains since the per-query context refactor),
// nil and sparse BATs are no-ops, and non-class capacities are dropped.
func TestReleaseOwnership(t *testing.T) {
	Release(nil, nil)
	Release(nil, FromInts([]int64{1, 2, 3}))
	Release(nil, FromSparse(Compress([]float64{0, 1, 0})))
	b := Add(nil, FromFloats(randomFloats(200, 8)), nil, FromFloats(randomFloats(200, 9)), nil)
	Release(nil, b) // kernel output came from the arena; returns cleanly
}
