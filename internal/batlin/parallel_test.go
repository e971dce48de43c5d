package batlin

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/exec"
)

func randomCols(rows, cols int, seed int64) []*bat.BAT {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*bat.BAT, cols)
	for j := range out {
		f := make([]float64, rows)
		for k := range f {
			f[k] = rng.NormFloat64() * 10
		}
		out[j] = bat.FromFloats(f)
	}
	return out
}

func colsBitsEqual(t *testing.T, name string, rows int, serial, parallel []*bat.BAT) {
	t.Helper()
	if len(serial) != len(parallel) {
		t.Fatalf("%s rows=%d: %d vs %d columns", name, rows, len(serial), len(parallel))
	}
	for j := range serial {
		sf, pf := serial[j].Vector().Floats(), parallel[j].Vector().Floats()
		for k := range sf {
			if math.Float64bits(sf[k]) != math.Float64bits(pf[k]) {
				t.Fatalf("%s rows=%d: column %d element %d differs: %v vs %v",
					name, rows, j, k, sf[k], pf[k])
			}
		}
	}
}

// TestColumnKernelsBitwiseIdentical asserts that the column-parallel
// Add/Sub/EMU/MMU/Tra produce bitwise-identical results at worker budgets
// 1 and 8, across row counts straddling the kernels' serial cutoff. Under
// -race this doubles as the data-race check for the column fan-out nested
// inside the row-parallel kernels.
func TestColumnKernelsBitwiseIdentical(t *testing.T) {
	for _, rows := range []int{bat.SerialCutoff - 1, bat.SerialCutoff, bat.SerialCutoff + 1} {
		const k = 5
		a := randomCols(rows, k, int64(rows))
		b := randomCols(rows, k, int64(rows)+1)
		sq := randomCols(k, 3, int64(rows)+2) // k×3 right operand for MMU

		run := func(name string, f func(c *exec.Ctx) ([]*bat.BAT, error)) {
			serial, err1 := f(exec.New(1))
			parallel, err2 := f(exec.New(8))
			if err1 != nil || err2 != nil {
				t.Fatalf("%s rows=%d: %v / %v", name, rows, err1, err2)
			}
			colsBitsEqual(t, name, rows, serial, parallel)
		}
		run("add", func(c *exec.Ctx) ([]*bat.BAT, error) { return Add(c, a, nil, b, nil) })
		run("sub", func(c *exec.Ctx) ([]*bat.BAT, error) { return Sub(c, a, nil, b, nil) })
		run("emu", func(c *exec.Ctx) ([]*bat.BAT, error) { return EMU(c, a, nil, b, nil) })
		run("mmu", func(c *exec.Ctx) ([]*bat.BAT, error) { return MMU(c, a, sq) })
		run("tra", func(c *exec.Ctx) ([]*bat.BAT, error) { return Tra(c, a), nil })
	}
}

// TestInvDetParallelFanOut runs the elimination fan-out of Algorithm 2 at
// several worker budgets and checks the results agree with the serial
// path to rounding (pivoting decisions are scalar and identical, and each
// column update is elementwise, so the agreement is in fact bitwise).
func TestInvDetParallelFanOut(t *testing.T) {
	n := 24
	a := randomCols(n, n, 99)
	one, par := exec.New(1), exec.New(8)
	invSerial, err1 := Inv(one, a)
	detSerial, err2 := Det(one, a)
	invParallel, err3 := Inv(par, a)
	detParallel, err4 := Det(par, a)
	for _, err := range []error{err1, err2, err3, err4} {
		if err != nil {
			t.Fatal(err)
		}
	}
	colsBitsEqual(t, "inv", n, invSerial, invParallel)
	if math.Float64bits(detSerial) != math.Float64bits(detParallel) {
		t.Fatalf("det: %v vs %v", detSerial, detParallel)
	}
}

// TestQRScratchReuse checks that QR still produces an orthonormal Q when
// its scratch columns cycle through the arena, at a size large enough
// that released buffers are actually recycled within the loop.
func TestQRScratchReuse(t *testing.T) {
	m, n := 512, 8
	a := randomCols(m, n, 7)
	q, r, err := QR(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			got := bat.Dot(nil, q[i], q[j])
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("qᵢ·qⱼ (%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
	// Reconstruct a = q·r and compare.
	recon, err := MMU(nil, q, r)
	if err != nil {
		t.Fatal(err)
	}
	for j := range a {
		af, rf := a[j].Vector().Floats(), recon[j].Vector().Floats()
		for k := range af {
			if math.Abs(af[k]-rf[k]) > 1e-8 {
				t.Fatalf("reconstruction column %d element %d: %v vs %v", j, k, af[k], rf[k])
			}
		}
	}
}
