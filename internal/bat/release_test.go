package bat

import (
	"testing"

	"repro/internal/exec"
)

// TestKernelsReleaseConversionBuffers is the regression test for the
// ROADMAP accounting gap: elementwise kernels convert int and sparse
// tails to float views through the arena, and must hand those views
// back instead of leaving them charged to the tenant until arena
// close. After running every kernel over int and sparse inputs and
// releasing the outputs, the tenant's live byte count must be zero.
func TestKernelsReleaseConversionBuffers(t *testing.T) {
	n := 1000
	ints := make([]int64, n)
	dense := make([]float64, n)
	for k := 0; k < n; k++ {
		ints[k] = int64(k%7) - 3
		dense[k] = float64(k%13) * 0.5
	}
	spDense := make([]float64, n)
	for k := 0; k < n; k += 17 {
		spDense[k] = float64(k)*0.25 + 1
	}
	sp := Compress(spDense)

	inputs := map[string]func() *BAT{
		"int":    func() *BAT { return FromInts(ints) },
		"sparse": func() *BAT { return FromSparse(sp) },
	}
	for name, mk := range inputs {
		t.Run(name, func(t *testing.T) {
			g := exec.NewGovernor(0, 0)
			tn := g.Tenant("release-"+name, 0)
			a := tn.NewArena()
			c := exec.NewCtx(2, a, nil)

			b, x := mk(), FromFloats(dense)
			free := func(r *BAT) {
				if r.IsSparse() {
					return
				}
				if r.Type() == Float {
					c.Arena().FreeFloats(r.Vector().Floats())
				}
			}

			free(Add(c, b, nil, x, nil))
			free(Add(c, x, nil, b, nil)) // conversion on the right operand
			free(Add(c, b, nil, b, nil)) // aliased operands: two distinct views
			free(Sub(c, b, nil, x, nil))
			free(Mul(c, b, nil, x, nil))
			free(AddScalar(c, b, 1.5))
			free(MulScalar(c, b, 2.0))
			free(DivScalar(c, b, 4.0))
			dst := c.Arena().Floats(n)
			clear(dst)
			AXPYInto(c, dst, b, 0.25)
			c.Arena().FreeFloats(dst)
			_ = Sum(c, b)
			_ = Dot(c, b, x)
			_ = Dot(c, b, b)

			if live := tn.LiveBytes(); live != 0 {
				t.Fatalf("tenant live bytes after kernels = %d, want 0 (leaked conversion buffers)", live)
			}
			a.Close()
		})
	}
}
