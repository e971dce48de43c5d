// Package bat is the fixture stub of repro/internal/bat.
package bat

import "repro/internal/exec"

type BAT struct{ f []float64 }

func FromFloats(f []float64) *BAT { return &BAT{f: f} }

func (b *BAT) Len() int { return len(b.f) }

func (b *BAT) ReleaseFloats(c *exec.Ctx, f []float64) {}

func Release(c *exec.Ctx, b *BAT) {}

// Kernel stands in for a bat kernel that allocates from the context's
// arena and returns no error: a budget overrun unwinds it as a panic.
func Kernel(c *exec.Ctx, n int) []float64 { return c.Arena().Floats(n) }

// Sum stands in for a pure reduction that still allocates scratch.
func Sum(c *exec.Ctx, xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
