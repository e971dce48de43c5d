// Package bat (under the ctxfirst fixture tree) exercises the kernel
// calling convention: its import path ends in internal/bat, so every
// exported function that allocates or fans out must take *exec.Ctx
// first.
package bat

import "repro/internal/exec"

// Scale allocates through the shared arena without taking a context.
func Scale(xs []float64, s float64) []float64 { // want `exported function Scale allocates through \(\*exec\.Arena\)\.Floats`
	out := exec.Shared().Floats(len(xs))
	for i, x := range xs {
		out[i] = x * s
	}
	return out
}

// ScaleCtx is the conforming version.
func ScaleCtx(c *exec.Ctx, xs []float64, s float64) []float64 {
	out := c.Arena().Floats(len(xs))
	for i, x := range xs {
		out[i] = x * s
	}
	return out
}

// Fan fans out through a context it did not receive.
func Fan(xs []float64) { // want `exported function Fan fans out through \(\*exec\.Ctx\)\.ParallelFor`
	exec.Default().ParallelFor(len(xs), 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			xs[k] *= 2
		}
	})
}

// Forward passes a live context along without conforming itself.
func Forward(c2 *exec.Ctx, xs []float64) []float64 { // clean: first param IS a ctx
	return ScaleCtx(c2, xs, 2)
}

// ForwardHidden smuggles a context that is not the first parameter.
func ForwardHidden(xs []float64, c2 *exec.Ctx) []float64 { // want `exported function ForwardHidden forwards a non-nil context to ScaleCtx`
	return ScaleCtx(c2, xs, 2)
}

// NilWrapper delegates with an explicit nil context: the documented
// convenience idiom, allowed.
func NilWrapper(xs []float64) []float64 {
	return ScaleCtx(nil, xs, 2)
}

// Meta neither allocates nor fans out: exempt.
func Meta(xs []float64) int { return len(xs) }

// Exported methods on exported types follow the same rule.
type Column struct{ f []float64 }

func (c *Column) Double() { // want `exported method Double fans out through \(\*exec\.Ctx\)\.ParallelFor`
	exec.Default().ParallelFor(len(c.f), 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			c.f[k] *= 2
		}
	})
}

func (c *Column) DoubleCtx(ctx *exec.Ctx) {
	ctx.ParallelFor(len(c.f), 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			c.f[k] *= 2
		}
	})
}

// methods on unexported types are not API surface.
type scratch struct{ f []float64 }

func (s *scratch) Grow(n int) {
	s.f = exec.Shared().Floats(n)
}

// spawn starts its own goroutines: even unexported, a kernel fans out
// through (*exec.Ctx).ParallelFor alone.
func spawn(xs []float64) {
	done := make(chan struct{})
	go func() { // want `go statement in a kernel package: fan out through \(\*exec\.Ctx\)\.ParallelFor`
		for k := range xs {
			xs[k] *= 2
		}
		close(done)
	}()
	<-done
}

// fanOut is the conforming version.
func fanOut(c *exec.Ctx, xs []float64) {
	c.ParallelFor(len(xs), 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			xs[k] *= 2
		}
	})
}
