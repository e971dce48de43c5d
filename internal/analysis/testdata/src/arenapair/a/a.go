// Positive and negative cases for the arenapair analyzer.
package a

import (
	"repro/internal/bat"
	"repro/internal/exec"
)

// EarlyReturnLeak is the canonical bug class: the error path returns
// before the buffer is freed.
func EarlyReturnLeak(c *exec.Ctx, n int, fail bool) []float64 {
	buf := c.Arena().Floats(n)
	if fail {
		return nil // want `arena buffer "buf" \(allocated at a.go:\d+\) is neither freed nor escaped`
	}
	return buf
}

// Balanced frees on the early path and escapes on the main path.
func Balanced(c *exec.Ctx, n int, fail bool) []float64 {
	buf := c.Arena().Floats(n)
	if fail {
		c.Arena().FreeFloats(buf)
		return nil
	}
	return buf
}

// DeferredFree settles every path at once.
func DeferredFree(c *exec.Ctx, n int, fail bool) float64 {
	buf := c.Arena().Floats(n)
	defer c.Arena().FreeFloats(buf)
	if fail {
		return 0
	}
	return buf[0]
}

// EscapeViaCall hands the buffer to another function: ownership moved,
// nothing to report.
func EscapeViaCall(c *exec.Ctx, n int) *bat.BAT {
	out := c.Arena().Floats(n)
	return bat.FromFloats(out)
}

// EscapeViaField stores the buffer into a struct: ownership moved.
type holder struct{ f []float64 }

func EscapeViaField(c *exec.Ctx, h *holder, n int) {
	h.f = c.Arena().Floats(n)
}

// ImplicitReturnLeak falls off the end of the function with the buffer
// still live.
func ImplicitReturnLeak(c *exec.Ctx, n int) {
	buf := c.Arena().Ints(n)
	for i := range buf {
		buf[i] = i
	}
} // want `arena buffer "buf" \(allocated at a.go:\d+\) is neither freed nor escaped`

// AliasFree frees through a re-slice alias: the root is settled.
func AliasFree(c *exec.Ctx, n int) {
	buf := c.Arena().Floats(n)
	head := buf[:n/2]
	_ = head[0]
	c.Arena().FreeFloats(buf)
}

// SharedPair draws from and frees into the shared arena directly.
func SharedPair(n int, fail bool) float64 {
	buf := exec.Shared().Floats(n)
	if fail {
		return 0 // want `arena buffer "buf"`
	}
	exec.Shared().FreeFloats(buf)
	return 0
}

// ReleaseViaBAT retires a conversion view through BAT.ReleaseFloats.
func ReleaseViaBAT(c *exec.Ctx, b *bat.BAT, n int) {
	view := c.Arena().Floats(n)
	b.ReleaseFloats(c, view)
}

// BranchBothFree frees in both arms: nothing live after the if.
func BranchBothFree(c *exec.Ctx, n int, cond bool) {
	buf := c.Arena().Floats(n)
	if cond {
		c.Arena().FreeFloats(buf)
	} else {
		exec.Shared().FreeFloats(buf)
	}
}

// BranchOneLeaks frees only in one arm; the other path reaches the
// return with the buffer live.
func BranchOneLeaks(c *exec.Ctx, n int, cond bool) (err error) {
	buf := c.Arena().Floats(n)
	if cond {
		c.Arena().FreeFloats(buf)
	}
	return nil // want `arena buffer "buf"`
}

// LoopEscape appends each loop allocation into an outer collection:
// every buffer escapes.
func LoopEscape(c *exec.Ctx, n int) [][]float64 {
	var bufs [][]float64
	for i := 0; i < n; i++ {
		b := c.Arena().Floats(n)
		bufs = append(bufs, b)
	}
	return bufs
}

// ClosureCapture hands the buffer to a parallel body: captured, so the
// walk treats it as escaped.
func ClosureCapture(c *exec.Ctx, n int) {
	out := c.Arena().Floats(n)
	c.ParallelFor(n, 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			out[k] = float64(k)
		}
	})
}

// DeferClose settles everything drawn from the arena.
func DeferClose(c *exec.Ctx, n int, fail bool) error {
	a := exec.Shared()
	defer a.Close()
	buf := a.Floats(n)
	if fail {
		return nil
	}
	_ = buf[0]
	return nil
}
