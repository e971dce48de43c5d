// Package plain lives outside the kernel package list: identical
// context-free allocating code that ctxfirst must ignore.
package plain

import "repro/internal/exec"

// Scale allocates without a context — legal here, since
// ctxfirst/plain is not one of the kernel packages.
func Scale(xs []float64, s float64) []float64 {
	out := exec.Shared().Floats(len(xs))
	for i, x := range xs {
		out[i] = x * s
	}
	return out
}

// Spawn starts a goroutine of its own — also legal outside the kernel
// packages.
func Spawn(xs []float64) {
	done := make(chan struct{})
	go func() {
		for k := range xs {
			xs[k] *= 2
		}
		close(done)
	}()
	<-done
}
