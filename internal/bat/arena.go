package bat

import "repro/internal/exec"

// The buffer arena lives in package exec: every Ctx carries an arena
// handle (Ctx.Arena; a nil Ctx means the shared arena), and kernels draw
// their outputs from it.
//
// Governed queries carry an accounted arena instead (exec.Tenant's
// NewArena): every allocation a kernel makes through its Ctx is then
// charged against the tenant's memory budget, and an allocation that
// cannot fit unwinds the kernel as a typed panic that the nearest
// error-returning caller converts to exec.ErrMemoryBudget (see
// exec.CatchBudget). Kernels themselves need no budget awareness —
// which is why the BAT kernel signatures are unchanged — but they must
// route every buffer through the arena for the accounting to hold,
// and release dead buffers (bat.Release, Arena.FreeInts) so budgeted
// queries do not pay twice for scratch that could have been recycled.

// Release returns a BAT's dense tail to the arena of c. The caller
// asserts sole ownership of the BAT; neither it nor any slice obtained
// from it may be used afterwards. Float, int64, and string tails are all
// recycled (sparse tails are left to the garbage collector). This is the
// retirement half of the kernel contract: every kernel output came from
// the context's arena, so the iterative algorithms in package batlin
// release superseded columns to keep their working set flat across
// iterations. On an accounted arena the release also uncharges the
// tail's bytes from the tenant's budget — after verifying through the
// arena's ledger that the tail was actually drawn from this arena, so a
// column migrating in from elsewhere cannot corrupt the byte count.
func Release(c *exec.Ctx, b *BAT) {
	if b == nil || b.vec == nil {
		return
	}
	a := c.Arena()
	switch b.vec.typ {
	case Float:
		f := b.vec.f
		b.vec.f = nil
		a.FreeFloats(f)
	case Int:
		xs := b.vec.i
		b.vec.i = nil
		a.FreeInt64s(xs)
	case String:
		ss := b.vec.s
		b.vec.s = nil
		a.FreeStrings(ss)
	}
}
