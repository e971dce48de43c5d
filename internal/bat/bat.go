package bat

import (
	"fmt"

	"repro/internal/exec"
)

// BAT is a binary association table with a virtual (dense) OID head and a
// typed tail. The tail is either a dense Vector or, for float columns with
// many zeros, a zero-suppressed Sparse tail — standing in for MonetDB's
// built-in compression that the paper's Table 5 experiment exercises.
type BAT struct {
	vec *Vector
	sp  *Sparse
}

// FromVector wraps a dense vector in a BAT.
func FromVector(v *Vector) *BAT { return &BAT{vec: v} }

// FromFloats builds a dense float BAT (no copy).
func FromFloats(f []float64) *BAT { return &BAT{vec: NewFloatVector(f)} }

// FromInts builds a dense int BAT (no copy).
func FromInts(i []int64) *BAT { return &BAT{vec: NewIntVector(i)} }

// FromStrings builds a dense string BAT (no copy).
func FromStrings(s []string) *BAT { return &BAT{vec: NewStringVector(s)} }

// FromSparse wraps a zero-suppressed tail in a BAT.
func FromSparse(sp *Sparse) *BAT { return &BAT{sp: sp} }

// IsSparse reports whether the tail is zero-suppressed.
func (b *BAT) IsSparse() bool { return b.sp != nil }

// Sparse returns the zero-suppressed tail, or nil for dense BATs.
func (b *BAT) Sparse() *Sparse { return b.sp }

// Type returns the tail domain.
func (b *BAT) Type() Type {
	if b.sp != nil {
		return Float
	}
	return b.vec.Type()
}

// Len returns the number of (virtual OID, value) pairs.
func (b *BAT) Len() int {
	if b.sp != nil {
		return b.sp.Len()
	}
	return b.vec.Len()
}

// Vector returns the dense tail, densifying a sparse tail first on the
// default execution context. Use VectorCtx inside ctx-threaded operators
// so the densify runs under the invocation's budget and arena.
func (b *BAT) Vector() *Vector { return b.VectorCtx(nil) }

// VectorCtx is Vector on an explicit execution context.
func (b *BAT) VectorCtx(c *exec.Ctx) *Vector {
	if b.sp != nil {
		return NewFloatVector(b.sp.Densify(c))
	}
	return b.vec
}

// Get returns the tail value at OID k.
func (b *BAT) Get(k int) Value {
	if b.sp != nil {
		return FloatValue(b.sp.Get(k))
	}
	return b.vec.Get(k)
}

// Gather is leftfetchjoin: b↓idx returns a BAT whose k-th tail value is
// b[idx[k]], decomposed over the context's workers. Sparse tails are
// gathered without densifying.
func (b *BAT) Gather(c *exec.Ctx, idx []int) *BAT {
	if b.sp != nil {
		return FromSparse(b.sp.Gather(c, idx))
	}
	return FromVector(b.vec.Gather(c, idx))
}

// Clone deep-copies the BAT.
func (b *BAT) Clone() *BAT {
	if b.sp != nil {
		return FromSparse(b.sp.Clone())
	}
	return FromVector(b.vec.Clone())
}

// Floats returns the tail as a float64 slice (densifying sparse tails,
// converting int tails) on the default execution context. An error is
// returned for string tails. Use FloatsCtx inside ctx-threaded operators
// so the densify/convert work runs under the invocation's budget and any
// conversion buffer comes from its arena.
func (b *BAT) Floats() ([]float64, error) { return b.FloatsCtx(nil) }

// FloatsCtx is Floats on an explicit execution context.
func (b *BAT) FloatsCtx(c *exec.Ctx) ([]float64, error) {
	if b.sp != nil {
		return b.sp.Densify(c), nil
	}
	if b.vec.Type() == String {
		return nil, fmt.Errorf("bat: non-numeric column in numeric context")
	}
	f, _ := b.vec.asFloats(c)
	return f, nil
}

// ReleaseFloats hands back a buffer obtained from FloatsCtx once the
// caller is done reading it: buffers FloatsCtx drew from the context's
// arena (densified sparse tails, converted int tails) are freed, while
// views borrowed from a dense float tail are left untouched. The slice
// must not be used afterwards. Nil-safe on the buffer.
func (b *BAT) ReleaseFloats(c *exec.Ctx, f []float64) {
	if f == nil {
		return
	}
	if b.sp != nil || b.vec.Type() == Int {
		c.Arena().FreeFloats(f)
	}
}

// ColumnFor runs body over the columns [0, n) of an operator whose
// kernels read the tails in cols, fanning the columns out only when all
// of those tails are dense floats (FloatsCtx views, no buffer). A sparse
// or Int tail costs a conversion buffer per column in flight, so then
// the columns run one at a time and only the kernels in body fan out,
// over rows: the loop never holds more than the serial loop does.
func ColumnFor(c *exec.Ctx, n int, body func(lo, hi int), cols ...[]*BAT) {
	for _, cs := range cols {
		for _, b := range cs {
			if b.sp != nil || b.vec.Type() != Float {
				body(0, n)
				return
			}
		}
	}
	c.ParallelFor(n, 1, body)
}

// --- Vectorized kernels -------------------------------------------------
//
// These are the BAT operations that MonetDB's kernel exposes and that both
// the relational operators and the BAT-native linear algebra (package
// batlin) are written against: elementwise arithmetic between two tails,
// tail-scalar arithmetic, and aggregation. All of them produce new BATs.
//
// Every kernel takes the invocation's exec.Ctx first (nil is the default
// context), decomposes its row range through Ctx.ParallelFor (serial below
// SerialCutoff elements) and draws its output buffer from Ctx.Arena, so a
// caller that releases dead columns runs allocation-free in steady state.
// The reductions (Sum, Dot) accumulate over fixed-size chunks combined in
// chunk order and are therefore bitwise-reproducible at any worker budget.

func floatsOf(c *exec.Ctx, b *BAT) []float64 {
	f, err := b.FloatsCtx(c)
	if err != nil {
		panic(err)
	}
	return f
}

// arith names the operator of an elementwise kernel.
type arith uint8

const (
	opAdd arith = iota
	opSub
	opMul
)

// Add returns a + b elementwise, each operand read through its
// permutation: out[k] = a[pa[k]] + b[pb[k]], where a nil permutation
// reads that operand in row order. This is the leftfetchjoin fused into
// the kernel: a permuted operand is never gathered into a copy. When
// both tails are zero-suppressed the addition runs on the compressed
// form (the Table 5 fast path), gathering the sparse tails first.
func Add(c *exec.Ctx, a *BAT, pa []int, b *BAT, pb []int) *BAT {
	if a.sp != nil && b.sp != nil {
		return FromSparse(SparseAdd(c, a.sp.permuted(c, pa), b.sp.permuted(c, pb)))
	}
	return elementwise(c, opAdd, a, pa, b, pb)
}

// Sub returns a - b elementwise, read through the permutations as Add.
func Sub(c *exec.Ctx, a *BAT, pa []int, b *BAT, pb []int) *BAT {
	return elementwise(c, opSub, a, pa, b, pb)
}

// Mul returns a * b elementwise, read through the permutations as Add.
func Mul(c *exec.Ctx, a *BAT, pa []int, b *BAT, pb []int) *BAT {
	return elementwise(c, opMul, a, pa, b, pb)
}

// elementwise is the one dense kernel of Add, Sub and Mul: one arena
// result column, filled row-parallel, each operand read as floats
// through its permutation (nil: in row order). A permuted first operand
// is fetched into the result first and the second combined into it in a
// second pass, so each pass makes random reads into one column only,
// which keeps them cache-resident longer than reading both operands at
// once would; otherwise one pass reads the first operand in place. Either
// way every element is the one operation a[pa[k]] ∘ b[pb[k]], so the bits
// are those of gathering both operands and then combining them.
func elementwise(c *exec.Ctx, op arith, a *BAT, pa []int, b *BAT, pb []int) *BAT {
	xs, ys := floatsOf(c, a), floatsOf(c, b)
	n := len(xs)
	if pa != nil {
		n = len(pa)
	}
	out := c.Arena().Floats(n)
	c.ParallelFor(n, SerialCutoff, func(lo, hi int) {
		o, x := out[lo:hi], out[lo:hi]
		if pa == nil {
			x = xs[lo:hi]
		} else {
			for k, i := range pa[lo:hi] {
				o[k] = xs[i]
			}
		}
		switch {
		case pb == nil:
			y := ys[lo:hi]
			switch op {
			case opAdd:
				for k := range o {
					o[k] = x[k] + y[k]
				}
			case opSub:
				for k := range o {
					o[k] = x[k] - y[k]
				}
			default:
				for k := range o {
					o[k] = x[k] * y[k]
				}
			}
		case op == opAdd:
			for k, i := range pb[lo:hi] {
				o[k] = x[k] + ys[i]
			}
		case op == opSub:
			for k, i := range pb[lo:hi] {
				o[k] = x[k] - ys[i]
			}
		default:
			for k, i := range pb[lo:hi] {
				o[k] = x[k] * ys[i]
			}
		}
	})
	// Conversion views (densified sparse / converted int tails) are dead
	// once the kernel has read them; dense-float views are no-ops here.
	a.ReleaseFloats(c, xs)
	b.ReleaseFloats(c, ys)
	return FromFloats(out)
}

// AddScalar returns b + s elementwise.
func AddScalar(c *exec.Ctx, b *BAT, s float64) *BAT {
	xs := floatsOf(c, b)
	out := c.Arena().Floats(len(xs))
	if c.Serial(len(xs)) {
		for k := range xs {
			out[k] = xs[k] + s
		}
	} else {
		c.ParallelFor(len(xs), SerialCutoff, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				out[k] = xs[k] + s
			}
		})
	}
	b.ReleaseFloats(c, xs)
	return FromFloats(out)
}

// MulScalar returns b * s elementwise.
func MulScalar(c *exec.Ctx, b *BAT, s float64) *BAT {
	xs := floatsOf(c, b)
	out := c.Arena().Floats(len(xs))
	if c.Serial(len(xs)) {
		for k := range xs {
			out[k] = xs[k] * s
		}
	} else {
		c.ParallelFor(len(xs), SerialCutoff, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				out[k] = xs[k] * s
			}
		})
	}
	b.ReleaseFloats(c, xs)
	return FromFloats(out)
}

// DivScalar returns b / s elementwise.
func DivScalar(c *exec.Ctx, b *BAT, s float64) *BAT {
	xs := floatsOf(c, b)
	out := c.Arena().Floats(len(xs))
	if c.Serial(len(xs)) {
		for k := range xs {
			out[k] = xs[k] / s
		}
	} else {
		c.ParallelFor(len(xs), SerialCutoff, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				out[k] = xs[k] / s
			}
		})
	}
	b.ReleaseFloats(c, xs)
	return FromFloats(out)
}

// AXPYInto subtracts x*s elementwise into dst: dst_k -= x_k*s (the
// update step of Gauss-Jordan elimination in the paper's Algorithm 2:
// B_j <- B_j - B_i * v2). It updates in place, so accumulation chains
// (MMU, OPD) and elimination and projection loops (Inv, Det, QR) draw no
// column per step.
func AXPYInto(c *exec.Ctx, dst []float64, x *BAT, s float64) {
	ys := floatsOf(c, x)
	if c.Serial(len(dst)) {
		for k := range dst {
			dst[k] -= ys[k] * s
		}
	} else {
		c.ParallelFor(len(dst), SerialCutoff, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				dst[k] -= ys[k] * s
			}
		})
	}
	x.ReleaseFloats(c, ys)
}

// Sum aggregates the tail: sum(B).
func Sum(c *exec.Ctx, b *BAT) float64 {
	if b.sp != nil {
		return b.sp.Sum(c)
	}
	switch b.vec.Type() {
	case Float:
		xs := b.vec.Floats()
		if len(xs) <= SerialCutoff { // single chunk: skip the closure
			var s float64
			for _, v := range xs {
				s += v
			}
			return s
		}
		return c.Reduce(len(xs), func(lo, hi int) float64 {
			var s float64
			for k := lo; k < hi; k++ {
				s += xs[k]
			}
			return s
		})
	case Int:
		var si int64
		for _, x := range b.vec.Ints() {
			si += x
		}
		return float64(si)
	}
	return 0
}

// Dot returns the inner product of two tails.
func Dot(c *exec.Ctx, b, x *BAT) float64 {
	xs, ys := floatsOf(c, b), floatsOf(c, x)
	var s float64
	if len(xs) <= SerialCutoff { // single chunk: skip the closure
		for k := range xs {
			s += xs[k] * ys[k]
		}
	} else {
		s = c.Reduce(len(xs), func(lo, hi int) float64 {
			var s float64
			for k := lo; k < hi; k++ {
				s += xs[k] * ys[k]
			}
			return s
		})
	}
	b.ReleaseFloats(c, xs)
	x.ReleaseFloats(c, ys)
	return s
}

// Sel returns the i-th tail value as a float (the paper's sel(B, i) single
// element access used by Algorithm 2).
func Sel(b *BAT, i int) float64 {
	if b.sp != nil {
		return b.sp.Get(i)
	}
	return b.vec.Get(i).AsFloat()
}
