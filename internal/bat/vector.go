package bat

import (
	"fmt"

	"repro/internal/exec"
)

// Vector is a dense typed column: the tail of a BAT. Exactly one of the
// backing slices is in use, selected by typ. Vectors are the unit of
// vectorized execution; all kernels in this package operate on whole
// vectors, mirroring MonetDB's column-at-a-time processing model.
type Vector struct {
	typ Type
	f   []float64
	i   []int64
	s   []string
}

// NewFloatVector wraps a float64 slice (no copy).
func NewFloatVector(f []float64) *Vector { return &Vector{typ: Float, f: f} }

// NewIntVector wraps an int64 slice (no copy).
func NewIntVector(i []int64) *Vector { return &Vector{typ: Int, i: i} }

// NewStringVector wraps a string slice (no copy).
func NewStringVector(s []string) *Vector { return &Vector{typ: String, s: s} }

// NewEmptyVector returns a vector of the given type with capacity hint n.
func NewEmptyVector(t Type, n int) *Vector {
	v := &Vector{typ: t}
	switch t {
	case Float:
		v.f = make([]float64, 0, n)
	case Int:
		v.i = make([]int64, 0, n)
	case String:
		v.s = make([]string, 0, n)
	}
	return v
}

// Type returns the domain of the vector.
func (v *Vector) Type() Type { return v.typ }

// Len returns the number of values.
func (v *Vector) Len() int {
	switch v.typ {
	case Float:
		return len(v.f)
	case Int:
		return len(v.i)
	case String:
		return len(v.s)
	}
	return 0
}

// Floats returns the backing float64 slice. It panics when the vector is
// not a Float column; callers check Type first.
func (v *Vector) Floats() []float64 {
	if v.typ != Float {
		panic(fmt.Sprintf("bat: Floats on %v vector", v.typ))
	}
	return v.f
}

// Ints returns the backing int64 slice (panics unless Type == Int).
func (v *Vector) Ints() []int64 {
	if v.typ != Int {
		panic(fmt.Sprintf("bat: Ints on %v vector", v.typ))
	}
	return v.i
}

// Strings returns the backing string slice (panics unless Type == String).
func (v *Vector) Strings() []string {
	if v.typ != String {
		panic(fmt.Sprintf("bat: Strings on %v vector", v.typ))
	}
	return v.s
}

// Get returns the value at position k.
func (v *Vector) Get(k int) Value {
	switch v.typ {
	case Float:
		return Value{Type: Float, F: v.f[k]}
	case Int:
		return Value{Type: Int, I: v.i[k]}
	case String:
		return Value{Type: String, S: v.s[k]}
	}
	return Value{}
}

// Set overwrites position k. The value type must match the vector type.
func (v *Vector) Set(k int, val Value) {
	if val.Type != v.typ {
		panic(fmt.Sprintf("bat: Set %v value into %v vector", val.Type, v.typ))
	}
	switch v.typ {
	case Float:
		v.f[k] = val.F
	case Int:
		v.i[k] = val.I
	case String:
		v.s[k] = val.S
	}
}

// Append appends a value; the type must match.
func (v *Vector) Append(val Value) {
	if val.Type != v.typ {
		panic(fmt.Sprintf("bat: Append %v value to %v vector", val.Type, v.typ))
	}
	switch v.typ {
	case Float:
		v.f = append(v.f, val.F)
	case Int:
		v.i = append(v.i, val.I)
	case String:
		v.s = append(v.s, val.S)
	}
}

// AppendVector appends all values of w (same type) to v.
func (v *Vector) AppendVector(w *Vector) {
	if w.typ != v.typ {
		panic(fmt.Sprintf("bat: AppendVector %v to %v", w.typ, v.typ))
	}
	switch v.typ {
	case Float:
		v.f = append(v.f, w.f...)
	case Int:
		v.i = append(v.i, w.i...)
	case String:
		v.s = append(v.s, w.s...)
	}
}

// Clone returns a deep copy of the vector. Float copies come from the
// shared arena so cloned scratch columns can be recycled with Release.
func (v *Vector) Clone() *Vector { return v.clone(nil) }

// clone is Clone drawing the float copy from the arena of ctx.
func (v *Vector) clone(ctx *exec.Ctx) *Vector {
	c := &Vector{typ: v.typ}
	switch v.typ {
	case Float:
		c.f = ctx.Arena().Floats(len(v.f))
		copy(c.f, v.f)
	case Int:
		c.i = append([]int64(nil), v.i...)
	case String:
		c.s = append([]string(nil), v.s...)
	}
	return c
}

// Gather returns a new vector whose k-th value is v[idx[k]]. This is
// MonetDB's leftfetchjoin: a positional fetch that reorders or filters a
// tail by a list of OIDs. The fetch is decomposed over the context's
// workers; all three tail domains draw their output from the context's
// arena.
func (v *Vector) Gather(c *exec.Ctx, idx []int) *Vector {
	out := &Vector{typ: v.typ}
	switch v.typ {
	case Float:
		out.f = c.Arena().Floats(len(idx))
		if c.Serial(len(idx)) {
			for k, j := range idx {
				out.f[k] = v.f[j]
			}
		} else {
			c.ParallelFor(len(idx), SerialCutoff, func(lo, hi int) {
				for k := lo; k < hi; k++ {
					out.f[k] = v.f[idx[k]]
				}
			})
		}
	case Int:
		out.i = c.Arena().Int64s(len(idx))
		if c.Serial(len(idx)) {
			for k, j := range idx {
				out.i[k] = v.i[j]
			}
		} else {
			c.ParallelFor(len(idx), SerialCutoff, func(lo, hi int) {
				for k := lo; k < hi; k++ {
					out.i[k] = v.i[idx[k]]
				}
			})
		}
	case String:
		out.s = c.Arena().Strings(len(idx))
		if c.Serial(len(idx)) {
			for k, j := range idx {
				out.s[k] = v.s[j]
			}
		} else {
			c.ParallelFor(len(idx), SerialCutoff, func(lo, hi int) {
				for k := lo; k < hi; k++ {
					out.s[k] = v.s[idx[k]]
				}
			})
		}
	}
	return out
}

// NewVectorCtx returns a vector of n undefined values of domain t drawn
// from the context's arena, for a kernel to fill (GatherPadded).
func NewVectorCtx(c *exec.Ctx, t Type, n int) *Vector {
	v := &Vector{typ: t}
	switch t {
	case Float:
		v.f = c.Arena().Floats(n)
	case Int:
		v.i = c.Arena().Int64s(n)
	case String:
		v.s = c.Arena().Strings(n)
	}
	return v
}

// GatherPadded is the join's leftfetchjoin: it writes v[idx[k]] to
// dst[k], and the zero value of the domain where idx[k] is -1 (the build
// side of an unmatched left-outer probe row). dst has v's domain and
// len(idx) values: a fresh NewVectorCtx for one streamed morsel, or a
// View of a whole join result at the morsel's offset.
func (v *Vector) GatherPadded(dst *Vector, idx []int) {
	switch v.typ {
	case Float:
		out := dst.f[:len(idx)]
		for k, j := range idx {
			if j >= 0 {
				out[k] = v.f[j]
			} else {
				out[k] = 0
			}
		}
	case Int:
		out := dst.i[:len(idx)]
		for k, j := range idx {
			if j >= 0 {
				out[k] = v.i[j]
			} else {
				out[k] = 0
			}
		}
	case String:
		out := dst.s[:len(idx)]
		for k, j := range idx {
			if j >= 0 {
				out[k] = v.s[j]
			} else {
				out[k] = ""
			}
		}
	}
}

// AsFloats returns the column as a float64 slice on the default context,
// converting integer columns. Float columns are returned without copying;
// the second result reports whether the slice is shared with the vector
// (callers that intend to write must copy when shared is true). String
// columns yield an error at the BAT level before this is reached.
func (v *Vector) AsFloats() (vals []float64, shared bool) { return v.asFloats(nil) }

// asFloats is AsFloats on an explicit execution context.
func (v *Vector) asFloats(c *exec.Ctx) (vals []float64, shared bool) {
	switch v.typ {
	case Float:
		return v.f, true
	case Int:
		out := c.Arena().Floats(len(v.i))
		if c.Serial(len(v.i)) {
			for k, x := range v.i {
				out[k] = float64(x)
			}
		} else {
			c.ParallelFor(len(v.i), SerialCutoff, func(lo, hi int) {
				for k := lo; k < hi; k++ {
					out[k] = float64(v.i[k])
				}
			})
		}
		return out, false
	}
	panic("bat: AsFloats on string vector")
}
