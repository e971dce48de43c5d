package bat

import "repro/internal/exec"

// MorselSize is the row count of one streaming batch: small enough that
// a morsel of a few columns stays cache-resident and cheap to buffer,
// large enough to amortize per-batch overhead. Streaming operators in
// internal/sql pull batches of up to this many rows; correctness never
// depends on the value (operators split work at SerialCutoff-aligned
// chunk edges independently of morsel boundaries).
const MorselSize = 4096

// Batch is one morsel of a streamed statement: a set of equally long
// column vectors. Columns are either zero-copy views into base table
// storage (owned=false) or arena-drawn buffers produced by an operator
// (owned=true); Release hands the owned ones back so peak memory tracks
// batches in flight, not everything ever produced.
type Batch struct {
	cols  []*Vector
	owned []bool
	n     int
}

// NewBatch returns an empty batch of n rows awaiting AddCol.
func NewBatch(n int) *Batch { return &Batch{n: n} }

// Len returns the batch's row count.
func (b *Batch) Len() int { return b.n }

// NumCols returns the number of columns added so far.
func (b *Batch) NumCols() int { return len(b.cols) }

// Col returns column k.
func (b *Batch) Col(k int) *Vector { return b.cols[k] }

// AddCol appends a column. owned marks arena-drawn buffers the batch is
// responsible for releasing; views into storage that outlives the
// statement pass false, so a consumer may keep them past the batch.
func (b *Batch) AddCol(v *Vector, owned bool) {
	b.cols = append(b.cols, v)
	b.owned = append(b.owned, owned)
}

// Owned reports whether column k is a buffer the batch releases, as
// opposed to a view of longer-lived storage.
func (b *Batch) Owned(k int) bool { return b.owned[k] }

// Bytes returns the accounted size of the batch's owned columns — the
// bytes Release will hand back. View columns cost nothing; they alias
// storage that outlives the batch.
func (b *Batch) Bytes() int64 {
	var total int64
	for k, v := range b.cols {
		if !b.owned[k] {
			continue
		}
		switch v.typ {
		case Float:
			total += int64(cap(v.f)) * 8
		case Int:
			total += int64(cap(v.i)) * 8
		case String:
			total += int64(cap(v.s)) * 16
		}
	}
	return total
}

// Release returns the batch's owned column buffers to the context's
// arena. The batch (and any views derived from it) must not be used
// afterwards. Nil-safe.
func (b *Batch) Release(c *exec.Ctx) {
	if b == nil {
		return
	}
	for k, v := range b.cols {
		if !b.owned[k] {
			continue
		}
		switch v.typ {
		case Float:
			c.Arena().FreeFloats(v.f)
		case Int:
			c.Arena().FreeInt64s(v.i)
		case String:
			c.Arena().FreeStrings(v.s)
		}
	}
	b.cols, b.owned = nil, nil
}

// View returns a zero-copy sub-vector over rows [lo, hi). The view
// shares the backing slice; it must not outlive the vector's buffer.
func (v *Vector) View(lo, hi int) *Vector {
	out := &Vector{typ: v.typ}
	switch v.typ {
	case Float:
		out.f = v.f[lo:hi]
	case Int:
		out.i = v.i[lo:hi]
	case String:
		out.s = v.s[lo:hi]
	}
	return out
}
