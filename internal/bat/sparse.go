package bat

import (
	"sort"

	"repro/internal/exec"
)

// Sparse is a zero-suppressed float column: only non-zero values are stored
// together with their OIDs (ascending). It stands in for the lightweight
// compression MonetDB applies to value-repetitive columns, which the
// paper's Table 5 experiment shows speeds up add on sparse relations.
//
// The format stays behind the RMA kernels: a BAT's sparse tail, core's
// BAT policy (package batlin) and the kernels below read it. The
// relational engine sees dense columns only: package rel densifies
// sparse keys, aggregate inputs and join payloads on read, and the SQL
// catalog densifies sparse tails once, at DB.Register.
//
// The kernels below (SparseAdd, Gather, Densify, Sum) take the
// invocation's exec.Ctx and decompose their work through its ParallelFor
// like the dense kernels in bat.go. Each one produces
// output that is uniquely determined by its inputs — merges and gathers
// concatenate per-range results in range order, and Sum reduces over fixed
// chunks combined in chunk order — so results are identical (bitwise, for
// the float payloads) at any worker budget.
type Sparse struct {
	n   int   // logical length
	oid []int // positions of the non-zero values, strictly ascending
	val []float64
}

// Compress converts a dense float slice to zero-suppressed form.
func Compress(f []float64) *Sparse {
	nnz := 0
	for _, x := range f {
		if x != 0 {
			nnz++
		}
	}
	sp := &Sparse{n: len(f), oid: make([]int, 0, nnz), val: make([]float64, 0, nnz)}
	for k, x := range f {
		if x != 0 {
			sp.oid = append(sp.oid, k)
			sp.val = append(sp.val, x)
		}
	}
	return sp
}

// Len returns the logical length of the column.
func (s *Sparse) Len() int { return s.n }

// Get returns the value at OID k (0 when suppressed).
func (s *Sparse) Get(k int) float64 {
	i := sort.SearchInts(s.oid, k)
	if i < len(s.oid) && s.oid[i] == k {
		return s.val[i]
	}
	return 0
}

// Densify materializes the column as a dense slice. The buffer comes from
// the context's arena; the zero-fill and the non-zero scatter are both
// decomposed over the context's workers (scatter positions are distinct,
// so the writes are disjoint).
func (s *Sparse) Densify(c *exec.Ctx) []float64 {
	out := c.Arena().Floats(s.n)
	if c.Serial(s.n) {
		clear(out)
	} else {
		c.ParallelFor(s.n, SerialCutoff, func(lo, hi int) {
			clear(out[lo:hi])
		})
	}
	if c.Serial(len(s.oid)) {
		for i, k := range s.oid {
			out[k] = s.val[i]
		}
	} else {
		c.ParallelFor(len(s.oid), SerialCutoff, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[s.oid[i]] = s.val[i]
			}
		})
	}
	return out
}

// Sum returns the sum of all values, accumulating over fixed-size chunks
// combined in chunk order (bitwise-identical at any worker budget).
func (s *Sparse) Sum(c *exec.Ctx) float64 {
	if len(s.val) <= SerialCutoff { // single chunk: skip the closure
		var t float64
		for _, x := range s.val {
			t += x
		}
		return t
	}
	return c.Reduce(len(s.val), func(lo, hi int) float64 {
		var t float64
		for k := lo; k < hi; k++ {
			t += s.val[k]
		}
		return t
	})
}

// Clone deep-copies the column.
func (s *Sparse) Clone() *Sparse {
	return &Sparse{
		n:   s.n,
		oid: append([]int(nil), s.oid...),
		val: append([]float64(nil), s.val...),
	}
}

// Gather applies a positional fetch. The result stays zero-suppressed.
// Ranges of the index list are gathered in parallel and concatenated in
// range order.
func (s *Sparse) Gather(c *exec.Ctx, idx []int) *Sparse {
	out := &Sparse{n: len(idx)}
	if !c.Serial(len(idx)) {
		runs, size := c.ParallelRuns(len(idx))
		off := make([]int, runs+1)
		for r := range off {
			off[r] = min(r*size, len(idx))
		}
		if stageRuns(c, out, off, func(r int, part *Sparse) { s.gatherAppend(part, off[r], idx[off[r]:off[r+1]]) }) {
			return out
		}
	}
	s.gatherAppend(out, 0, idx)
	return out
}

// permuted is s read through the permutation p: s itself when p is nil,
// s↓p otherwise.
func (s *Sparse) permuted(c *exec.Ctx, p []int) *Sparse {
	if p == nil {
		return s
	}
	return s.Gather(c, p)
}

// gatherAppend is Gather of one piece: it appends the non-zero values
// s[idx[k]] to t at OIDs at+k; t's OIDs must lie below at.
func (s *Sparse) gatherAppend(t *Sparse, at int, idx []int) {
	for k, j := range idx {
		if x := s.Get(j); x != 0 {
			t.oid = append(t.oid, at+k)
			t.val = append(t.val, x)
		}
	}
}

// SparseAdd adds two zero-suppressed columns without densifying: a merge
// over the non-zero positions. Runtime is O(nnz(a)+nnz(b)), which is what
// makes add on sparse relations faster than on dense ones (Table 5). The
// result has a's logical length; like the dense kernels, the columns are
// expected to be equally long, and OIDs of b beyond a's length are dropped
// on both the serial and the parallel path. Above the serial cutoff the
// OID domain is split into ranges merged in parallel and concatenated in
// range order; the merge result is unique, so the output is independent of
// the worker budget.
func SparseAdd(c *exec.Ctx, a, b *Sparse) *Sparse {
	out := &Sparse{n: a.n}
	if !c.Serial(len(a.oid) + len(b.oid)) {
		runs, size := c.ParallelRuns(a.n)
		ai, bi := make([]int, runs+1), make([]int, runs+1)
		off := make([]int, runs+1)
		for r := range off {
			lo := min(r*size, a.n)
			ai[r], bi[r] = sort.SearchInts(a.oid, lo), sort.SearchInts(b.oid, lo)
			off[r] = ai[r] + bi[r]
		}
		if stageRuns(c, out, off, func(r int, part *Sparse) {
			mergeSparse(part, a, ai[r], ai[r+1], b, bi[r], bi[r+1])
		}) {
			return out
		}
	}
	mergeSparse(out, a, 0, len(a.oid), b, 0, sort.SearchInts(b.oid, a.n))
	return out
}

// stageRuns runs fill in parallel over the runs of a sparse kernel whose
// run r emits at most off[r+1]-off[r] entries, each into its own arena
// staging pair, and concatenates the runs into out. The staging is what
// the serial kernel does not need, so when the budget refuses it
// stageRuns records the fallback and reports false, holding and emitting
// nothing, for the caller to run its serial body.
func stageRuns(c *exec.Ctx, out *Sparse, off []int, fill func(r int, part *Sparse)) bool {
	ar := c.Arena()
	parts := make([]Sparse, len(off)-1)
	release := func(parts []Sparse) {
		for r := range parts {
			ar.FreeInts(parts[r].oid)
			ar.FreeFloats(parts[r].val)
		}
	}
	for r := range parts {
		if parts[r].oid = ar.TryInts(off[r+1] - off[r]); parts[r].oid != nil {
			parts[r].val = ar.TryFloats(off[r+1] - off[r])
		}
		if parts[r].val == nil {
			release(parts[:r+1])
			c.NoteSerialFallback()
			return false
		}
		parts[r].oid, parts[r].val = parts[r].oid[:0], parts[r].val[:0]
	}
	c.ParallelFor(len(parts), 1, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			fill(r, &parts[r])
		}
	})
	n := 0
	for r := range parts {
		n += len(parts[r].oid)
	}
	out.oid = make([]int, 0, n)
	out.val = make([]float64, 0, n)
	for r := range parts {
		out.oid = append(out.oid, parts[r].oid...)
		out.val = append(out.val, parts[r].val...)
	}
	release(parts)
	return true
}

// mergeSparse merges a.oid[ai:aj] with b.oid[bi:bj] into out, summing
// values on shared OIDs and suppressing exact-zero results.
func mergeSparse(out *Sparse, a *Sparse, ai, aj int, b *Sparse, bi, bj int) {
	i, j := ai, bi
	for i < aj && j < bj {
		switch {
		case a.oid[i] < b.oid[j]:
			out.oid = append(out.oid, a.oid[i])
			out.val = append(out.val, a.val[i])
			i++
		case a.oid[i] > b.oid[j]:
			out.oid = append(out.oid, b.oid[j])
			out.val = append(out.val, b.val[j])
			j++
		default:
			if v := a.val[i] + b.val[j]; v != 0 {
				out.oid = append(out.oid, a.oid[i])
				out.val = append(out.val, v)
			}
			i++
			j++
		}
	}
	for ; i < aj; i++ {
		out.oid = append(out.oid, a.oid[i])
		out.val = append(out.val, a.val[i])
	}
	for ; j < bj; j++ {
		out.oid = append(out.oid, b.oid[j])
		out.val = append(out.val, b.val[j])
	}
}
