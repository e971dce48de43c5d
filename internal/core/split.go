package core

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/exec"
	"repro/internal/matrix"
	"repro/internal/rel"
)

// argument is one split argument relation of a relational matrix
// operation: the four areas of Figure 2 (order schema, order part,
// application schema, application part), plus the row permutation that
// establishes the operation's order.
type argument struct {
	rel         *rel.Relation
	orderSchema rel.Schema
	appSchema   rel.Schema
	orderCols   []*bat.BAT // in relation column order, not yet gathered
	appCols     []*bat.BAT
	perm        []int // nil means input order (sorting skipped)
	sorted      bool  // perm was computed and verified
}

// split resolves the order schema U of r and partitions schema and columns
// (the Splitting step of Algorithm 1). Every application attribute must be
// numeric; the order attributes must exist.
func split(r *rel.Relation, order []string) (*argument, error) {
	if r == nil {
		return nil, fmt.Errorf("rma: nil relation")
	}
	inOrder := make(map[string]bool, len(order))
	a := &argument{rel: r}
	for _, name := range order {
		k := r.Schema.Index(name)
		if k < 0 {
			return nil, fmt.Errorf("rma: order attribute %q not in relation %s", name, r.Name)
		}
		if inOrder[name] {
			return nil, fmt.Errorf("rma: duplicate order attribute %q", name)
		}
		inOrder[name] = true
		a.orderSchema = append(a.orderSchema, r.Schema[k])
		a.orderCols = append(a.orderCols, r.Cols[k])
	}
	for k, attr := range r.Schema {
		if inOrder[attr.Name] {
			continue
		}
		if !attr.Type.Numeric() {
			return nil, fmt.Errorf("rma: application attribute %q of %s is %v; add it to the order schema or project it away",
				attr.Name, r.Name, attr.Type)
		}
		a.appSchema = append(a.appSchema, attr)
		a.appCols = append(a.appCols, r.Cols[k])
	}
	if len(a.appSchema) == 0 {
		return nil, fmt.Errorf("rma: relation %s has an empty application schema", r.Name)
	}
	return a, nil
}

// sortArg computes the sort permutation over the order schema and verifies
// the key property (the Sorting step of Algorithm 1).
func (a *argument) sortArg(c *exec.Ctx) error {
	if len(a.orderCols) == 0 {
		// An empty order schema is permitted only for single-row inputs,
		// where order is trivially immaterial and the key is empty.
		if a.rel.NumRows() > 1 {
			return fmt.Errorf("rma: relation %s needs an order schema (BY clause)", a.rel.Name)
		}
		a.perm = bat.Identity(c, a.rel.NumRows())
		a.sorted = true
		return nil
	}
	idx := bat.SortIndex(c, a.orderCols)
	if !bat.KeyUnique(a.orderCols, idx) {
		return fmt.Errorf("rma: order schema %v of %s is not a key", a.orderSchema.Names(), a.rel.Name)
	}
	a.perm = idx
	a.sorted = true
	return nil
}

// rows returns |r|.
func (a *argument) rows() int { return a.rel.NumRows() }

// orderedOrderCols returns the order part gathered into operation order
// (X in Algorithm 1 for shape (r,·) operations).
func (a *argument) orderedOrderCols(c *exec.Ctx) []*bat.BAT {
	out := make([]*bat.BAT, len(a.orderCols))
	for k, col := range a.orderCols {
		if a.perm == nil || bat.IsSortedIndex(a.perm) {
			out[k] = col
		} else {
			out[k] = col.Gather(c, a.perm)
		}
	}
	return out
}

// orderedAppCols returns the application part gathered into operation
// order (Y in Algorithm 1) — the no-copy µ constructor used by the BAT
// execution path.
func (a *argument) orderedAppCols(c *exec.Ctx) []*bat.BAT {
	out := make([]*bat.BAT, len(a.appCols))
	for k, col := range a.appCols {
		if a.perm == nil || bat.IsSortedIndex(a.perm) {
			out[k] = col
		} else {
			out[k] = col.Gather(c, a.perm)
		}
	}
	return out
}

// toMatrix is the matrix constructor µ_Ū(r) for the dense ops whose
// kernels run on one contiguous row-major array — every dense op but
// MMU, CPD, QQR and RQR, which take toBlockMatrix: it copies the
// application part, ordered by the permutation, into that array (the
// "copy BATs to an MKL compatible format" step whose cost Figure 14
// measures). The op alone picks the constructor, never the operand
// size. The copy-in is column-parallel (bat.ColumnFor): each source
// column scatters into a distinct stride of the row-major array, so the
// writes are disjoint. The backing array is drawn from the context's
// arena — every cell is overwritten below — and handed back with
// releaseMatrix once the kernel has consumed the operand.
func (a *argument) toMatrix(c *exec.Ctx) (*matrix.Matrix, error) {
	m := a.rows()
	n := len(a.appCols)
	out := &matrix.Matrix{Rows: m, Cols: n, Data: c.Arena().Floats(m * n)}
	errs := make([]error, n)
	bat.ColumnFor(c, n, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			f, err := a.appCols[j].FloatsCtx(c)
			if err != nil {
				errs[j] = err
				continue
			}
			if a.perm == nil {
				for i := 0; i < m; i++ {
					out.Data[i*n+j] = f[i]
				}
			} else {
				for i, p := range a.perm {
					out.Data[i*n+j] = f[p]
				}
			}
			a.appCols[j].ReleaseFloats(c, f)
		}
	}, a.appCols)
	for _, err := range errs {
		if err != nil {
			releaseMatrix(c, out)
			return nil, fmt.Errorf("rma: %v", err)
		}
	}
	return out, nil
}

// releaseMatrix returns a toMatrix backing array to the context's arena
// once the dense kernel has consumed the operand (the kernels never alias
// their inputs into their results). The matrix must not be used
// afterwards.
func releaseMatrix(c *exec.Ctx, m *matrix.Matrix) {
	if m == nil || m.Data == nil {
		return
	}
	data := m.Data
	m.Data = nil
	c.Arena().FreeFloats(data)
}

// toBlockMatrix is µ_Ū(r) for the tiled kernels of MMU, CPD, QQR and
// RQR: it materializes the ordered application part directly into
// matrix.TileEdge tiles. Each tile is arena-charged individually, so a
// huge operand never needs one contiguous allocation. Tiles are filled
// in parallel; writes are disjoint per tile.
func (a *argument) toBlockMatrix(c *exec.Ctx) (*matrix.BlockMatrix, error) {
	m := a.rows()
	n := len(a.appCols)
	fcols := make([][]float64, n)
	for j, col := range a.appCols {
		f, err := col.FloatsCtx(c)
		if err != nil {
			for k := 0; k < j; k++ {
				a.appCols[k].ReleaseFloats(c, fcols[k])
			}
			return nil, fmt.Errorf("rma: %v", err)
		}
		fcols[j] = f
	}
	out := matrix.NewBlock(m, n)
	edge := out.Edge
	c.ParallelFor(out.TileRows()*out.TileCols(), 1, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			ti, tj := t/out.TileCols(), t%out.TileCols()
			h, w := out.TileDims(ti, tj)
			buf := out.Tile(c, ti, tj)
			for r := 0; r < h; r++ {
				src := ti*edge + r
				if a.perm != nil {
					src = a.perm[src]
				}
				row := buf[r*w : (r+1)*w]
				for l := range row {
					row[l] = fcols[tj*edge+l][src]
				}
			}
		}
	})
	for j, f := range fcols {
		a.appCols[j].ReleaseFloats(c, f)
	}
	return out, nil
}

// blockToCols converts a blocked base result back into one BAT per
// column, reading each tile once per column. The inverse of
// toBlockMatrix for the copy-back half.
func blockToCols(c *exec.Ctx, bm *matrix.BlockMatrix) []*bat.BAT {
	out := make([]*bat.BAT, bm.Cols)
	c.ParallelFor(bm.Cols, 1, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			col := c.Arena().Floats(bm.Rows)
			tj, lj := j/bm.Edge, j%bm.Edge
			for ti := 0; ti < bm.TileRows(); ti++ {
				buf := bm.Tile(c, ti, tj)
				h, w := bm.TileDims(ti, tj)
				base := ti * bm.Edge
				for r := 0; r < h; r++ {
					col[base+r] = buf[r*w+lj]
				}
			}
			out[j] = bat.FromFloats(col)
		}
	})
	return out
}

// columnCast is ▽U: the sorted values of a single-attribute order schema,
// rendered as strings, used as attribute names of result application
// schemas (usv, opd, tra). The key property guarantees uniqueness.
func (a *argument) columnCast(c *exec.Ctx) ([]string, error) {
	if len(a.orderCols) != 1 {
		return nil, fmt.Errorf("rma: column cast needs an order schema of cardinality one, got %v",
			a.orderSchema.Names())
	}
	perm := a.perm
	if perm == nil {
		// Names must be sorted even when row sorting was optimized away.
		perm = bat.SortIndex(c, a.orderCols)
		if !bat.KeyUnique(a.orderCols, perm) {
			return nil, fmt.Errorf("rma: order schema %v of %s is not a key",
				a.orderSchema.Names(), a.rel.Name)
		}
	}
	col := a.orderCols[0]
	names := make([]string, len(perm))
	for i, p := range perm {
		names[i] = col.Get(p).String()
	}
	return names, nil
}

// schemaCast is ∆Ū: the application schema attribute names as the values
// of the result's C attribute (tra, rqr, dsv, vsv, cpd, sol).
func (a *argument) schemaCast() []string {
	return append([]string(nil), a.appSchema.Names()...)
}

// matrixToCols converts a dense base result back into one BAT per column
// (the copy-back half of the transformation). The materialization is
// column-parallel and draws the column buffers from the context's arena.
func matrixToCols(c *exec.Ctx, m *matrix.Matrix) []*bat.BAT {
	out := make([]*bat.BAT, m.Cols)
	c.ParallelFor(m.Cols, 1, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			col := c.Arena().Floats(m.Rows)
			for i := 0; i < m.Rows; i++ {
				col[i] = m.Data[i*m.Cols+j]
			}
			out[j] = bat.FromFloats(col)
		}
	})
	return out
}

// floatSchema builds a schema of float attributes with the given names.
func floatSchema(names []string) rel.Schema {
	s := make(rel.Schema, len(names))
	for k, n := range names {
		s[k] = rel.Attr{Name: n, Type: bat.Float}
	}
	return s
}
