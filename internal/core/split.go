package core

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/exec"
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
	idx, err := a.keyPerm(c)
	if err != nil {
		return err
	}
	a.perm = idx
	a.sorted = true
	return nil
}

// keyPerm returns the permutation that sorts the rows by the order
// schema, having verified that the order schema is a key; one
// bat.KeyIndex call does both.
func (a *argument) keyPerm(c *exec.Ctx) ([]int, error) {
	idx, key := bat.KeyIndex(c, a.orderCols)
	if !key {
		c.Arena().FreeInts(idx)
		return nil, fmt.Errorf("rma: order schema %v of %s is not a key", a.orderSchema.Names(), a.rel.Name)
	}
	return idx, nil
}

// rows returns |r|.
func (a *argument) rows() int { return a.rel.NumRows() }

// ordered reports whether the rows are already in operation order, so
// the columns can be read as they are.
func (a *argument) ordered() bool {
	return a.perm == nil || bat.IsSortedIndex(a.perm)
}

// readPerm is the permutation a kernel reads the columns through to see
// them in operation order: nil when they already are.
func (a *argument) readPerm() []int {
	if a.ordered() {
		return nil
	}
	return a.perm
}

// orderedOrderCols returns the order part gathered into operation order
// (X in Algorithm 1 for shape (r,·) operations).
func (a *argument) orderedOrderCols(c *exec.Ctx) []*bat.BAT {
	return a.gathered(c, a.orderCols)
}

// orderedAppCols returns the application part gathered into operation
// order (Y in Algorithm 1) — the no-copy µ constructor of the BAT
// execution path and of the dense products.
func (a *argument) orderedAppCols(c *exec.Ctx) []*bat.BAT {
	return a.gathered(c, a.appCols)
}

// gathered returns cols as they are when the rows are in operation
// order, and gathered through the permutation otherwise.
func (a *argument) gathered(c *exec.Ctx, cols []*bat.BAT) []*bat.BAT {
	if a.ordered() {
		return cols
	}
	out := make([]*bat.BAT, len(cols))
	for k, col := range cols {
		out[k] = col.Gather(c, a.perm)
	}
	return out
}

// floatCols is µ_Ū(r) for the dense products (MMU, CPD, OPD), which only
// read their operands: the ordered application columns as float
// slices. A dense float column in operation order is read in place; a
// permuted column is gathered once, and an Int or sparse one converted
// once, into the context's arena. release hands every such copy back
// once the kernel has read it.
func (a *argument) floatCols(c *exec.Ctx) (fs [][]float64, release func(), err error) {
	cols := a.orderedAppCols(c)
	fs = make([][]float64, len(cols))
	release = func() {
		for k, col := range cols {
			col.ReleaseFloats(c, fs[k])
			if col != a.appCols[k] {
				bat.Release(c, col) // a gathered copy
			}
		}
	}
	for k, col := range cols {
		if fs[k], err = col.FloatsCtx(c); err != nil {
			release()
			return nil, nil, fmt.Errorf("rma: %v", err)
		}
	}
	return fs, release, nil
}

// workCols is µ_Ū(r) for the dense kernels other than the products:
// they factor, rotate or rewrite their operand in place, so it is the
// ordered application part copied once, column by column, into columns
// drawn from the context's arena — the "copy BATs to an MKL compatible
// format" step whose cost Figure 14 measures. The op alone picks the
// constructor, never the operand size. The copy is column-parallel when
// every tail is a dense float column (bat.ColumnFor).
func (a *argument) workCols(c *exec.Ctx) ([][]float64, error) {
	perm := a.readPerm()
	v := make([][]float64, len(a.appCols))
	for j := range v {
		v[j] = c.Arena().Floats(a.rows())
	}
	errs := make([]error, len(v))
	bat.ColumnFor(c, len(v), func(lo, hi int) {
		for j := lo; j < hi; j++ {
			col := a.appCols[j]
			f, err := col.FloatsCtx(c)
			if err != nil {
				errs[j] = err
				continue
			}
			if perm == nil {
				copy(v[j], f)
			} else {
				for i, p := range perm {
					v[j][i] = f[p]
				}
			}
			col.ReleaseFloats(c, f)
		}
	}, a.appCols)
	for _, err := range errs {
		if err != nil {
			freeCols(c, v)
			return nil, fmt.Errorf("rma: %v", err)
		}
	}
	return v, nil
}

// freeCols hands columns drawn from the context's arena back to it.
func freeCols(c *exec.Ctx, cols [][]float64) {
	for _, col := range cols {
		c.Arena().FreeFloats(col)
	}
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
		// Names must be sorted even when row sorting was optimized away;
		// the permutation is not kept, so the rows stay as they are.
		var err error
		if perm, err = a.keyPerm(c); err != nil {
			return nil, err
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

// floatSchema builds a schema of float attributes with the given names.
func floatSchema(names []string) rel.Schema {
	s := make(rel.Schema, len(names))
	for k, n := range names {
		s[k] = rel.Attr{Name: n, Type: bat.Float}
	}
	return s
}
