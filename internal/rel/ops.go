package rel

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/exec"
)

// Gather returns the relation restricted/reordered to the given row indexes
// (the relational counterpart of leftfetchjoin across all columns),
// decomposed over the context's workers.
func (r *Relation) Gather(c *exec.Ctx, idx []int) *Relation {
	cols := make([]*bat.BAT, len(r.Cols))
	for k, col := range r.Cols {
		cols[k] = col.Gather(c, idx)
	}
	return &Relation{Name: r.Name, Schema: r.Schema, Cols: cols}
}

// Select returns σ_pred(r). The predicate sees the row index and reads
// columns through the relation; scans stay columnar for the common
// comparison shapes via the helper constructors below.
func (r *Relation) Select(c *exec.Ctx, pred func(i int) bool) *Relation {
	n := r.NumRows()
	idx := make([]int, 0, n/4+1)
	for i := 0; i < n; i++ {
		if pred(i) {
			idx = append(idx, i)
		}
	}
	return r.Gather(c, idx)
}

// FloatPred builds a vectorized predicate over one float/int column.
func (r *Relation) FloatPred(attr string, test func(float64) bool) (func(i int) bool, error) {
	c, err := r.Col(attr)
	if err != nil {
		return nil, err
	}
	f, err := c.Floats()
	if err != nil {
		return nil, fmt.Errorf("rel: predicate over non-numeric %q", attr)
	}
	return func(i int) bool { return test(f[i]) }, nil
}

// StringPred builds a predicate over one string column.
func (r *Relation) StringPred(attr string, test func(string) bool) (func(i int) bool, error) {
	c, err := r.Col(attr)
	if err != nil {
		return nil, err
	}
	if c.Type() != bat.String {
		return nil, fmt.Errorf("rel: string predicate over %v column %q", c.Type(), attr)
	}
	s := c.Vector().Strings()
	return func(i int) bool { return test(s[i]) }, nil
}

// Project returns π_attrs(r) preserving the requested order.
func (r *Relation) Project(attrs ...string) (*Relation, error) {
	schema := make(Schema, len(attrs))
	cols := make([]*bat.BAT, len(attrs))
	for k, name := range attrs {
		j := r.Schema.Index(name)
		if j < 0 {
			return nil, fmt.Errorf("rel: project: no attribute %q in %s", name, r.describe())
		}
		schema[k] = r.Schema[j]
		cols[k] = r.Cols[j]
	}
	return New(r.Name, schema, cols)
}

// Drop returns r without the named attributes.
func (r *Relation) Drop(attrs ...string) (*Relation, error) {
	dropped := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		dropped[a] = true
	}
	keep := make([]string, 0, len(r.Schema))
	for _, a := range r.Schema {
		if !dropped[a.Name] {
			keep = append(keep, a.Name)
		}
	}
	return r.Project(keep...)
}

// Rename returns ρ(r) with attributes renamed per the mapping.
func (r *Relation) Rename(mapping map[string]string) (*Relation, error) {
	schema := r.Schema.Clone()
	for old, new_ := range mapping {
		k := schema.Index(old)
		if k < 0 {
			return nil, fmt.Errorf("rel: rename: no attribute %q in %s", old, r.describe())
		}
		schema[k].Name = new_
	}
	return New(r.Name, schema, r.Cols)
}

// Union returns r ∪ s (bag semantics: concatenation). Schemas must be
// union-compatible (same arity and types; names from r win).
func Union(r, s *Relation) (*Relation, error) {
	if len(r.Schema) != len(s.Schema) {
		return nil, fmt.Errorf("rel: union: arity %d vs %d", len(r.Schema), len(s.Schema))
	}
	cols := make([]*bat.BAT, len(r.Cols))
	for k := range r.Cols {
		if r.Schema[k].Type != s.Schema[k].Type {
			return nil, fmt.Errorf("rel: union: attribute %d type %v vs %v", k, r.Schema[k].Type, s.Schema[k].Type)
		}
		v := r.Cols[k].Vector().Clone()
		v.AppendVector(s.Cols[k].Vector())
		cols[k] = bat.FromVector(v)
	}
	return New(r.Name, r.Schema.Clone(), cols)
}

// OrderSpec describes one ORDER BY item.
type OrderSpec struct {
	Attr string
	Desc bool
}

// Sort returns r ordered by the given attributes (stable). The permutation
// comes from bat.SortKeys, the one row order of the engine, and the
// stable permutation is unique, so the row order is identical at any
// worker budget. With no attribute every row ties: the rows keep their
// input order.
func (r *Relation) Sort(c *exec.Ctx, specs ...OrderSpec) (res *Relation, err error) {
	defer exec.CatchBudget(&err)
	if len(specs) == 0 {
		return r.Limit(c, r.NumRows()), nil
	}
	vecs := make([]*bat.Vector, len(specs))
	desc := make([]bool, len(specs))
	for k, sp := range specs {
		col, err := r.Col(sp.Attr)
		if err != nil {
			return nil, err
		}
		vecs[k], desc[k] = col.VectorCtx(c), sp.Desc
	}
	idx := bat.SortKeys(c, vecs, desc)
	out := r.Gather(c, idx)
	c.Arena().FreeInts(idx)
	return out, nil
}

// Limit returns the first n rows.
func (r *Relation) Limit(c *exec.Ctx, n int) *Relation {
	idx := bat.Identity(c, min(n, r.NumRows()))
	defer c.Arena().FreeInts(idx)
	return r.Gather(c, idx)
}
