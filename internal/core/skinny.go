package core

import (
	"fmt"
	"sort"

	"repro/internal/bat"
	"repro/internal/exec"
	"repro/internal/rel"
)

// This file implements the paper's Section 9 future-work item: "it also is
// interesting to investigate the handling of wide tables, e.g., by storing
// them as skinny tables that are accessed accordingly". ToSkinny unpivots
// a wide relation into (key..., attribute, value) triples; FromSkinny
// pivots back. Together they let wide application schemas (Table 4's 10K
// columns) live in a three-column relation, while relational matrix
// operations keep operating on the wide view.

// SkinnyAttr and SkinnyValue name the two generated attributes of the
// skinny representation.
const (
	SkinnyAttr  = "attr"
	SkinnyValue = "val"
)

// ToSkinny unpivots the application part of r: the result has the order
// schema of r plus (attr, val), one row per (tuple, application
// attribute). The order schema must form a key of r; the skinny relation
// is keyed by order schema + attr. The invocation is governed like
// Unary/Binary: opts selects parallelism and the tenant arena (nil runs
// ungoverned on the shared arena), and a memory-budget overrun surfaces
// as an error matching exec.ErrMemoryBudget.
func ToSkinny(r *rel.Relation, order []string, opts *Options) (res *rel.Relation, err error) {
	opts = opts.orDefault()
	c := opts.ctx()
	defer opts.finishCtx(c)
	defer exec.CatchBudget(&err)
	a, err := split(r, order)
	if err != nil {
		return nil, err
	}
	if err := a.sortArg(c); err != nil {
		return nil, err
	}
	if r.Schema.Index(SkinnyAttr) >= 0 || r.Schema.Index(SkinnyValue) >= 0 {
		return nil, fmt.Errorf("rma: relation already has %q or %q attributes", SkinnyAttr, SkinnyValue)
	}
	n := r.NumRows()
	k := len(a.appCols)
	// Order columns repeat once per application attribute.
	idx := make([]int, 0, n*k)
	for j := 0; j < k; j++ {
		for i := 0; i < n; i++ {
			idx = append(idx, i)
		}
	}
	schema := append(a.orderSchema.Clone(),
		rel.Attr{Name: SkinnyAttr, Type: bat.String},
		rel.Attr{Name: SkinnyValue, Type: bat.Float})
	cols := make([]*bat.BAT, 0, len(schema))
	for _, col := range a.orderCols {
		cols = append(cols, col.Gather(c, idx))
	}
	attrs := make([]string, 0, n*k)
	vals := make([]float64, 0, n*k)
	for j, col := range a.appCols {
		f, err := col.Floats()
		if err != nil {
			return nil, err
		}
		name := a.appSchema[j].Name
		for i := 0; i < n; i++ {
			attrs = append(attrs, name)
			vals = append(vals, f[i])
		}
	}
	cols = append(cols, bat.FromStrings(attrs), bat.FromFloats(vals))
	return rel.New(r.Name+"_skinny", schema, cols)
}

// FromSkinny pivots a skinny relation (order schema + attr + val) back to
// the wide form. Rows appear in key order and attribute columns in sorted
// name order; every key must carry the same attribute set (missing cells are an error, matching
// the dense-matrix semantics of the algebra). Governed like ToSkinny.
func FromSkinny(r *rel.Relation, order []string, opts *Options) (res *rel.Relation, err error) {
	opts = opts.orDefault()
	c := opts.ctx()
	defer opts.finishCtx(c)
	defer exec.CatchBudget(&err)
	attrC, err := r.Col(SkinnyAttr)
	if err != nil {
		return nil, err
	}
	valC, err := r.Col(SkinnyValue)
	if err != nil {
		return nil, err
	}
	if attrC.Type() != bat.String {
		return nil, fmt.Errorf("rma: %q must be a string column", SkinnyAttr)
	}
	vals, err := valC.Floats()
	if err != nil {
		return nil, err
	}
	orderCols := make([]*bat.BAT, len(order))
	var orderSchema rel.Schema
	for k, name := range order {
		j := r.Schema.Index(name)
		if j < 0 {
			return nil, fmt.Errorf("rma: no order attribute %q", name)
		}
		if name == SkinnyAttr || name == SkinnyValue {
			return nil, fmt.Errorf("rma: %q cannot be an order attribute here", name)
		}
		orderCols[k] = r.Cols[j]
		orderSchema = append(orderSchema, r.Schema[j])
	}

	// Collect the distinct attribute names, sorted.
	attrs := attrC.Vector().Strings()
	attrSet := map[string]int{}
	var attrNames []string
	for _, s := range attrs {
		if _, ok := attrSet[s]; !ok {
			attrSet[s] = 0
			attrNames = append(attrNames, s)
		}
	}
	sort.Strings(attrNames)
	for j, s := range attrNames {
		attrSet[s] = j
	}

	// Key the rows with the engine's typed key equality: sort by the
	// order columns and cut the equal runs. Keys come out in key order.
	n := r.NumRows()
	vecs := make([]*bat.Vector, len(orderCols))
	for k, col := range orderCols {
		vecs[k] = col.VectorCtx(c)
	}
	idx := bat.SortKeys(c, vecs, nil)
	keyOfRow := make([]int, n)
	var keyRows []int // a row of each key
	for k, i := range idx {
		if k == 0 || !sameKey(vecs, idx[k-1], i) {
			keyRows = append(keyRows, i)
		}
		keyOfRow[i] = len(keyRows) - 1
	}
	c.Arena().FreeInts(idx)
	width := len(attrNames)
	if len(keyRows)*width != n {
		return nil, fmt.Errorf("rma: skinny relation is not dense: %d rows, %d keys × %d attributes",
			n, len(keyRows), width)
	}

	out := make([][]float64, width)
	filled := make([][]bool, width)
	for j := range out {
		out[j] = make([]float64, len(keyRows))
		filled[j] = make([]bool, len(keyRows))
	}
	for i := 0; i < n; i++ {
		kIdx := keyOfRow[i]
		aIdx := attrSet[attrs[i]]
		if filled[aIdx][kIdx] {
			return nil, fmt.Errorf("rma: duplicate cell for key %d attribute %q", kIdx, attrs[i])
		}
		filled[aIdx][kIdx] = true
		out[aIdx][kIdx] = vals[i]
	}
	for j := range filled {
		for _, ok := range filled[j] {
			if !ok {
				return nil, fmt.Errorf("rma: missing cell for attribute %q", attrNames[j])
			}
		}
	}

	schema := orderSchema.Clone()
	cols := make([]*bat.BAT, 0, len(order)+width)
	for _, col := range orderCols {
		cols = append(cols, col.Gather(c, keyRows))
	}
	for j, name := range attrNames {
		schema = append(schema, rel.Attr{Name: name, Type: bat.Float})
		cols = append(cols, bat.FromFloats(out[j]))
	}
	return rel.New(r.Name, schema, cols)
}

// sameKey reports whether rows a and b carry the same key under the
// engine's typed key equality, the one every sort and group uses:
// floats compare by bat.CompareFloat, so +0 and −0 are one key.
func sameKey(keys []*bat.Vector, a, b int) bool {
	for _, v := range keys {
		switch v.Type() {
		case bat.Float:
			if bat.CompareFloat(v.Floats()[a], v.Floats()[b]) != 0 {
				return false
			}
		case bat.Int:
			if v.Ints()[a] != v.Ints()[b] {
				return false
			}
		default:
			if v.Strings()[a] != v.Strings()[b] {
				return false
			}
		}
	}
	return true
}
