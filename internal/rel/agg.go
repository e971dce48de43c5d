package rel

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/exec"
)

// AggFunc enumerates the supported aggregation functions.
type AggFunc uint8

const (
	// Count counts rows (COUNT(*) when Attr is empty).
	Count AggFunc = iota
	// Sum adds values of a numeric attribute.
	Sum
	// Avg averages a numeric attribute.
	Avg
	// Min takes the minimum of a numeric attribute.
	Min
	// Max takes the maximum of a numeric attribute.
	Max
)

// String returns the SQL name of the function.
func (f AggFunc) String() string {
	switch f {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	}
	return "AGG?"
}

// AggSpec is one aggregate in a ϑ operation: Func applied to Attr, output
// named As.
type AggSpec struct {
	Func AggFunc
	Attr string // empty means * (Count only)
	As   string
}

// GroupBy computes ϑ: grouping on the key attributes (none means a single
// global group) with the given aggregates. The result schema is the keys
// followed by one column per aggregate. Count yields BIGINT; the other
// functions yield DOUBLE. Groups appear in first-seen row order. Without
// aggregates the result is the distinct key rows, each the first
// occurrence: GroupBy(c, r, r.Schema.Names(), nil) is DISTINCT.
//
// GroupBy is one StreamAgg fed the whole relation: every group folds its
// own rows in row order, so sums associate sequentially and the result is
// the same at any worker budget. The result's columns are the group
// table's arena columns. When c carries a spill manager, a group table
// holding more bytes than the spill threshold stages the tail of the key
// space to disk, exactly as the streamed SQL aggregation does.
func GroupBy(c *exec.Ctx, r *Relation, keys []string, aggs []AggSpec) (res *Relation, err error) {
	defer exec.CatchBudget(&err)
	var keyBATs []*bat.BAT
	keyVecs := make([]*bat.Vector, len(keys))
	keyTypes := make([]bat.Type, len(keys))
	inCols := make([][]float64, len(aggs))
	srcCols := make([]*bat.BAT, len(aggs))
	// The key and aggregate views may be arena-drawn (densified sparse or
	// converted int tails); hand them back on every exit — including a
	// budget unwind — so they neither stay charged to the tenant nor
	// bypass the pools.
	defer func() {
		for k, v := range keyVecs {
			if v != nil && keyBATs[k].IsSparse() {
				c.Arena().FreeFloats(v.Floats())
			}
		}
		for k, f := range inCols {
			if srcCols[k] != nil {
				srcCols[k].ReleaseFloats(c, f)
			}
		}
	}()
	for k, a := range aggs {
		if a.Attr == "" {
			if a.Func != Count {
				return nil, fmt.Errorf("rel: %v(*) not supported", a.Func)
			}
			continue
		}
		col, err := r.Col(a.Attr)
		if err != nil {
			return nil, err
		}
		f, err := col.FloatsCtx(c)
		if err != nil {
			return nil, fmt.Errorf("rel: aggregate %v over non-numeric %q", a.Func, a.Attr)
		}
		inCols[k], srcCols[k] = f, col
	}
	if keyBATs, err = r.colsOf(keys); err != nil {
		return nil, err
	}
	for k, col := range keyBATs {
		keyVecs[k] = col.VectorCtx(c)
		keyTypes[k] = keyVecs[k].Type()
	}
	sa, err := NewStreamAgg(c, r.Name, keys, keyTypes, aggs)
	if err != nil {
		return nil, err
	}
	if err := sa.Consume(keyVecs, inCols, r.NumRows()); err != nil {
		return nil, err
	}
	return sa.Finish()
}
