package rel

import (
	"fmt"
	"math"
	"strings"

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

type aggState struct {
	count int64
	sum   float64
	min   float64
	max   float64
}

func newAggStates(k int) []aggState {
	st := make([]aggState, k)
	for i := range st {
		st[i].min = math.Inf(1)
		st[i].max = math.Inf(-1)
	}
	return st
}

// accumulate folds row value v (valid when col != nil) into the state.
func (st *aggState) accumulate(col []float64, i int) {
	st.count++
	if col != nil {
		v := col[i]
		st.sum += v
		if v < st.min {
			st.min = v
		}
		if v > st.max {
			st.max = v
		}
	}
}

// combine folds a later chunk's partial state into st (chunk order).
func (st *aggState) combine(o *aggState) {
	st.count += o.count
	st.sum += o.sum
	if o.min < st.min {
		st.min = o.min
	}
	if o.max > st.max {
		st.max = o.max
	}
}

// aggGroup is one group of a partial (per-chunk) or merged aggregation
// table: the first row carrying the group's key, plus one running state per
// aggregate.
type aggGroup struct {
	row int
	st  []aggState
}

// aggTable accumulates groups in first-seen order, indexed by key hash
// in the flat hash index; the same structure serves the per-chunk
// partials and the merged result.
type aggTable struct {
	groups []aggGroup
	index  *hashIndex
}

// find returns the group of row i (keyed by kc/h), creating it when absent.
func (t *aggTable) find(c *exec.Ctx, kc *keyCols, h []uint64, i, nAggs int) *aggGroup {
	hv := h[i]
	g := t.index.find(hv)
	for g >= 0 && !kc.equal(i, kc, t.groups[g].row) {
		g = t.index.findNext(g, hv)
	}
	if g < 0 {
		g = t.index.add(c, hv)
		t.groups = append(t.groups, aggGroup{row: i, st: newAggStates(nAggs)})
	}
	return &t.groups[g]
}

// GroupBy computes ϑ: grouping on the key attributes (none means a single
// global group) with the given aggregates. The result schema is the keys
// followed by one column per aggregate. Count yields BIGINT; the other
// functions yield DOUBLE. Groups appear in first-seen row order.
//
// The aggregation is chunk-parallel: rows are split into fixed chunks of
// bat.SerialCutoff (boundaries depend only on the row count, never on the
// worker budget), each chunk folds its rows into a partial group table in
// row order, and the partials are merged in ascending chunk order. Sums
// therefore associate identically at any parallelism, making the output
// bitwise-reproducible — the same discipline as bat.Sum and bat.Dot.
func GroupBy(c *exec.Ctx, r *Relation, keys []string, aggs []AggSpec) (res *Relation, err error) {
	defer exec.CatchBudget(&err)
	if len(aggs) == 0 {
		return nil, fmt.Errorf("rel: group by without aggregates")
	}
	inCols := make([][]float64, len(aggs))
	srcCols := make([]*bat.BAT, len(aggs))
	// The aggregate views may be arena-drawn (densified sparse or
	// converted int tails); hand them back on every exit — including a
	// budget unwind — so they neither stay charged to the tenant nor
	// bypass the pools.
	defer func() {
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

	// Out-of-core path: fold through a spilling stream accumulator, which
	// stages the tail of the key space to disk instead of growing the
	// group tables. Same result, bit for bit.
	if len(keys) > 0 && c.ShouldSpill(groupSpillEst(r.NumRows(), len(keys), len(aggs))) {
		return groupBySpilled(c, r, keys, aggs, inCols)
	}

	var kc *keyCols
	var hash []uint64
	if len(keys) > 0 {
		var err error
		kc, err = newKeyCols(c, r, keys)
		if err != nil {
			return nil, err
		}
		hash = kc.hashes(c)
	}

	n := r.NumRows()
	chunks := (n + bat.SerialCutoff - 1) / bat.SerialCutoff
	partials := make([]*aggTable, chunks)
	c.ParallelFor(chunks, 1, func(clo, chi int) {
		for ch := clo; ch < chi; ch++ {
			lo, hi := ch*bat.SerialCutoff, min((ch+1)*bat.SerialCutoff, n)
			t := &aggTable{}
			if kc == nil {
				g := aggGroup{row: lo, st: newAggStates(len(aggs))}
				for i := lo; i < hi; i++ {
					for k := range aggs {
						g.st[k].accumulate(inCols[k], i)
					}
				}
				t.groups = append(t.groups, g)
			} else {
				t.index = newHashIndex(c)
				for i := lo; i < hi; i++ {
					g := t.find(c, kc, hash, i, len(aggs))
					for k := range aggs {
						g.st[k].accumulate(inCols[k], i)
					}
				}
			}
			partials[ch] = t
		}
	})

	// Merge the chunk partials in ascending chunk order. Global group ids
	// follow global first-seen order because chunks are contiguous row
	// ranges visited in order.
	var merged *aggTable
	if chunks == 1 {
		merged = partials[0]
	} else {
		merged = &aggTable{}
		if kc != nil {
			merged.index = newHashIndex(c)
		}
		for _, t := range partials {
			t.index.release(c)
			for li := range t.groups {
				lg := &t.groups[li]
				if kc == nil {
					if len(merged.groups) == 0 {
						merged.groups = append(merged.groups, aggGroup{row: lg.row, st: newAggStates(len(aggs))})
					}
					g := &merged.groups[0]
					for k := range aggs {
						g.st[k].combine(&lg.st[k])
					}
					continue
				}
				g := merged.find(c, kc, hash, lg.row, len(aggs))
				for k := range aggs {
					g.st[k].combine(&lg.st[k])
				}
			}
		}
	}
	merged.index.release(c)
	groups := make([]int, len(merged.groups))
	for g := range merged.groups {
		groups[g] = merged.groups[g].row
	}
	// The key views are done once the groups are merged; return any
	// densified sparse tails to the per-query arena before the result
	// assembly below draws from it.
	kc.release(c)

	// Assemble the result: key columns first (one representative row per
	// group, gathered from the key columns only, so no other column's
	// gather is drawn from the arena and dropped), then aggregate columns.
	schema := make(Schema, 0, len(keys)+len(aggs))
	cols := make([]*bat.BAT, 0, len(keys)+len(aggs))
	for _, name := range keys {
		j := r.Schema.Index(name)
		schema = append(schema, r.Schema[j])
		cols = append(cols, r.Cols[j].Gather(c, groups))
	}
	for k, a := range aggs {
		name := a.As
		if name == "" {
			name = fmt.Sprintf("%s_%s", strings.ToLower(a.Func.String()), a.Attr)
		}
		switch a.Func {
		case Count:
			out := make([]int64, len(groups))
			for g := range groups {
				out[g] = merged.groups[g].st[k].count
			}
			schema = append(schema, Attr{Name: name, Type: bat.Int})
			cols = append(cols, bat.FromInts(out))
		default:
			out := make([]float64, len(groups))
			for g := range groups {
				st := &merged.groups[g].st[k]
				switch a.Func {
				case Sum:
					out[g] = st.sum
				case Avg:
					out[g] = st.sum / float64(st.count)
				case Min:
					out[g] = st.min
				case Max:
					out[g] = st.max
				}
			}
			schema = append(schema, Attr{Name: name, Type: bat.Float})
			cols = append(cols, bat.FromFloats(out))
		}
	}
	return New(r.Name, schema, cols)
}
