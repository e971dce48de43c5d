package sql

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/bat"
	"repro/internal/exec"
	"repro/internal/rel"
)

// This file is the reference SELECT executor of the differential tests:
// a deliberately naive, serial evaluator over whole relations. Joins
// bucket the right side on the printed key value, WHERE filters the
// whole joined relation, and grouping maps the printed key value to its
// group and folds every group's rows in row order. Every expression is
// evaluated by the row-wise evaluator of rowexpr_test.go. It shares
// only name resolution, output naming (projectMeta), extractEqui and
// the grouped-item rewrite with the engine — no planner, pushdown,
// pruning, column-at-a-time evaluator, hash table, JoinBuild, StreamAgg
// or spill — so the streamed engine is checked against an independent
// evaluation.

// refQuery evaluates one SELECT over db's catalog with the reference
// executor.
func refQuery(db *DB, q string) (*rel.Relation, error) {
	stmts, err := Parse(q)
	if err != nil {
		return nil, err
	}
	if len(stmts) == 1 {
		if sel, ok := stmts[0].(*SelectStmt); ok {
			return refSelect(db, sel)
		}
	}
	return nil, fmt.Errorf("reference: want a single SELECT, got %q", q)
}

func refSelect(db *DB, sel *SelectStmt) (*rel.Relation, error) {
	src, err := refFrom(db, sel.From)
	if err == nil && sel.Where != nil {
		src, err = refFilter(src, sel.Where)
	}
	if err != nil {
		return nil, err
	}
	var items []SelectItem
	for _, it := range sel.Items {
		if !it.Star {
			items = append(items, it)
			continue
		}
		for _, sy := range src.syms {
			items = append(items, SelectItem{Expr: &ColRef{Qualifier: sy.qual, Name: sy.name}, As: sy.name})
		}
	}
	c := exec.NewCtx(1, nil, nil)
	aggs := findAggregates(items, sel.Having)
	if len(aggs) == 0 && len(sel.GroupBy) == 0 {
		if sel.Having != nil {
			return nil, fmt.Errorf("sql: HAVING without aggregation")
		}
		return refFinish(c, sel, items, src)
	}
	if src, err = refGroup(src, sel.GroupBy, aggs); err != nil {
		return nil, err
	}
	items, having := groupedItems(items, sel.GroupBy, aggs, sel.Having)
	if having != nil {
		if src, err = refFilter(src, having); err != nil {
			return nil, err
		}
	}
	return refFinish(c, sel, items, src)
}

// refFrom evaluates a FROM item into a source whose columns carry
// internal names and whose symbols carry the user-visible ones.
func refFrom(db *DB, te TableExpr) (*source, error) {
	switch x := te.(type) {
	case *JoinExpr:
		return refJoin(db, x)
	case *SubqueryRef:
		r, err := refSelect(db, x.Select)
		if err != nil {
			return nil, err
		}
		return newSource(r, x.Alias), nil
	case *TableRef:
		r, err := db.Table(x.Name)
		if err != nil {
			return nil, err
		}
		if x.Alias != "" {
			return newSource(r, x.Alias), nil
		}
		return newSource(r, x.Name), nil
	}
	return nil, fmt.Errorf("reference: unsupported table expression %T", te)
}

// refJoin pairs every left row (outer, ascending) with its matching
// right rows (ascending): the canonical join order. Equi-keys match by
// printed value; the residual part of ON filters the pairs afterwards.
func refJoin(db *DB, x *JoinExpr) (*source, error) {
	left, err := refFrom(db, x.Left)
	if err != nil {
		return nil, err
	}
	right, err := refFrom(db, x.Right)
	if err != nil {
		return nil, err
	}
	var li, ri []int
	var lk, rk, filters []Expr
	if x.Kind != JoinCross {
		if lk, rk, filters = extractEqui(x.On, left, right); len(lk) == 0 {
			if x.Kind == JoinLeft {
				return nil, fmt.Errorf("sql: LEFT JOIN requires an equi-join condition")
			}
			filters = []Expr{x.On}
		}
	}
	if len(lk) == 0 {
		for i := 0; i < left.rel.NumRows(); i++ {
			for j := 0; j < right.rel.NumRows(); j++ {
				li, ri = append(li, i), append(ri, j)
			}
		}
	} else {
		lkeys, rkeys, err := refKeys(left, right, lk, rk)
		if err != nil {
			return nil, err
		}
		buckets := map[string][]int{}
		for j, k := range rkeys {
			buckets[k] = append(buckets[k], j)
		}
		for i, k := range lkeys {
			for _, j := range buckets[k] {
				li, ri = append(li, i), append(ri, j)
			}
			if len(buckets[k]) == 0 && x.Kind == JoinLeft {
				li, ri = append(li, i), append(ri, -1)
			}
		}
	}
	cols := append(refGather(left.rel.Cols, li), refGather(right.rel.Cols, ri)...)
	src := refSource(append(append([]sym(nil), left.syms...), right.syms...), cols)
	for _, f := range filters {
		if src, err = refFilter(src, f); err != nil {
			return nil, err
		}
	}
	return src, nil
}

// refKeys prints every row's composite equi-key. Int keys paired with
// int keys print exactly; other numeric pairings print the float value
// with both zeros and all NaNs folded — the engine's key equality.
// Strings print quoted, so they never equal a number.
func refKeys(left, right *source, lk, rk []Expr) (lkeys, rkeys []string, err error) {
	comps := make([]*rowExpr, len(lk)+len(rk)) // left keys, then right keys
	for k, e := range append(append([]Expr(nil), lk...), rk...) {
		s := left
		if k >= len(lk) {
			s = right
		}
		if comps[k], err = rowCompile(e, s); err != nil {
			return nil, nil, err
		}
	}
	lc, rc := comps[:len(lk)], comps[len(lk):]
	return printKeys(lc, rc, left.rel.NumRows()), printKeys(rc, lc, right.rel.NumRows()), nil
}

// printKeys prints rows 0..n-1 of the composite key own, whose columns
// are compared with those of other (own itself when grouping).
func printKeys(own, other []*rowExpr, n int) []string {
	out := make([]string, n)
	for i := range out {
		parts := make([]string, len(own))
		for k, comp := range own {
			switch v := comp.fn(i); {
			case v.Type == bat.String:
				parts[k] = strconv.Quote(v.S)
			case v.Type == bat.Int && other[k].typ == bat.Int:
				parts[k] = strconv.FormatInt(v.I, 10)
			default: // +0 folds -0 into 0; every NaN prints "NaN"
				parts[k] = strconv.FormatFloat(v.AsFloat()+0, 'g', -1, 64)
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

// refDistinct keeps the first occurrence of every row of r, rows keyed by
// their printed cells.
func refDistinct(r *rel.Relation) []*bat.BAT {
	cols := make([]*rowExpr, len(r.Cols))
	for k, col := range r.Cols {
		cols[k] = &rowExpr{typ: col.Type(), fn: col.Get}
	}
	seen := map[string]bool{}
	var keep []int
	for i, key := range printKeys(cols, cols, r.NumRows()) {
		if !seen[key] {
			seen[key] = true
			keep = append(keep, i)
		}
	}
	return refGather(r.Cols, keep)
}

// refFilter keeps the rows of src on which pred is truthy.
func refFilter(src *source, pred Expr) (*source, error) {
	comp, err := rowCompile(pred, src)
	if err != nil {
		return nil, err
	}
	var keep []int
	for i := 0; i < src.rel.NumRows(); i++ {
		if rowTruthy(comp.fn(i)) {
			keep = append(keep, i)
		}
	}
	return refSource(src.syms, refGather(src.rel.Cols, keep)), nil
}

// refGroup groups the whole source on the printed values of the
// grouping keys, in first-seen order, and folds every group's aggregate
// inputs in row order. The result has the engine's grouped schema — the
// keys g<k> (each group's first row), then agg<k>, Int for COUNT and
// Float otherwise — under the grouped-source qualifier.
func refGroup(src *source, groupBy []Expr, aggs []*FuncCall) (*source, error) {
	n := src.rel.NumRows()
	keys := make([]*rowExpr, len(groupBy))
	for k, g := range groupBy {
		var err error
		if keys[k], err = rowCompile(g, src); err != nil {
			return nil, err
		}
	}
	fns := make([]rel.AggFunc, len(aggs))
	args := make([]*rowExpr, len(aggs))
	for k, a := range aggs {
		fns[k] = aggFuncs[a.Name]
		switch {
		case a.Star && fns[k] != rel.Count:
			return nil, fmt.Errorf("sql: %s(*) not supported", a.Name)
		case a.Star:
		case len(a.Args) != 1:
			return nil, fmt.Errorf("sql: %s takes one argument", a.Name)
		default:
			var err error
			if args[k], err = rowCompile(a.Args[0], src); err != nil {
				return nil, err
			}
		}
	}
	if len(aggs) == 0 {
		return nil, fmt.Errorf("rel: group by without aggregates")
	}
	for k, arg := range args {
		if arg != nil && arg.typ == bat.String {
			return nil, fmt.Errorf("rel: aggregate %v over non-numeric %q", fns[k], fmt.Sprintf("a%d", k))
		}
	}

	// Assign groups, then fold each row into its group in row order.
	var first, gid []int
	ids := map[string]int{}
	for i, key := range printKeys(keys, keys, n) {
		g, ok := ids[key]
		if !ok {
			g = len(first)
			ids[key] = g
			first = append(first, i)
		}
		gid = append(gid, g)
	}
	var schema rel.Schema
	var cols []*bat.BAT
	for k, key := range keys {
		v := bat.NewEmptyVector(key.typ, len(first))
		for _, i := range first {
			v.Append(key.fn(i))
		}
		schema = append(schema, rel.Attr{Name: fmt.Sprintf("g%d", k), Type: key.typ})
		cols = append(cols, bat.FromVector(v))
	}
	for k, arg := range args {
		cnt := make([]int64, len(first))
		sum := make([]float64, len(first))
		lo := make([]float64, len(first))
		hi := make([]float64, len(first))
		for g := range first {
			lo[g], hi[g] = math.Inf(1), math.Inf(-1)
		}
		for i, g := range gid {
			cnt[g]++
			if arg == nil {
				continue
			}
			x := arg.fn(i).AsFloat()
			sum[g] += x
			if x < lo[g] {
				lo[g] = x
			}
			if x > hi[g] {
				hi[g] = x
			}
		}
		name := fmt.Sprintf("agg%d", k)
		if fns[k] == rel.Count {
			schema = append(schema, rel.Attr{Name: name, Type: bat.Int})
			cols = append(cols, bat.FromInts(cnt))
			continue
		}
		out := sum
		switch fns[k] {
		case rel.Avg:
			for g := range out {
				out[g] /= float64(cnt[g])
			}
		case rel.Min:
			out = lo
		case rel.Max:
			out = hi
		}
		schema = append(schema, rel.Attr{Name: name, Type: bat.Float})
		cols = append(cols, bat.FromFloats(out))
	}
	grouped := rel.MustNew("", schema, cols)
	if len(keys) == 0 && n == 0 {
		// A global aggregate over no rows is one row of zeros.
		b := rel.NewBuilder("", schema)
		vals := make([]bat.Value, len(schema))
		for k, a := range schema {
			vals[k] = bat.Value{Type: a.Type}
		}
		b.MustAdd(vals...)
		grouped = b.Relation()
	}
	return newSource(grouped, grpQual), nil
}

// refLess is the ORDER BY order: Value.Less, except that NaN sorts
// after every number and ties with NaN.
func refLess(a, b bat.Value) bool {
	if a.Type == bat.Float && b.Type == bat.Float {
		return a.F < b.F || (a.F == a.F && b.F != b.F)
	}
	return a.Less(b)
}

// refGather copies the rows idx of every column; -1 yields the column
// type's zero value (a left-join row without a match).
func refGather(cols []*bat.BAT, idx []int) []*bat.BAT {
	out := make([]*bat.BAT, len(cols))
	for k, col := range cols {
		src := col.Vector()
		v := bat.NewEmptyVector(src.Type(), len(idx))
		for _, j := range idx {
			if j < 0 {
				v.Append(bat.Value{Type: src.Type()})
			} else {
				v.Append(src.Get(j))
			}
		}
		out[k] = bat.FromVector(v)
	}
	return out
}

// refSource wraps columns under internal names with the given symbols.
func refSource(syms []sym, cols []*bat.BAT) *source {
	schema := make(rel.Schema, len(cols))
	for k, col := range cols {
		schema[k] = rel.Attr{Name: internalName(k), Type: col.Type()}
	}
	return &source{rel: &rel.Relation{Schema: schema, Cols: cols}, syms: syms}
}

// refFinish is the projection, DISTINCT, ORDER BY and LIMIT tail over a
// materialized source. ORDER BY keys resolve against the output and,
// without DISTINCT, fall back to the source; the comparator evaluates
// them per comparison.
func refFinish(c *exec.Ctx, sel *SelectStmt, items []SelectItem, src *source) (*rel.Relation, error) {
	schema, syms, _, err := projectMeta(items, src)
	if err != nil {
		return nil, err
	}
	cols := make([]*bat.BAT, len(items))
	for k, it := range items {
		e, err := rowCompile(it.Expr, src)
		if err != nil {
			return nil, err
		}
		cols[k] = rowMaterialize(e, src.rel.NumRows())
	}
	out, err := rel.New("", schema, cols)
	if err != nil {
		return nil, err
	}
	if sel.Distinct {
		if out, err = rel.New("", schema, refDistinct(out)); err != nil {
			return nil, err
		}
	}
	if len(sel.OrderBy) > 0 {
		outSrc := &source{rel: out, syms: syms}
		keys := make([]*rowExpr, len(sel.OrderBy))
		for k, ob := range sel.OrderBy {
			e, err := rowCompile(ob.Expr, outSrc)
			if err != nil && !sel.Distinct && src.rel.NumRows() == out.NumRows() {
				e, err = rowCompile(ob.Expr, src)
			}
			if err != nil {
				return nil, err
			}
			keys[k] = e
		}
		idx := bat.SortStable(c, out.NumRows(), func(a, b int) bool {
			for k, e := range keys {
				va, vb := e.fn(a), e.fn(b)
				lt, gt := refLess(va, vb), refLess(vb, va)
				if lt == gt {
					continue
				}
				return lt != sel.OrderBy[k].Desc
			}
			return false
		})
		out = out.Gather(c, idx)
	}
	if sel.Limit >= 0 {
		out = out.Limit(c, sel.Limit)
	}
	return out, nil
}
