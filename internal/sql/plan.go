package sql

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/rel"
)

// This file is the logical planner of the SELECT pipeline, the only
// SELECT executor. It shapes the FROM tree into a left-deep stream plan
// (the left spine streams, every join's right side is materialized and
// indexed), pushes WHERE conjuncts down to the lowest node that can
// evaluate them, prunes columns nothing above the scans references, and
// compiles every expression the runtime evaluates — per morsel, over
// build sides, over the grouped relation and for ORDER BY — into the
// plan's column-at-a-time programs (eval.go). Execution never compiles,
// so a statement that plans cannot hit a compile error mid-stream. A
// planning error — unknown column, type error, unsupported shape — is
// the statement's user-visible error.

// streamNode is one node of the stream plan: either a scan leaf over a
// materialized source, or a join whose left input streams and whose
// right side is the materialized build side.
type streamNode struct {
	// Leaf.
	leaf *source
	pred []Expr // WHERE conjuncts fused into the scan's per-morsel pass

	// Join.
	left      *streamNode
	right     *source
	kind      JoinKind
	on        Expr
	rightPred []Expr // conjuncts filtering the build side before indexing
	lk, rk    []Expr // equi-key expressions (probe side, build side)
	residual  []Expr // non-equi remainder of ON, filtered after the join
	post      []Expr // WHERE conjuncts that could not sink below this node

	// Resolved by the planner.
	allSyms  []sym      // full (unpruned) output symbols, for classification
	outSyms  []sym      // emitted symbols after column pruning
	outTypes []bat.Type // types of the emitted columns
	needed   []int      // leaf/right-side column indexes kept by pruning

	// Compiled by the planner, each bound to the positions of the source
	// it evaluates over.
	predProg   []*compiled // pred, over the leaf source
	rightProg  []*compiled // rightPred, over the build source
	lkProg     []*compiled // lk, over the left input's morsels
	rkProg     []*compiled // rk, over the (filtered) build source
	filterProg []*compiled // residual then post, over this node's morsels
}

// planNode recursively shapes a table expression: joins keep streaming
// down their left spine while their right sides materialize through the
// ordinary FROM machinery (which may itself stream a subquery); every
// other table expression becomes a scan leaf over its materialized —
// for base tables, zero-copy — source.
func (db *DB) planNode(c *exec.Ctx, opts *core.Options, te TableExpr) (*streamNode, error) {
	if x, ok := te.(*JoinExpr); ok {
		left, err := db.planNode(c, opts, x.Left)
		if err != nil {
			return nil, err
		}
		right, err := db.buildFrom(c, opts, x.Right)
		if err != nil {
			return nil, err
		}
		n := &streamNode{left: left, right: right, kind: x.Kind, on: x.On}
		n.allSyms = append(append([]sym(nil), left.allSyms...), right.syms...)
		return n, nil
	}
	src, err := db.buildFrom(c, opts, te)
	if err != nil {
		return nil, err
	}
	return &streamNode{leaf: src, allSyms: src.syms}, nil
}

// push sinks one WHERE conjunct to the lowest node that can evaluate it.
// Probe-side conjuncts descend into the left subtree — safe under LEFT
// JOIN too, since every output row of a probe row carries that row's own
// column values, so filtering before or after the join keeps the same
// rows in the same order. Build-side conjuncts filter the build side
// before it is indexed, for inner and cross joins only: a left join must
// still emit probe rows whose matches would have been filtered away.
// Everything else stays a post-join filter on this node's output.
func (n *streamNode) push(e Expr) {
	if n.leaf != nil {
		n.pred = append(n.pred, e)
		return
	}
	switch sideOf(e, &source{syms: n.left.allSyms}, &source{syms: n.right.syms}) {
	case 1:
		n.left.push(e)
	case 2:
		if n.kind == JoinLeft {
			n.post = append(n.post, e)
			return
		}
		n.rightPred = append(n.rightPred, e)
	default:
		n.post = append(n.post, e)
	}
}

// walkOns visits every join node's ON expression.
func (n *streamNode) walkOns(f func(Expr)) {
	if n.leaf != nil {
		return
	}
	n.left.walkOns(f)
	if n.on != nil {
		f(n.on)
	}
}

// prune keeps only the columns some expression above the scans
// references. The rule is conservative: a symbol survives when any
// collected column reference matches its name (and qualifier, when the
// reference carries one) — unqualified references keep every candidate,
// so ambiguity errors surface exactly as over the unpruned FROM columns.
func (n *streamNode) prune(refs []*ColRef) {
	if n.leaf != nil {
		n.needed, n.outSyms, n.outTypes = neededCols(refs, n.leaf)
		return
	}
	n.left.prune(refs)
	var rs []sym
	var rt []bat.Type
	n.needed, rs, rt = neededCols(refs, n.right)
	n.outSyms = append(append([]sym(nil), n.left.outSyms...), rs...)
	n.outTypes = append(append([]bat.Type(nil), n.left.outTypes...), rt...)
}

func neededCols(refs []*ColRef, s *source) (idx []int, syms []sym, types []bat.Type) {
	for k, sy := range s.syms {
		used := false
		for _, r := range refs {
			if r.Name == sy.name && (r.Qualifier == "" || r.Qualifier == sy.qual) {
				used = true
				break
			}
		}
		if !used {
			continue
		}
		idx = append(idx, k)
		syms = append(syms, sy)
		types = append(types, s.rel.Schema[k].Type)
	}
	return idx, syms, types
}

// compile splits every ON clause into equi keys and residual, then
// compiles every expression the streaming runtime evaluates — against
// the sources it will run over, carrying the final (pruned) symbol
// tables — so compile errors surface before any morsel is pulled and no
// operator ever compiles at run time.
func (n *streamNode) compile() error {
	var err error
	if n.leaf != nil {
		n.predProg, err = compileAll(n.pred, n.leaf)
		return err
	}
	if err := n.left.compile(); err != nil {
		return err
	}
	if n.rightProg, err = compileAll(n.rightPred, n.right); err != nil {
		return err
	}
	if n.kind != JoinCross {
		n.lk, n.rk, n.residual = extractEqui(n.on, &source{syms: n.left.outSyms}, &source{syms: n.right.syms})
		if len(n.lk) == 0 {
			if n.kind == JoinLeft {
				return fmt.Errorf("sql: LEFT JOIN requires an equi-join condition")
			}
			// Nested-loop fallback: a keyless join, the cross product,
			// filtered on the whole ON.
			n.residual = []Expr{n.on}
		}
	}
	if n.lkProg, err = compileAll(n.lk, protoSource(n.left.outSyms, n.left.outTypes)); err != nil {
		return err
	}
	if n.rkProg, err = compileAll(n.rk, n.right); err != nil {
		return err
	}
	filters := append(append([]Expr(nil), n.residual...), n.post...)
	n.filterProg, err = compileAll(filters, protoSource(n.outSyms, n.outTypes))
	return err
}

// protoSource builds a column-less source with the given symbols and
// types: the compile target of a stream whose morsels carry exactly
// those columns, since name resolution and typing never touch row data.
func protoSource(syms []sym, types []bat.Type) *source {
	schema := make(rel.Schema, len(syms))
	for k := range syms {
		schema[k] = rel.Attr{Name: internalName(k), Type: types[k]}
	}
	return &source{rel: &rel.Relation{Schema: schema}, syms: syms}
}

func typesOfSchema(s rel.Schema) []bat.Type {
	types := make([]bat.Type, len(s))
	for k := range s {
		types[k] = s[k].Type
	}
	return types
}

// selectPlan is a planned streaming SELECT: the stream tree plus the
// pre-resolved projection or grouping metadata.
type selectPlan struct {
	root  *streamNode
	group *groupPlan // set when the statement aggregates

	// The projection, over the root's morsels — or, when the statement
	// aggregates, over the grouped relation — and its output shape.
	proj      []*compiled
	outSchema rel.Schema
	outSyms   []sym
	order     []orderKey
	// sortInput marks an ORDER BY key that resolves only against the
	// pre-projection columns: the streaming projection keeps them for
	// the sort.
	sortInput bool
}

// orderKey is one compiled ORDER BY key. input marks a key compiled
// against the pre-projection source instead of the projected output.
type orderKey struct {
	prog  *compiled
	input bool
	desc  bool
}

// groupPlan carries the streaming aggregation shape: the grouping keys'
// names, types and programs, one AggSpec plus input program (nil for
// COUNT(*)) per aggregate call, and HAVING compiled over the grouped
// relation.
type groupPlan struct {
	keyNames []string
	keyTypes []bat.Type
	keyProg  []*compiled
	specs    []rel.AggSpec
	argProg  []*compiled
	having   *compiled
}

// planStream plans one SELECT for streaming execution. Its error —
// unsupported shape, unresolved column, type problem — is the
// statement's error.
func (db *DB) planStream(c *exec.Ctx, opts *core.Options, sel *SelectStmt) (*selectPlan, error) {
	root, err := db.planNode(c, opts, sel.From)
	if err != nil {
		return nil, err
	}
	if sel.Where != nil {
		for _, cj := range flattenAnd(sel.Where) {
			root.push(cj)
		}
	}

	// Star expansion against the full (unpruned) FROM symbols.
	var items []SelectItem
	for _, it := range sel.Items {
		if !it.Star {
			items = append(items, it)
			continue
		}
		for _, sy := range root.allSyms {
			items = append(items, SelectItem{
				Expr: &ColRef{Qualifier: sy.qual, Name: sy.name},
				As:   sy.name,
			})
		}
	}

	// Column pruning: a scan or build-side column survives only when the
	// items, WHERE, grouping, HAVING, ORDER BY, or some ON clause
	// references it — unused columns never enter a morsel.
	var refs []*ColRef
	for _, it := range items {
		refs = collectCols(it.Expr, refs)
	}
	if sel.Where != nil {
		refs = collectCols(sel.Where, refs)
	}
	for _, g := range sel.GroupBy {
		refs = collectCols(g, refs)
	}
	if sel.Having != nil {
		refs = collectCols(sel.Having, refs)
	}
	for _, ob := range sel.OrderBy {
		refs = collectCols(ob.Expr, refs)
	}
	root.walkOns(func(on Expr) { refs = collectCols(on, refs) })
	root.prune(refs)
	if err := root.compile(); err != nil {
		return nil, err
	}

	plan := &selectPlan{root: root}
	// src is what the projection runs over: the root's morsels, or the
	// grouped relation.
	src := protoSource(root.outSyms, root.outTypes)
	aggs := findAggregates(items, sel.Having)
	if len(aggs) > 0 || len(sel.GroupBy) > 0 {
		gp, err := planGroup(sel, aggs, src)
		if err != nil {
			return nil, err
		}
		src = gp.source()
		var having Expr
		items, having = groupedItems(items, sel.GroupBy, aggs, sel.Having)
		if having != nil {
			if gp.having, err = compileExpr(having, src); err != nil {
				return nil, err
			}
		}
		plan.group = gp
	} else if sel.Having != nil {
		return nil, fmt.Errorf("sql: HAVING without aggregation")
	}
	if plan.outSchema, plan.outSyms, plan.proj, err = projectMeta(items, src); err != nil {
		return nil, err
	}
	// ORDER BY keys resolve against the projected output first and,
	// without DISTINCT, fall back to the pre-projection source.
	outProto := protoSource(plan.outSyms, typesOfSchema(plan.outSchema))
	for _, ob := range sel.OrderBy {
		k := orderKey{desc: ob.Desc}
		k.prog, err = compileExpr(ob.Expr, outProto)
		if err != nil && !sel.Distinct {
			k.prog, err = compileExpr(ob.Expr, src)
			k.input = true
		}
		if err != nil {
			return nil, err
		}
		plan.sortInput = plan.sortInput || k.input
		plan.order = append(plan.order, k)
	}
	return plan, nil
}

// planGroup checks the grouping shape and compiles the key and
// aggregate-input expressions the streaming group stage evaluates per
// morsel.
func planGroup(sel *SelectStmt, aggs []*FuncCall, proto *source) (*groupPlan, error) {
	gp := &groupPlan{}
	for k, g := range sel.GroupBy {
		p, err := compileExpr(g, proto)
		if err != nil {
			return nil, err
		}
		gp.keyNames = append(gp.keyNames, fmt.Sprintf("g%d", k))
		gp.keyTypes = append(gp.keyTypes, p.typ)
		gp.keyProg = append(gp.keyProg, p)
	}
	if len(aggs) == 0 {
		// The dialect's rule: DISTINCT, not GROUP BY, asks for the keys.
		return nil, fmt.Errorf("rel: group by without aggregates")
	}
	gp.specs = make([]rel.AggSpec, len(aggs))
	gp.argProg = make([]*compiled, len(aggs))
	// A string aggregate input is rel's error for a non-numeric
	// aggregate, in rel's words, and ranks behind every argument-shape
	// error.
	var nonNumeric error
	for k, a := range aggs {
		fn := aggFuncs[a.Name]
		spec := rel.AggSpec{Func: fn, As: fmt.Sprintf("agg%d", k)}
		if !a.Star {
			if len(a.Args) != 1 {
				return nil, fmt.Errorf("sql: %s takes one argument", a.Name)
			}
			p, err := compileExpr(a.Args[0], proto)
			if err != nil {
				return nil, err
			}
			spec.Attr = fmt.Sprintf("a%d", k)
			if p.typ == bat.String && nonNumeric == nil {
				nonNumeric = fmt.Errorf("rel: aggregate %v over non-numeric %q", fn, spec.Attr)
			}
			gp.argProg[k] = p
		} else if fn != rel.Count {
			return nil, fmt.Errorf("sql: %s(*) not supported", a.Name)
		}
		gp.specs[k] = spec
	}
	if nonNumeric != nil {
		return nil, nonNumeric
	}
	return gp, nil
}

// source is the grouped relation's compile-time source: rel.StreamAgg's
// output schema — the keys g<k>, then one agg<k> column per aggregate,
// Int for COUNT and Float otherwise — under the grouped qualifier.
func (gp *groupPlan) source() *source {
	schema := make(rel.Schema, 0, len(gp.keyNames)+len(gp.specs))
	for k, name := range gp.keyNames {
		schema = append(schema, rel.Attr{Name: name, Type: gp.keyTypes[k]})
	}
	for _, sp := range gp.specs {
		t := bat.Float
		if sp.Func == rel.Count {
			t = bat.Int
		}
		schema = append(schema, rel.Attr{Name: sp.As, Type: t})
	}
	return newSource(&rel.Relation{Schema: schema}, grpQual)
}
