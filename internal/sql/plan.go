package sql

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/rel"

	"repro/internal/exec"
)

// This file is the logical planner of the SELECT pipeline, the only
// SELECT executor. It shapes the FROM tree into a left-deep stream plan
// (the left spine streams, every join's right side is materialized and
// indexed), pushes WHERE conjuncts down to the lowest node that can
// evaluate them, prunes columns nothing above the scans references, and
// dry-compiles every expression the runtime will evaluate per morsel, so
// a statement that plans cannot hit a compile error mid-stream. A
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

	bschema rel.Schema // cached internal-name schema for morsel sources
}

// planNode recursively shapes a table expression: joins keep streaming
// down their left spine while their right sides materialize through the
// ordinary FROM machinery (which may itself stream a subquery); every
// other table expression becomes a scan leaf over its materialized —
// for base tables, zero-copy — source.
func (db *DB) planNode(c *exec.Ctx, te TableExpr) (*streamNode, error) {
	if x, ok := te.(*JoinExpr); ok {
		left, err := db.planNode(c, x.Left)
		if err != nil {
			return nil, err
		}
		right, err := db.buildFrom(c, x.Right)
		if err != nil {
			return nil, err
		}
		n := &streamNode{left: left, right: right, kind: x.Kind, on: x.On}
		n.allSyms = append(append([]sym(nil), left.allSyms...), right.syms...)
		return n, nil
	}
	src, err := db.buildFrom(c, te)
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

// check splits every ON clause into equi keys and residual, then
// dry-compiles all the expressions the streaming runtime will compile
// per morsel against zero-row prototype sources carrying the final
// (pruned) symbol tables, so compile errors surface before any morsel
// is pulled.
func (n *streamNode) check() error {
	if n.leaf != nil {
		proto := protoOf(n.leaf)
		for _, p := range n.pred {
			if _, err := compileExpr(p, proto); err != nil {
				return err
			}
		}
		return nil
	}
	if err := n.left.check(); err != nil {
		return err
	}
	rightProto := protoOf(n.right)
	for _, p := range n.rightPred {
		if _, err := compileExpr(p, rightProto); err != nil {
			return err
		}
	}
	if n.kind != JoinCross {
		n.lk, n.rk, n.residual = extractEqui(n.on, &source{syms: n.left.outSyms}, &source{syms: n.right.syms})
		if len(n.lk) == 0 {
			if n.kind == JoinLeft {
				return fmt.Errorf("sql: LEFT JOIN requires an equi-join condition")
			}
			// Nested-loop fallback: cross then filter on the whole ON.
			n.residual = []Expr{n.on}
		}
	}
	leftProto := protoSource(n.left.outSyms, n.left.outTypes)
	for _, e := range n.lk {
		if _, err := compileExpr(e, leftProto); err != nil {
			return err
		}
	}
	for _, e := range n.rk {
		if _, err := compileExpr(e, rightProto); err != nil {
			return err
		}
	}
	outProto := protoSource(n.outSyms, n.outTypes)
	for _, e := range n.residual {
		if _, err := compileExpr(e, outProto); err != nil {
			return err
		}
	}
	for _, e := range n.post {
		if _, err := compileExpr(e, outProto); err != nil {
			return err
		}
	}
	return nil
}

// finalize pre-builds the morsel schema of every node in the tree.
// planStream calls it once planning succeeds, so concurrent executions
// of a shared (cached) plan never race on the lazily built bschema.
func (n *streamNode) finalize() {
	n.batchSchema()
	if n.left != nil {
		n.left.finalize()
	}
}

// batchSchema returns the node's internal-name schema for wrapping
// morsels as expression sources, built once.
func (n *streamNode) batchSchema() rel.Schema {
	if n.bschema == nil {
		n.bschema = make(rel.Schema, len(n.outSyms))
		for k := range n.outSyms {
			n.bschema[k] = rel.Attr{Name: internalName(k), Type: n.outTypes[k]}
		}
	}
	return n.bschema
}

// batchSource wraps one morsel as a source so the ordinary expression
// compiler evaluates against it with row indexes local to the morsel.
func (n *streamNode) batchSource(b *bat.Batch) *source {
	cols := make([]*bat.BAT, b.NumCols())
	for k := range cols {
		cols[k] = bat.FromVector(b.Col(k))
	}
	return &source{rel: &rel.Relation{Schema: n.batchSchema(), Cols: cols}, syms: n.outSyms}
}

// protoSource builds a zero-row source with the given symbols and types:
// a compile target for plan-time checks, since name resolution and
// typing never depend on row data.
func protoSource(syms []sym, types []bat.Type) *source {
	schema := make(rel.Schema, len(syms))
	cols := make([]*bat.BAT, len(syms))
	for k := range syms {
		schema[k] = rel.Attr{Name: internalName(k), Type: types[k]}
		switch types[k] {
		case bat.Int:
			cols[k] = bat.FromInts(nil)
		case bat.String:
			cols[k] = bat.FromStrings(nil)
		default:
			cols[k] = bat.FromFloats(nil)
		}
	}
	return &source{rel: &rel.Relation{Schema: schema, Cols: cols}, syms: syms}
}

// protoOf is protoSource over an existing source's symbols and types —
// used so plan-time compiles never touch the source's columns (binding a
// sparse column would densify it just for a type check).
func protoOf(s *source) *source {
	types := make([]bat.Type, len(s.rel.Schema))
	for k := range s.rel.Schema {
		types[k] = s.rel.Schema[k].Type
	}
	return protoSource(s.syms, types)
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
	items []SelectItem // star-expanded working copy (the AST is never mutated)

	group *groupPlan // set when the statement aggregates

	// Non-aggregating projection metadata (group == nil).
	outSchema rel.Schema
	outSyms   []sym
	// sortInput marks an ORDER BY key that resolves only against the
	// pre-projection columns: the projection keeps them for the sort.
	sortInput bool
}

// groupPlan carries the streaming aggregation shape: grouping key
// expressions with their resolved names/types, and one AggSpec plus
// input expression (nil for COUNT(*)) per aggregate call.
type groupPlan struct {
	aggs     []*FuncCall
	keyNames []string
	keyTypes []bat.Type
	specs    []rel.AggSpec
	argExprs []Expr
}

// planStream plans one SELECT for streaming execution. Its error —
// unsupported shape, unresolved column, type problem — is the
// statement's error.
func (db *DB) planStream(c *exec.Ctx, sel *SelectStmt) (*selectPlan, error) {
	root, err := db.planNode(c, sel.From)
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
	if err := root.check(); err != nil {
		return nil, err
	}
	root.finalize()

	plan := &selectPlan{root: root, items: items}
	proto := protoSource(root.outSyms, root.outTypes)
	aggs := findAggregates(items, sel.Having)
	if len(aggs) > 0 || len(sel.GroupBy) > 0 {
		gp, err := planGroup(sel, aggs, proto)
		if err != nil {
			return nil, err
		}
		plan.group = gp
		return plan, nil
	}
	if sel.Having != nil {
		return nil, fmt.Errorf("sql: HAVING without aggregation")
	}
	schema, syms, _, err := projectMeta(items, proto)
	if err != nil {
		return nil, err
	}
	plan.outSchema, plan.outSyms = schema, syms
	// ORDER BY keys resolve against the projected output first and,
	// without DISTINCT, fall back to the input columns — finishOutput's
	// rule, which the projection then feeds with the kept input.
	outProto := protoSource(syms, typesOfSchema(schema))
	for _, ob := range sel.OrderBy {
		_, err := compileExpr(ob.Expr, outProto)
		if err != nil && !sel.Distinct {
			_, err = compileExpr(ob.Expr, proto)
			plan.sortInput = true
		}
		if err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// planGroup checks the grouping shape and resolves the key and
// aggregate-input expressions the streaming group stage evaluates per
// morsel.
func planGroup(sel *SelectStmt, aggs []*FuncCall, proto *source) (*groupPlan, error) {
	gp := &groupPlan{aggs: aggs}
	for k, g := range sel.GroupBy {
		comp, err := compileExpr(g, proto)
		if err != nil {
			return nil, err
		}
		gp.keyNames = append(gp.keyNames, fmt.Sprintf("g%d", k))
		gp.keyTypes = append(gp.keyTypes, comp.typ)
	}
	if len(aggs) == 0 {
		// The grouping operator's own rejection, in its words.
		return nil, fmt.Errorf("rel: group by without aggregates")
	}
	gp.specs = make([]rel.AggSpec, len(aggs))
	gp.argExprs = make([]Expr, len(aggs))
	// A string aggregate input is rel.GroupBy's error, in rel's words,
	// and ranks behind every argument-shape error.
	var nonNumeric error
	for k, a := range aggs {
		fn := aggFuncs[a.Name]
		spec := rel.AggSpec{Func: fn, As: fmt.Sprintf("agg%d", k)}
		if !a.Star {
			if len(a.Args) != 1 {
				return nil, fmt.Errorf("sql: %s takes one argument", a.Name)
			}
			comp, err := compileExpr(a.Args[0], proto)
			if err != nil {
				return nil, err
			}
			spec.Attr = fmt.Sprintf("a%d", k)
			if comp.typ == bat.String && nonNumeric == nil {
				nonNumeric = fmt.Errorf("rel: aggregate %v over non-numeric %q", fn, spec.Attr)
			}
			gp.argExprs[k] = a.Args[0]
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
