package sql

import (
	"errors"
	"fmt"
	"math"
	"regexp"
	"strings"

	"repro/internal/bat"
	"repro/internal/exec"
	"repro/internal/rel"
	"repro/internal/store"
)

// This file is the expression evaluator: SQL scalar expressions compiled
// into column-at-a-time programs, MonetDB-style.
//
// compileExpr runs once per plan. It resolves names and types against a
// source's symbol table and binds every column reference to a column
// position, never to data, so the planner compiles against zero-row
// prototype sources and the program runs unchanged over every morsel of
// every execution. Programs are immutable; a cached plan runs them from
// any number of concurrent statements.
//
// A program evaluates over a frame: the column vectors of one morsel or
// of one whole relation, plus the statement context whose arena supplies
// every intermediate. Each node produces one vector. A bare column
// reference returns the frame's own vector (zero copy), a literal
// broadcasts, and every operator is one tight typed loop over its
// children's vectors. An intermediate goes back to the arena as soon as
// its parent has consumed it.
//
// Predicates refine a candidate list, an ascending list of the rows
// still in play (MonetDB's candidate lists). A later conjunct, the right
// side of AND/OR, a later IN item and BETWEEN's upper bound evaluate
// only on the rows the earlier parts leave undecided. No kernel reads or
// computes outside its candidate rows, so evaluation keeps the row-wise
// short-circuit semantics: a row that an earlier conjunct rejects can
// never fail the statement (an integer % by zero is the one failing
// operation; it returns ErrDivisionByZero).
//
// Every float operation, its association, and the int→float conversion
// (float64(i), bat.Value.AsFloat's) are the ones a row-at-a-time
// evaluation performs, so results are bitwise identical to it.

// ErrDivisionByZero is the statement error of an integer % whose right
// operand is zero on an evaluated row.
var ErrDivisionByZero = errors.New("sql: integer modulo by zero")

// source is a row source during execution: a working relation whose
// physical column names are internal ("#0", "#1", ...) plus the symbol
// table that maps user-visible (qualifier, name) pairs to columns.
// Compilation reads only the symbols and the schema's types, so a
// plan-time source may carry no columns at all.
type source struct {
	rel  *rel.Relation
	syms []sym

	// stored is the open segment reader when the source is a persisted
	// base table; the streaming scan uses its per-segment zone maps to
	// skip row ranges that cannot satisfy pushed-down predicates. Nil
	// for derived or non-persisted sources.
	stored *store.Reader
}

type sym struct {
	qual string
	name string
}

// newSource wraps a relation whose schema names are user-visible under a
// qualifier, renaming columns to internal names.
func newSource(r *rel.Relation, qual string) *source {
	schema := make(rel.Schema, len(r.Schema))
	syms := make([]sym, len(r.Schema))
	for k, a := range r.Schema {
		schema[k] = rel.Attr{Name: internalName(k), Type: a.Type}
		syms[k] = sym{qual: qual, name: a.Name}
	}
	return &source{
		rel:  &rel.Relation{Name: r.Name, Schema: schema, Cols: r.Cols},
		syms: syms,
	}
}

func internalName(k int) string { return fmt.Sprintf("#%d", k) }

// resolve finds the column index for a reference; unqualified names must be
// unambiguous among visible symbols.
func (s *source) resolve(qual, name string) (int, error) {
	found := -1
	for k, sy := range s.syms {
		if sy.name != name {
			continue
		}
		if qual != "" && sy.qual != qual {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sql: ambiguous column %q", refName(qual, name))
		}
		found = k
	}
	if found < 0 {
		return 0, fmt.Errorf("sql: unknown column %q", refName(qual, name))
	}
	return found, nil
}

func refName(qual, name string) string {
	if qual == "" {
		return name
	}
	return qual + "." + name
}

// --- frames -----------------------------------------------------------------

// frame is the input of one evaluation: column vectors bound by source
// position plus the context whose arena supplies every intermediate. A
// frame belongs to one goroutine and one evaluation; release hands its
// own scratch back.
type frame struct {
	c    *exec.Ctx
	n    int
	cols []*bat.Vector // by source position; nil where not bound
	all  []int         // the identity candidate list, drawn on first use
}

// batchFrame binds one morsel's columns.
func batchFrame(c *exec.Ctx, b *bat.Batch) *frame {
	cols := make([]*bat.Vector, b.NumCols())
	for k := range cols {
		cols[k] = b.Col(k)
	}
	return &frame{c: c, n: b.Len(), cols: cols}
}

// relFrame binds a whole relation's columns.
func relFrame(c *exec.Ctx, r *rel.Relation) *frame {
	cols := make([]*bat.Vector, len(r.Cols))
	for k, col := range r.Cols {
		cols[k] = col.Vector()
	}
	return &frame{c: c, n: r.NumRows(), cols: cols}
}

// rows resolves a candidate list: nil stands for every row.
func (f *frame) rows(rows []int) []int {
	if rows != nil {
		return rows
	}
	if f.all == nil {
		f.all = bat.Identity(f.c, f.n)
	}
	return f.all
}

// newRows draws an empty candidate list with room for every row; it is
// never nil, so an empty result is never mistaken for "every row".
func (f *frame) newRows() []int { return f.c.Arena().Ints(max(f.n, 1))[:0] }

func (f *frame) freeRows(rows []int) { f.c.Arena().FreeInts(rows) }

// input returns the position of v among the frame's input columns, or
// -1 when v is an evaluation result.
func (f *frame) input(v *bat.Vector) int {
	for k, w := range f.cols {
		if w == v {
			return k
		}
	}
	return -1
}

// free hands an evaluation result back to the arena; the frame's own
// input columns are left alone.
func (f *frame) free(v *bat.Vector) {
	if f.input(v) < 0 {
		freeVec(f.c, v)
	}
}

func (f *frame) release() {
	if f.all != nil {
		f.c.Arena().FreeInts(f.all)
		f.all = nil
	}
}

// filter returns the rows on which every predicate is truthy as a fresh
// candidate list, each conjunct evaluated only on the survivors of the
// ones before it. preds must not be empty.
func (f *frame) filter(preds []*compiled) ([]int, error) {
	var rows []int
	for _, p := range preds {
		out, err := p.sel(f, rows)
		if rows != nil {
			f.freeRows(rows)
		}
		if err != nil {
			return nil, err
		}
		if rows = out; len(rows) == 0 {
			break
		}
	}
	return rows, nil
}

// broadcast fills a vector of the frame's length with one value.
func (f *frame) broadcast(v bat.Value) *bat.Vector {
	switch v.Type {
	case bat.Int:
		out := f.c.Arena().Int64s(f.n)
		for i := range out {
			out[i] = v.I
		}
		return bat.NewIntVector(out)
	case bat.String:
		out := f.c.Arena().Strings(f.n)
		for i := range out {
			out[i] = v.S
		}
		return bat.NewStringVector(out)
	}
	out := f.c.Arena().Floats(f.n)
	for i := range out {
		out[i] = v.F
	}
	return bat.NewFloatVector(out)
}

// asFloats converts v at the candidate rows with AsFloat's rule — ints
// convert exactly as float64(i), strings read 0 — consuming v. A float
// vector is returned as is.
func (f *frame) asFloats(v *bat.Vector, rows []int) *bat.Vector {
	if v.Type() == bat.Float {
		return v
	}
	out := f.c.Arena().Floats(f.n)
	if v.Type() == bat.Int {
		a := v.Ints()
		for _, i := range f.rows(rows) {
			out[i] = float64(a[i])
		}
	} else {
		for _, i := range f.rows(rows) {
			out[i] = 0
		}
	}
	f.free(v)
	return bat.NewFloatVector(out)
}

// minus returns rows without drop (a sub-list of rows), as a fresh list.
func (f *frame) minus(rows, drop []int) []int {
	out := f.newRows()
	k := 0
	for _, i := range rows {
		if k < len(drop) && drop[k] == i {
			k++
			continue
		}
		out = append(out, i)
	}
	return out
}

// union merges two disjoint ascending candidate lists into a fresh one.
func (f *frame) union(a, b []int) []int {
	out := f.newRows()
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// --- programs ---------------------------------------------------------------

// compiled is one node of a column-at-a-time expression program. Both
// evaluators take a candidate list (ascending row positions; nil means
// every row) and touch only those rows.
type compiled struct {
	typ bat.Type
	// val evaluates the node into a vector of the frame's length whose
	// candidate positions are defined; the caller hands it back with
	// frame.free.
	val valFn
	// sel returns the candidate rows on which the node is truthy, as a
	// fresh list the caller hands back with frame.freeRows.
	sel selFn
}

type (
	valFn func(f *frame, rows []int) (*bat.Vector, error)
	selFn func(f *frame, rows []int) ([]int, error)
)

// valueNode is a node computed as a vector; as a predicate it selects
// the rows whose value is truthy (non-zero, NaN included; non-empty).
func valueNode(typ bat.Type, val valFn) *compiled {
	return &compiled{typ: typ, val: val, sel: func(f *frame, rows []int) ([]int, error) {
		v, err := val(f, rows)
		if err != nil {
			return nil, err
		}
		out := truthyRows(v, f.rows(rows), f.newRows())
		f.free(v)
		return out, nil
	}}
}

// predNode is a node computed as a candidate list; as a value it is the
// Int 1 on selected rows and 0 on the other candidates.
func predNode(sel selFn) *compiled {
	return &compiled{typ: bat.Int, sel: sel, val: func(f *frame, rows []int) (*bat.Vector, error) {
		hit, err := sel(f, rows)
		if err != nil {
			return nil, err
		}
		out := f.c.Arena().Int64s(f.n)
		for _, i := range f.rows(rows) {
			out[i] = 0
		}
		for _, i := range hit {
			out[i] = 1
		}
		f.freeRows(hit)
		return bat.NewIntVector(out), nil
	}}
}

// evalPair evaluates two operands in order over the same candidates.
func evalPair(f *frame, rows []int, l, r *compiled) (lv, rv *bat.Vector, err error) {
	if lv, err = l.val(f, rows); err != nil {
		return nil, nil, err
	}
	if rv, err = r.val(f, rows); err != nil {
		f.free(lv)
		return nil, nil, err
	}
	return lv, rv, nil
}

// aggregate function names.
var aggFuncs = map[string]rel.AggFunc{
	"COUNT": rel.Count, "SUM": rel.Sum, "AVG": rel.Avg, "MIN": rel.Min, "MAX": rel.Max,
}

// compileExpr compiles a scalar expression against the source's symbols
// (nil: no column may be referenced). Aggregate calls are rejected here;
// the SELECT pipeline rewrites them to column references before
// compiling.
func compileExpr(e Expr, s *source) (*compiled, error) {
	switch x := e.(type) {
	case *NumberLit:
		if x.IsInt {
			return constant(bat.IntValue(x.Int)), nil
		}
		return constant(bat.FloatValue(x.Float)), nil
	case *StringLit:
		return constant(bat.StringValue(x.Val)), nil
	case *ColRef:
		if s == nil {
			return nil, fmt.Errorf("sql: column %q not allowed here", refName(x.Qualifier, x.Name))
		}
		k, err := s.resolve(x.Qualifier, x.Name)
		if err != nil {
			return nil, err
		}
		return valueNode(s.rel.Schema[k].Type, func(f *frame, _ []int) (*bat.Vector, error) {
			return f.cols[k], nil
		}), nil
	case *UnaryExpr:
		in, err := compileExpr(x.E, s)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "-":
			if in.typ == bat.String {
				return nil, fmt.Errorf("sql: unary - over string")
			}
			return compileNeg(in), nil
		case "NOT":
			if in.typ == bat.String {
				return nil, fmt.Errorf("sql: NOT over string")
			}
			return predNode(func(f *frame, rows []int) ([]int, error) {
				hit, err := in.sel(f, rows)
				if err != nil {
					return nil, err
				}
				out := f.minus(f.rows(rows), hit)
				f.freeRows(hit)
				return out, nil
			}), nil
		}
		return nil, fmt.Errorf("sql: unknown unary operator %q", x.Op)
	case *BinaryExpr:
		return compileBinary(x, s)
	case *FuncCall:
		if _, isAgg := aggFuncs[x.Name]; isAgg {
			return nil, fmt.Errorf("sql: aggregate %s not allowed in this context", x.Name)
		}
		return compileScalarFunc(x, s)
	case *InExpr:
		return compileIn(x, s)
	case *BetweenExpr:
		return compileBetween(x, s)
	case *LikeExpr:
		return compileLike(x, s)
	}
	return nil, fmt.Errorf("sql: unsupported expression %T", e)
}

// compileAll compiles a list of expressions against one source.
func compileAll(es []Expr, s *source) ([]*compiled, error) {
	var out []*compiled
	if len(es) > 0 {
		out = make([]*compiled, len(es))
	}
	for k, e := range es {
		p, err := compileExpr(e, s)
		if err != nil {
			return nil, err
		}
		out[k] = p
	}
	return out, nil
}

func constant(v bat.Value) *compiled {
	return valueNode(v.Type, func(f *frame, _ []int) (*bat.Vector, error) {
		return f.broadcast(v), nil
	})
}

func compileNeg(in *compiled) *compiled {
	return valueNode(in.typ, func(f *frame, rows []int) (*bat.Vector, error) {
		v, err := in.val(f, rows)
		if err != nil {
			return nil, err
		}
		var out *bat.Vector
		if in.typ == bat.Int {
			o := f.c.Arena().Int64s(f.n)
			neg(o, v.Ints(), f.rows(rows))
			out = bat.NewIntVector(o)
		} else {
			o := f.c.Arena().Floats(f.n)
			neg(o, v.Floats(), f.rows(rows))
			out = bat.NewFloatVector(o)
		}
		f.free(v)
		return out, nil
	})
}

func compileIn(x *InExpr, s *source) (*compiled, error) {
	e, err := compileExpr(x.E, s)
	if err != nil {
		return nil, err
	}
	str := e.typ == bat.String
	items := make([]*compiled, len(x.List))
	for k, le := range x.List {
		c, err := compileExpr(le, s)
		if err != nil {
			return nil, err
		}
		if (c.typ == bat.String) != str {
			return nil, fmt.Errorf("sql: IN list mixes strings with numbers")
		}
		items[k] = c
	}
	// Each item is evaluated only on the rows no earlier item matched.
	return predNode(func(f *frame, rows []int) ([]int, error) {
		v, err := e.val(f, rows)
		if err != nil {
			return nil, err
		}
		if !str {
			v = f.asFloats(v, rows)
		}
		all := f.rows(rows)
		miss := append(f.newRows(), all...)
		for _, it := range items {
			if len(miss) == 0 {
				break
			}
			w, err := it.val(f, miss)
			if err != nil {
				f.free(v)
				f.freeRows(miss)
				return nil, err
			}
			if str {
				miss = cmpRows(opEq, v.Strings(), w.Strings(), miss, miss[:0], false)
			} else {
				w = f.asFloats(w, miss)
				miss = cmpRows(opEqIEEE, v.Floats(), w.Floats(), miss, miss[:0], false)
			}
			f.free(w)
		}
		f.free(v)
		if x.Not {
			return miss, nil
		}
		out := f.minus(all, miss)
		f.freeRows(miss)
		return out, nil
	}), nil
}

func compileBetween(x *BetweenExpr, s *source) (*compiled, error) {
	e, err := compileExpr(x.E, s)
	if err != nil {
		return nil, err
	}
	lo, err := compileExpr(x.Lo, s)
	if err != nil {
		return nil, err
	}
	hi, err := compileExpr(x.Hi, s)
	if err != nil {
		return nil, err
	}
	str := e.typ == bat.String
	if (lo.typ == bat.String) != str || (hi.typ == bat.String) != str {
		return nil, fmt.Errorf("sql: BETWEEN bounds mix strings with numbers")
	}
	// lo <= v, then v <= hi on the rows that passed: IEEE comparisons,
	// so a NaN on either side is outside the range.
	between := func(a, b *bat.Vector, rows, out []int) []int {
		if str {
			return cmpRows(opLeIEEE, a.Strings(), b.Strings(), rows, out, true)
		}
		return cmpRows(opLeIEEE, a.Floats(), b.Floats(), rows, out, true)
	}
	return predNode(func(f *frame, rows []int) ([]int, error) {
		v, lv, err := evalPair(f, rows, e, lo)
		if err != nil {
			return nil, err
		}
		if !str {
			v, lv = f.asFloats(v, rows), f.asFloats(lv, rows)
		}
		all := f.rows(rows)
		in := between(lv, v, all, f.newRows())
		f.free(lv)
		if len(in) > 0 {
			hv, err := hi.val(f, in)
			if err != nil {
				f.free(v)
				f.freeRows(in)
				return nil, err
			}
			if !str {
				hv = f.asFloats(hv, in)
			}
			in = between(v, hv, in, in[:0])
			f.free(hv)
		}
		f.free(v)
		if !x.Not {
			return in, nil
		}
		out := f.minus(all, in)
		f.freeRows(in)
		return out, nil
	}), nil
}

func compileLike(x *LikeExpr, s *source) (*compiled, error) {
	e, err := compileExpr(x.E, s)
	if err != nil {
		return nil, err
	}
	if e.typ != bat.String {
		return nil, fmt.Errorf("sql: LIKE over non-string expression")
	}
	// Translate the SQL pattern (% = any run, _ = any one) to a regexp
	// anchored at both ends.
	var sb strings.Builder
	sb.WriteByte('^')
	for _, r := range x.Pattern {
		switch r {
		case '%':
			sb.WriteString("(?s).*")
		case '_':
			sb.WriteString("(?s).")
		default:
			sb.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	sb.WriteByte('$')
	re, err := regexp.Compile(sb.String())
	if err != nil {
		return nil, fmt.Errorf("sql: bad LIKE pattern %q: %v", x.Pattern, err)
	}
	return predNode(func(f *frame, rows []int) ([]int, error) {
		v, err := e.val(f, rows)
		if err != nil {
			return nil, err
		}
		sv, out := v.Strings(), f.newRows()
		for _, i := range f.rows(rows) {
			if re.MatchString(sv[i]) != x.Not {
				out = append(out, i)
			}
		}
		f.free(v)
		return out, nil
	}), nil
}

func compileBinary(x *BinaryExpr, s *source) (*compiled, error) {
	l, err := compileExpr(x.L, s)
	if err != nil {
		return nil, err
	}
	r, err := compileExpr(x.R, s)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "AND":
		return predNode(func(f *frame, rows []int) ([]int, error) {
			lr, err := l.sel(f, rows)
			if err != nil || len(lr) == 0 {
				return lr, err
			}
			out, err := r.sel(f, lr)
			f.freeRows(lr)
			return out, err
		}), nil
	case "OR":
		return predNode(func(f *frame, rows []int) ([]int, error) {
			lr, err := l.sel(f, rows)
			if err != nil {
				return nil, err
			}
			rest := f.minus(f.rows(rows), lr)
			if len(rest) == 0 {
				f.freeRows(rest)
				return lr, nil
			}
			rr, err := r.sel(f, rest)
			f.freeRows(rest)
			if err != nil {
				f.freeRows(lr)
				return nil, err
			}
			out := f.union(lr, rr)
			f.freeRows(lr)
			f.freeRows(rr)
			return out, nil
		}), nil
	case "=", "<>", "<", "<=", ">", ">=":
		return compileCompare(x.Op, l, r)
	case "+", "-", "*", "/", "%":
		return compileArith(x.Op[0], l, r)
	}
	return nil, fmt.Errorf("sql: unknown operator %q", x.Op)
}

func compileCompare(op string, l, r *compiled) (*compiled, error) {
	str := l.typ == bat.String
	if (r.typ == bat.String) != str {
		return nil, fmt.Errorf("sql: cannot compare %v with %v", l.typ, r.typ)
	}
	code := map[string]byte{"=": opEq, "<>": opNe, "<": opLt, "<=": opLe, ">": opGt, ">=": opGe}[op]
	return predNode(func(f *frame, rows []int) ([]int, error) {
		lv, rv, err := evalPair(f, rows, l, r)
		if err != nil {
			return nil, err
		}
		var out []int
		if str {
			out = cmpRows(code, lv.Strings(), rv.Strings(), f.rows(rows), f.newRows(), true)
		} else {
			lv, rv = f.asFloats(lv, rows), f.asFloats(rv, rows)
			out = cmpRows(code, lv.Floats(), rv.Floats(), f.rows(rows), f.newRows(), true)
		}
		f.free(lv)
		f.free(rv)
		return out, nil
	}), nil
}

// compileArith: Int op Int stays Int for + - * % (two's-complement
// wraparound); everything else, and / always, computes in float64.
func compileArith(op byte, l, r *compiled) (*compiled, error) {
	if l.typ == bat.String || r.typ == bat.String {
		return nil, fmt.Errorf("sql: arithmetic over strings")
	}
	if l.typ == bat.Int && r.typ == bat.Int && op != '/' {
		return valueNode(bat.Int, func(f *frame, rows []int) (*bat.Vector, error) {
			lv, rv, err := evalPair(f, rows, l, r)
			if err != nil {
				return nil, err
			}
			out := f.c.Arena().Int64s(f.n)
			err = arithInt(op, out, lv.Ints(), rv.Ints(), f.rows(rows))
			f.free(lv)
			f.free(rv)
			if err != nil {
				f.c.Arena().FreeInt64s(out)
				return nil, err
			}
			return bat.NewIntVector(out), nil
		}), nil
	}
	return valueNode(bat.Float, func(f *frame, rows []int) (*bat.Vector, error) {
		lv, rv, err := evalPair(f, rows, l, r)
		if err != nil {
			return nil, err
		}
		lv, rv = f.asFloats(lv, rows), f.asFloats(rv, rows)
		out := f.c.Arena().Floats(f.n)
		arithFloat(op, out, lv.Floats(), rv.Floats(), f.rows(rows))
		f.free(lv)
		f.free(rv)
		return bat.NewFloatVector(out), nil
	}), nil
}

var unaryFuncs = map[string]func(float64) float64{
	"ABS": math.Abs, "SQRT": math.Sqrt, "FLOOR": math.Floor,
	"CEIL": math.Ceil, "EXP": math.Exp, "LN": math.Log,
}

func compileScalarFunc(x *FuncCall, s *source) (*compiled, error) {
	if fn, ok := unaryFuncs[x.Name]; ok {
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("sql: %s takes one argument", x.Name)
		}
		in, err := compileExpr(x.Args[0], s)
		if err != nil {
			return nil, err
		}
		if in.typ == bat.String {
			return nil, fmt.Errorf("sql: %s over string", x.Name)
		}
		return valueNode(bat.Float, func(f *frame, rows []int) (*bat.Vector, error) {
			v, err := in.val(f, rows)
			if err != nil {
				return nil, err
			}
			v = f.asFloats(v, rows)
			a, out := v.Floats(), f.c.Arena().Floats(f.n)
			for _, i := range f.rows(rows) {
				out[i] = fn(a[i])
			}
			f.free(v)
			return bat.NewFloatVector(out), nil
		}), nil
	}
	if x.Name == "POW" || x.Name == "POWER" {
		if len(x.Args) != 2 {
			return nil, fmt.Errorf("sql: POW takes two arguments")
		}
		a, err := compileExpr(x.Args[0], s)
		if err != nil {
			return nil, err
		}
		b, err := compileExpr(x.Args[1], s)
		if err != nil {
			return nil, err
		}
		return valueNode(bat.Float, func(f *frame, rows []int) (*bat.Vector, error) {
			av, bv, err := evalPair(f, rows, a, b)
			if err != nil {
				return nil, err
			}
			av, bv = f.asFloats(av, rows), f.asFloats(bv, rows)
			x, y, out := av.Floats(), bv.Floats(), f.c.Arena().Floats(f.n)
			for _, i := range f.rows(rows) {
				out[i] = math.Pow(x[i], y[i])
			}
			f.free(av)
			f.free(bv)
			return bat.NewFloatVector(out), nil
		}), nil
	}
	return nil, fmt.Errorf("sql: unknown function %s", x.Name)
}

// --- kernels ----------------------------------------------------------------

// Comparison codes. The SQL operators follow a three-way comparison in
// which a NaN operand compares equal to everything (neither < nor >);
// the IEEE codes are the plain Go operators, false on NaN, which IN's
// equality and BETWEEN's bounds use.
const (
	opEq byte = iota
	opNe
	opLt
	opLe
	opGt
	opGe
	opEqIEEE
	opLeIEEE
)

// cmpRows appends to out the rows where (a[i] op b[i]) == want.
func cmpRows[T float64 | string](op byte, a, b []T, rows, out []int, want bool) []int {
	switch op {
	case opEq:
		for _, i := range rows {
			if !(a[i] < b[i] || a[i] > b[i]) == want {
				out = append(out, i)
			}
		}
	case opNe:
		for _, i := range rows {
			if (a[i] < b[i] || a[i] > b[i]) == want {
				out = append(out, i)
			}
		}
	case opLt:
		for _, i := range rows {
			if (a[i] < b[i]) == want {
				out = append(out, i)
			}
		}
	case opLe:
		for _, i := range rows {
			if !(a[i] > b[i]) == want {
				out = append(out, i)
			}
		}
	case opGt:
		for _, i := range rows {
			if (a[i] > b[i]) == want {
				out = append(out, i)
			}
		}
	case opGe:
		for _, i := range rows {
			if !(a[i] < b[i]) == want {
				out = append(out, i)
			}
		}
	case opEqIEEE:
		for _, i := range rows {
			if (a[i] == b[i]) == want {
				out = append(out, i)
			}
		}
	case opLeIEEE:
		for _, i := range rows {
			if (a[i] <= b[i]) == want {
				out = append(out, i)
			}
		}
	}
	return out
}

// The value kernels below write out[i] for each candidate row i.

func neg[T int64 | float64](out, a []T, rows []int) {
	for _, i := range rows {
		out[i] = -a[i]
	}
}

func arithFloat(op byte, out, a, b []float64, rows []int) {
	switch op {
	case '+':
		for _, i := range rows {
			out[i] = a[i] + b[i]
		}
	case '-':
		for _, i := range rows {
			out[i] = a[i] - b[i]
		}
	case '*':
		for _, i := range rows {
			out[i] = a[i] * b[i]
		}
	case '/':
		for _, i := range rows {
			out[i] = a[i] / b[i]
		}
	case '%':
		for _, i := range rows {
			out[i] = math.Mod(a[i], b[i])
		}
	}
}

func arithInt(op byte, out, a, b []int64, rows []int) error {
	switch op {
	case '+':
		for _, i := range rows {
			out[i] = a[i] + b[i]
		}
	case '-':
		for _, i := range rows {
			out[i] = a[i] - b[i]
		}
	case '*':
		for _, i := range rows {
			out[i] = a[i] * b[i]
		}
	case '%':
		for _, i := range rows {
			if b[i] == 0 {
				return ErrDivisionByZero
			}
			out[i] = a[i] % b[i]
		}
	}
	return nil
}

// truthyRows appends to out the rows whose value is truthy.
func truthyRows(v *bat.Vector, rows, out []int) []int {
	switch v.Type() {
	case bat.Int:
		a := v.Ints()
		for _, i := range rows {
			if a[i] != 0 {
				out = append(out, i)
			}
		}
	case bat.Float:
		a := v.Floats()
		for _, i := range rows {
			if a[i] != 0 {
				out = append(out, i)
			}
		}
	default:
		a := v.Strings()
		for _, i := range rows {
			if a[i] != "" {
				out = append(out, i)
			}
		}
	}
	return out
}

// keyOf serializes an expression structurally, used to match GROUP BY
// expressions against occurrences in SELECT items and HAVING.
func keyOf(e Expr) string {
	switch x := e.(type) {
	case *NumberLit:
		if x.IsInt {
			return fmt.Sprintf("i:%d", x.Int)
		}
		return fmt.Sprintf("f:%g", x.Float)
	case *StringLit:
		return fmt.Sprintf("s:%q", x.Val)
	case *ColRef:
		return "c:" + refName(x.Qualifier, x.Name)
	case *UnaryExpr:
		return "u:" + x.Op + "(" + keyOf(x.E) + ")"
	case *BinaryExpr:
		return "b:" + x.Op + "(" + keyOf(x.L) + "," + keyOf(x.R) + ")"
	case *FuncCall:
		parts := make([]string, len(x.Args))
		for i, a := range x.Args {
			parts[i] = keyOf(a)
		}
		star := ""
		if x.Star {
			star = "*"
		}
		return "fn:" + x.Name + "(" + star + strings.Join(parts, ",") + ")"
	case *InExpr:
		parts := make([]string, len(x.List))
		for i, a := range x.List {
			parts[i] = keyOf(a)
		}
		return fmt.Sprintf("in:%v(%s;%s)", x.Not, keyOf(x.E), strings.Join(parts, ","))
	case *BetweenExpr:
		return fmt.Sprintf("btw:%v(%s;%s;%s)", x.Not, keyOf(x.E), keyOf(x.Lo), keyOf(x.Hi))
	case *LikeExpr:
		return fmt.Sprintf("like:%v(%s;%q)", x.Not, keyOf(x.E), x.Pattern)
	}
	return fmt.Sprintf("%T", e)
}
