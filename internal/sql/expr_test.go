package sql

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/exec"
	"repro/internal/rel"
)

// This file is the expression differential test. Random typed
// expression trees over edge-valued columns are evaluated by the
// column-at-a-time evaluator (eval.go) and by the row-wise reference
// (rowexpr_test.go), which must agree bit for bit: in every value, in
// the type, in the compile-error text, and in whether an evaluation
// fails — an integer % by zero panics in the reference and returns
// ErrDivisionByZero from the engine, in both cases only when a row the
// evaluation reaches divides by zero. Every tree runs over a
// whole-relation frame and over morsel frames, each with every row and
// with a random candidate list, at the morsel-boundary sizes.

var (
	exprInts   = []int64{0, 1, -1, 2, 3, -7, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1}
	exprFloats = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -2.25, 3, 1e300, -1e300, 1 << 53, 5e-324,
		math.NaN(), math.Inf(1), math.Inf(-1)}
	exprStrs  = []string{"", "a", "ab", "abc", "b", "B", "a_c", "%", "ba"}
	exprLikes = []string{"a%", "%b", "_", "%", "", "a_c", "%a%", "B%", "__"}
	exprArith = []string{"+", "-", "*", "/", "%"}
	exprCmp   = []string{"=", "<>", "<", "<=", ">", ">="}
	exprFuncs = []string{"ABS", "SQRT", "FLOOR", "CEIL", "EXP", "LN"}
)

// exprKinds are the node kinds every run of the generator must produce.
var exprKinds = func() []string {
	kinds := []string{"lit:int", "lit:float", "lit:str", "col:int", "col:float", "col:str",
		"neg", "NOT", "AND", "OR", "IN", "NOT IN", "BETWEEN", "NOT BETWEEN", "LIKE", "NOT LIKE",
		"fn:POW", "fn:POWER", "type-mix"}
	for _, op := range exprArith {
		kinds = append(kinds, "arith:"+op)
	}
	for _, op := range exprCmp {
		kinds = append(kinds, "cmp:"+op)
	}
	for _, fn := range exprFuncs {
		kinds = append(kinds, "fn:"+fn)
	}
	return kinds
}()

// exprSource is an n-row relation e(i, j, x, y, s, t) of edge values
// mixed with small numbers, so comparisons hit equality often. Only i
// holds integer zeros; j never does, so i % j cannot fail.
func exprSource(rng *rand.Rand, n int) *source {
	pickInt := func(zero bool) int64 {
		for {
			v := int64(rng.Intn(7) - 3)
			if rng.Intn(2) == 0 {
				v = exprInts[rng.Intn(len(exprInts))]
			}
			if zero || v != 0 {
				return v
			}
		}
	}
	pickFloat := func() float64 {
		if rng.Intn(2) == 0 {
			return exprFloats[rng.Intn(len(exprFloats))]
		}
		return float64(rng.Intn(9)-4) * 0.5
	}
	i, j := make([]int64, n), make([]int64, n)
	x, y := make([]float64, n), make([]float64, n)
	s, t := make([]string, n), make([]string, n)
	for r := 0; r < n; r++ {
		i[r], j[r] = pickInt(true), pickInt(false)
		x[r], y[r] = pickFloat(), pickFloat()
		s[r], t[r] = exprStrs[rng.Intn(len(exprStrs))], exprStrs[rng.Intn(len(exprStrs))]
	}
	r := rel.MustNew("e", rel.Schema{
		{Name: "i", Type: bat.Int}, {Name: "j", Type: bat.Int},
		{Name: "x", Type: bat.Float}, {Name: "y", Type: bat.Float},
		{Name: "s", Type: bat.String}, {Name: "t", Type: bat.String},
	}, []*bat.BAT{bat.FromInts(i), bat.FromInts(j), bat.FromFloats(x), bat.FromFloats(y), bat.FromStrings(s), bat.FromStrings(t)})
	return newSource(r, "e")
}

// exprGen draws random expression trees over exprSource's columns and
// counts the node kinds it produced.
type exprGen struct {
	rng   *rand.Rand
	kinds map[string]int
}

func (g *exprGen) pick(xs []string) string { return xs[g.rng.Intn(len(xs))] }

// expr draws a tree of at most depth operator levels: a string-typed one
// when str is set, else a numeric one. One child in thirty takes the
// other type, so type errors are compared too.
func (g *exprGen) expr(depth int, str bool) Expr {
	if g.rng.Intn(30) == 0 {
		g.kinds["type-mix"]++
		str = !str
	}
	if str {
		if g.rng.Intn(2) == 0 {
			g.kinds["lit:str"]++
			return &StringLit{Val: g.pick(exprStrs)}
		}
		g.kinds["col:str"]++
		return &ColRef{Name: g.pick([]string{"s", "t"})}
	}
	if depth == 0 || g.rng.Intn(5) == 0 {
		switch g.rng.Intn(4) {
		case 0:
			g.kinds["lit:int"]++
			return &NumberLit{IsInt: true, Int: exprInts[g.rng.Intn(len(exprInts))]}
		case 1:
			g.kinds["lit:float"]++
			return &NumberLit{Float: exprFloats[g.rng.Intn(len(exprFloats))]}
		case 2:
			g.kinds["col:int"]++
			return &ColRef{Name: g.pick([]string{"i", "j"})}
		}
		g.kinds["col:float"]++
		return &ColRef{Name: g.pick([]string{"x", "y"})}
	}
	d := depth - 1
	switch g.rng.Intn(10) {
	case 0, 1:
		op := g.pick(exprArith)
		g.kinds["arith:"+op]++
		return &BinaryExpr{Op: op, L: g.expr(d, false), R: g.expr(d, false)}
	case 2:
		op := g.pick(exprCmp)
		g.kinds["cmp:"+op]++
		str := g.rng.Intn(3) == 0
		return &BinaryExpr{Op: op, L: g.expr(d, str), R: g.expr(d, str)}
	case 3:
		op := g.pick([]string{"AND", "OR"})
		g.kinds[op]++
		return &BinaryExpr{Op: op, L: g.expr(d, false), R: g.expr(d, false)}
	case 4:
		if g.rng.Intn(2) == 0 {
			g.kinds["neg"]++
			return &UnaryExpr{Op: "-", E: g.expr(d, false)}
		}
		g.kinds["NOT"]++
		return &UnaryExpr{Op: "NOT", E: g.expr(d, false)}
	case 5:
		str := g.rng.Intn(3) == 0
		x := &InExpr{E: g.expr(d, str), Not: g.rng.Intn(2) == 0}
		for k := 1 + g.rng.Intn(3); k > 0; k-- {
			x.List = append(x.List, g.expr(d, str))
		}
		g.kinds[map[bool]string{false: "IN", true: "NOT IN"}[x.Not]]++
		return x
	case 6:
		str := g.rng.Intn(3) == 0
		x := &BetweenExpr{E: g.expr(d, str), Lo: g.expr(d, str), Hi: g.expr(d, str), Not: g.rng.Intn(2) == 0}
		g.kinds[map[bool]string{false: "BETWEEN", true: "NOT BETWEEN"}[x.Not]]++
		return x
	case 7:
		x := &LikeExpr{E: g.expr(d, true), Pattern: g.pick(exprLikes), Not: g.rng.Intn(2) == 0}
		g.kinds[map[bool]string{false: "LIKE", true: "NOT LIKE"}[x.Not]]++
		return x
	case 8:
		fn := g.pick(exprFuncs)
		g.kinds["fn:"+fn]++
		return &FuncCall{Name: fn, Args: []Expr{g.expr(d, false)}}
	}
	fn := g.pick([]string{"POW", "POWER"})
	g.kinds["fn:"+fn]++
	return &FuncCall{Name: fn, Args: []Expr{g.expr(d, false), g.expr(d, false)}}
}

// rowEval evaluates the reference at row i, reporting an integer
// division by zero as a failure instead of a panic.
func rowEval(ref *rowExpr, i int) (v bat.Value, failed bool) {
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); !ok || !strings.Contains(err.Error(), "divide by zero") {
				panic(r)
			}
			failed = true
		}
	}()
	return ref.fn(i), false
}

// sameBits compares two values bit for bit, except that any two NaNs
// match: when both operands of a commutative + or * are NaN, the result
// carries the payload of whichever operand the compiler placed first,
// and Go may order them either way in either evaluator.
func sameBits(a, b bat.Value) bool {
	if a.Type != b.Type {
		return false
	}
	switch a.Type {
	case bat.Float:
		if math.IsNaN(a.F) && math.IsNaN(b.F) {
			return true
		}
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case bat.Int:
		return a.I == b.I
	}
	return a.S == b.S
}

// checkExpr compiles e both ways over src and compares the evaluator
// with the reference over every frame shape.
func checkExpr(t *testing.T, rng *rand.Rand, src *source, e Expr) {
	t.Helper()
	ref, rerr := rowCompile(e, src)
	prog, verr := compileExpr(e, src)
	if (rerr == nil) != (verr == nil) || rerr != nil && rerr.Error() != verr.Error() {
		t.Fatalf("%s: compile errors differ: reference %v, engine %v", keyOf(e), rerr, verr)
	}
	if rerr != nil {
		return
	}
	if ref.typ != prog.typ {
		t.Fatalf("%s: type %v, reference %v", keyOf(e), prog.typ, ref.typ)
	}
	n := src.rel.NumRows()
	want, fails := make([]bat.Value, n), make([]bool, n)
	for i := range want {
		want[i], fails[i] = rowEval(ref, i)
	}
	c := exec.NewCtx(1, nil, nil)
	checkFrame(t, rng, e, prog, relFrame(c, src.rel), want, fails)
	for lo := 0; lo < n; lo += bat.MorselSize {
		hi := min(lo+bat.MorselSize, n)
		f := &frame{c: c, n: hi - lo, cols: make([]*bat.Vector, len(src.rel.Cols))}
		for k, col := range src.rel.Cols {
			f.cols[k] = col.Vector().View(lo, hi)
		}
		checkFrame(t, rng, e, prog, f, want[lo:hi], fails[lo:hi])
	}
}

// checkFrame evaluates prog over f as a value and as a predicate, once
// over every row and once over a random candidate list.
func checkFrame(t *testing.T, rng *rand.Rand, e Expr, prog *compiled, f *frame, want []bat.Value, fails []bool) {
	t.Helper()
	sub := []int{}
	for i := 0; i < f.n; i++ {
		if rng.Intn(3) > 0 {
			sub = append(sub, i)
		}
	}
	for _, rows := range [][]int{nil, sub} {
		cand := f.rows(rows)
		fail := slices.ContainsFunc(cand, func(i int) bool { return fails[i] })
		v, err := prog.val(f, rows)
		switch {
		case fail && !errors.Is(err, ErrDivisionByZero):
			t.Fatalf("%s: val over %d rows: error %v, want ErrDivisionByZero", keyOf(e), len(cand), err)
		case !fail && err != nil:
			t.Fatalf("%s: val: %v", keyOf(e), err)
		case !fail:
			if v.Len() != f.n || v.Type() != prog.typ {
				t.Fatalf("%s: val is %d×%v, want %d×%v", keyOf(e), v.Len(), v.Type(), f.n, prog.typ)
			}
			for _, i := range cand {
				if !sameBits(v.Get(i), want[i]) {
					t.Fatalf("%s: row %d: engine %v, reference %v", keyOf(e), i, v.Get(i), want[i])
				}
			}
			f.free(v)
		}
		sel, err := prog.sel(f, rows)
		switch {
		case fail && !errors.Is(err, ErrDivisionByZero):
			t.Fatalf("%s: sel over %d rows: error %v, want ErrDivisionByZero", keyOf(e), len(cand), err)
		case !fail && err != nil:
			t.Fatalf("%s: sel: %v", keyOf(e), err)
		case !fail:
			wantSel := []int{}
			for _, i := range cand {
				if rowTruthy(want[i]) {
					wantSel = append(wantSel, i)
				}
			}
			if !slices.Equal(sel, wantSel) {
				t.Fatalf("%s: selected %v, reference %v", keyOf(e), sel, wantSel)
			}
			f.freeRows(sel)
		}
	}
	f.release()
}

// TestExprDifferential runs the differential check on random trees that
// cover every operator and function compileExpr knows, at relation sizes
// straddling the morsel edge.
func TestExprDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := &exprGen{rng: rng, kinds: map[string]int{}}
	for _, n := range []int{0, 1, bat.MorselSize - 1, bat.MorselSize, bat.MorselSize + 1} {
		src := exprSource(rng, n)
		trees := 400
		if n > 1 {
			trees = 60
		}
		for k := 0; k < trees; k++ {
			checkExpr(t, rng, src, g.expr(1+rng.Intn(4), rng.Intn(8) == 0))
		}
	}
	for _, kind := range exprKinds {
		if g.kinds[kind] == 0 {
			t.Errorf("no tree exercised %s", kind)
		}
	}
}

// TestModuloByZero pins integer % by zero at the statement level: a
// statement that reaches a zero divisor fails with ErrDivisionByZero
// instead of panicking, and a conjunct that excludes the zero divisors
// keeps the statement valid — as split WHERE conjuncts, inside one
// AND/OR expression, as a projected value, and across a join's
// build-side and post-join filters — returning the reference's rows.
func TestModuloByZero(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec(`
CREATE TABLE t (a INT, b INT);
INSERT INTO t VALUES (7, 5), (8, 0), (12, 5), (9, 0), (2, 3);
CREATE TABLE u (a INT, k INT);
INSERT INTO u VALUES (7, 5), (8, 0), (12, 5), (9, 0), (2, 3);`); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT a % b AS m FROM t;",
		"SELECT a FROM t WHERE a % b = 2;",
		"SELECT a FROM t WHERE b <> 0 OR a % b = 2;",
		"INSERT INTO t VALUES (1 % 0, 1);",
	} {
		if _, err := db.Exec(q); !errors.Is(err, ErrDivisionByZero) {
			t.Errorf("%s: error %v, want ErrDivisionByZero", q, err)
		}
	}
	for _, tc := range []struct {
		q    string
		want []int64
	}{
		{"SELECT a FROM t WHERE b <> 0 AND a % b = 2;", []int64{7, 12, 2}},
		{"SELECT a FROM t WHERE NOT (b = 0 OR a % b <> 2);", []int64{7, 12, 2}},
		{"SELECT a FROM t WHERE b = 0 OR a % b = 2;", []int64{7, 8, 12, 9, 2}},
		{"SELECT a FROM t WHERE (b <> 0 AND a % b = 2) = 1;", []int64{7, 12, 2}},
		{"SELECT b <> 0 AND a % b = 2 AS hit FROM t;", []int64{1, 0, 1, 0, 1}},
		{"SELECT t.a FROM t JOIN u ON t.a = u.a WHERE u.k <> 0 AND t.a % u.k = 2;", []int64{7, 12, 2}},
	} {
		got, err := db.Query(tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		if col := got.Cols[0].Vector().Ints(); !slices.Equal(col, tc.want) {
			t.Errorf("%s: %v, want %v", tc.q, col, tc.want)
		}
		ref, err := refQuery(db, tc.q)
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.q, err)
		}
		if err := equalBits(ref, got); err != nil {
			t.Errorf("%s: %v", tc.q, err)
		}
	}
}

// FuzzCompileExpr drives the same harness from a fuzzed seed and size;
// every seventh size lands on the morsel edge.
func FuzzCompileExpr(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42} {
		f.Add(seed, uint16(17))
	}
	f.Add(int64(7), uint16(700))
	f.Fuzz(func(t *testing.T, seed int64, size uint16) {
		rng := rand.New(rand.NewSource(seed))
		n := int(size) % 300
		if size%7 == 0 {
			n = bat.MorselSize - 1 + int(size)%3
		}
		g := &exprGen{rng: rng, kinds: map[string]int{}}
		checkExpr(t, rng, exprSource(rng, n), g.expr(1+rng.Intn(5), rng.Intn(8) == 0))
	})
}
