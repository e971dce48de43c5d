package sql

import (
	"fmt"
	"math"
	"regexp"
	"strings"

	"repro/internal/bat"
)

// This file keeps the engine's former row-at-a-time expression evaluator
// as the reference of the differential tests: a tree of closures, one
// bat.Value per row per node. It compiles from the same AST with the same
// typing rules and error texts as compileExpr but shares none of its
// evaluation code, so the column-at-a-time evaluator (and the reference
// SELECT executor built on this one) is checked against an independent
// evaluation. An integer % by zero panics here, as it did in the engine.

// rowExpr is a typed row-wise evaluator.
type rowExpr struct {
	typ bat.Type
	fn  func(i int) bat.Value
}

// rowCompile builds an evaluator for a scalar expression over the source.
// Aggregate calls are rejected here; the SELECT pipeline rewrites them to
// column references before compiling.
func rowCompile(e Expr, s *source) (*rowExpr, error) {
	switch x := e.(type) {
	case *NumberLit:
		if x.IsInt {
			v := bat.IntValue(x.Int)
			return &rowExpr{typ: bat.Int, fn: func(int) bat.Value { return v }}, nil
		}
		v := bat.FloatValue(x.Float)
		return &rowExpr{typ: bat.Float, fn: func(int) bat.Value { return v }}, nil
	case *StringLit:
		v := bat.StringValue(x.Val)
		return &rowExpr{typ: bat.String, fn: func(int) bat.Value { return v }}, nil
	case *ColRef:
		if s == nil {
			return nil, fmt.Errorf("sql: column %q not allowed here", refName(x.Qualifier, x.Name))
		}
		k, err := s.resolve(x.Qualifier, x.Name)
		if err != nil {
			return nil, err
		}
		col := s.rel.Cols[k]
		switch col.Type() {
		case bat.Float:
			f, _ := col.Floats()
			return &rowExpr{typ: bat.Float, fn: func(i int) bat.Value { return bat.FloatValue(f[i]) }}, nil
		case bat.Int:
			iv := col.Vector().Ints()
			return &rowExpr{typ: bat.Int, fn: func(i int) bat.Value { return bat.IntValue(iv[i]) }}, nil
		default:
			sv := col.Vector().Strings()
			return &rowExpr{typ: bat.String, fn: func(i int) bat.Value { return bat.StringValue(sv[i]) }}, nil
		}
	case *UnaryExpr:
		in, err := rowCompile(x.E, s)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "-":
			switch in.typ {
			case bat.Int:
				return &rowExpr{typ: bat.Int, fn: func(i int) bat.Value { return bat.IntValue(-in.fn(i).I) }}, nil
			case bat.Float:
				return &rowExpr{typ: bat.Float, fn: func(i int) bat.Value { return bat.FloatValue(-in.fn(i).F) }}, nil
			}
			return nil, fmt.Errorf("sql: unary - over string")
		case "NOT":
			if in.typ == bat.String {
				return nil, fmt.Errorf("sql: NOT over string")
			}
			return &rowExpr{typ: bat.Int, fn: func(i int) bat.Value {
				if rowTruthy(in.fn(i)) {
					return bat.IntValue(0)
				}
				return bat.IntValue(1)
			}}, nil
		}
		return nil, fmt.Errorf("sql: unknown unary operator %q", x.Op)
	case *BinaryExpr:
		return rowBinary(x, s)
	case *FuncCall:
		if _, isAgg := aggFuncs[x.Name]; isAgg {
			return nil, fmt.Errorf("sql: aggregate %s not allowed in this context", x.Name)
		}
		return rowScalarFunc(x, s)
	case *InExpr:
		return rowIn(x, s)
	case *BetweenExpr:
		return rowBetween(x, s)
	case *LikeExpr:
		return rowLike(x, s)
	}
	return nil, fmt.Errorf("sql: unsupported expression %T", e)
}

func rowIn(x *InExpr, s *source) (*rowExpr, error) {
	e, err := rowCompile(x.E, s)
	if err != nil {
		return nil, err
	}
	items := make([]*rowExpr, len(x.List))
	for k, le := range x.List {
		c, err := rowCompile(le, s)
		if err != nil {
			return nil, err
		}
		if (c.typ == bat.String) != (e.typ == bat.String) {
			return nil, fmt.Errorf("sql: IN list mixes strings with numbers")
		}
		items[k] = c
	}
	return &rowExpr{typ: bat.Int, fn: func(i int) bat.Value {
		v := e.fn(i)
		hit := false
		for _, c := range items {
			w := c.fn(i)
			if v.Type == bat.String {
				if v.S == w.S {
					hit = true
					break
				}
			} else if v.AsFloat() == w.AsFloat() {
				hit = true
				break
			}
		}
		if hit != x.Not {
			return bat.IntValue(1)
		}
		return bat.IntValue(0)
	}}, nil
}

func rowBetween(x *BetweenExpr, s *source) (*rowExpr, error) {
	e, err := rowCompile(x.E, s)
	if err != nil {
		return nil, err
	}
	lo, err := rowCompile(x.Lo, s)
	if err != nil {
		return nil, err
	}
	hi, err := rowCompile(x.Hi, s)
	if err != nil {
		return nil, err
	}
	str := e.typ == bat.String
	if (lo.typ == bat.String) != str || (hi.typ == bat.String) != str {
		return nil, fmt.Errorf("sql: BETWEEN bounds mix strings with numbers")
	}
	return &rowExpr{typ: bat.Int, fn: func(i int) bat.Value {
		var in bool
		if str {
			v := e.fn(i).S
			in = lo.fn(i).S <= v && v <= hi.fn(i).S
		} else {
			v := e.fn(i).AsFloat()
			in = lo.fn(i).AsFloat() <= v && v <= hi.fn(i).AsFloat()
		}
		if in != x.Not {
			return bat.IntValue(1)
		}
		return bat.IntValue(0)
	}}, nil
}

func rowLike(x *LikeExpr, s *source) (*rowExpr, error) {
	e, err := rowCompile(x.E, s)
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
	return &rowExpr{typ: bat.Int, fn: func(i int) bat.Value {
		if re.MatchString(e.fn(i).S) != x.Not {
			return bat.IntValue(1)
		}
		return bat.IntValue(0)
	}}, nil
}

func rowTruthy(v bat.Value) bool {
	switch v.Type {
	case bat.Int:
		return v.I != 0
	case bat.Float:
		return v.F != 0
	}
	return v.S != ""
}

func rowBinary(x *BinaryExpr, s *source) (*rowExpr, error) {
	l, err := rowCompile(x.L, s)
	if err != nil {
		return nil, err
	}
	r, err := rowCompile(x.R, s)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "AND":
		return &rowExpr{typ: bat.Int, fn: func(i int) bat.Value {
			if rowTruthy(l.fn(i)) && rowTruthy(r.fn(i)) {
				return bat.IntValue(1)
			}
			return bat.IntValue(0)
		}}, nil
	case "OR":
		return &rowExpr{typ: bat.Int, fn: func(i int) bat.Value {
			if rowTruthy(l.fn(i)) || rowTruthy(r.fn(i)) {
				return bat.IntValue(1)
			}
			return bat.IntValue(0)
		}}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		return rowCompare(x.Op, l, r)
	case "+", "-", "*", "/", "%":
		return rowArith(x.Op, l, r)
	}
	return nil, fmt.Errorf("sql: unknown operator %q", x.Op)
}

func rowCompare(op string, l, r *rowExpr) (*rowExpr, error) {
	if (l.typ == bat.String) != (r.typ == bat.String) {
		return nil, fmt.Errorf("sql: cannot compare %v with %v", l.typ, r.typ)
	}
	var cmp func(i int) int
	if l.typ == bat.String {
		cmp = func(i int) int { return strings.Compare(l.fn(i).S, r.fn(i).S) }
	} else {
		cmp = func(i int) int {
			a, b := l.fn(i).AsFloat(), r.fn(i).AsFloat()
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			}
			return 0
		}
	}
	var test func(c int) bool
	switch op {
	case "=":
		test = func(c int) bool { return c == 0 }
	case "<>":
		test = func(c int) bool { return c != 0 }
	case "<":
		test = func(c int) bool { return c < 0 }
	case "<=":
		test = func(c int) bool { return c <= 0 }
	case ">":
		test = func(c int) bool { return c > 0 }
	case ">=":
		test = func(c int) bool { return c >= 0 }
	}
	return &rowExpr{typ: bat.Int, fn: func(i int) bat.Value {
		if test(cmp(i)) {
			return bat.IntValue(1)
		}
		return bat.IntValue(0)
	}}, nil
}

func rowArith(op string, l, r *rowExpr) (*rowExpr, error) {
	if l.typ == bat.String || r.typ == bat.String {
		return nil, fmt.Errorf("sql: arithmetic over strings")
	}
	bothInt := l.typ == bat.Int && r.typ == bat.Int
	if bothInt && op != "/" {
		var fn func(a, b int64) int64
		switch op {
		case "+":
			fn = func(a, b int64) int64 { return a + b }
		case "-":
			fn = func(a, b int64) int64 { return a - b }
		case "*":
			fn = func(a, b int64) int64 { return a * b }
		case "%":
			fn = func(a, b int64) int64 { return a % b }
		}
		return &rowExpr{typ: bat.Int, fn: func(i int) bat.Value {
			return bat.IntValue(fn(l.fn(i).I, r.fn(i).I))
		}}, nil
	}
	var fn func(a, b float64) float64
	switch op {
	case "+":
		fn = func(a, b float64) float64 { return a + b }
	case "-":
		fn = func(a, b float64) float64 { return a - b }
	case "*":
		fn = func(a, b float64) float64 { return a * b }
	case "/":
		fn = func(a, b float64) float64 { return a / b }
	case "%":
		fn = math.Mod
	}
	return &rowExpr{typ: bat.Float, fn: func(i int) bat.Value {
		return bat.FloatValue(fn(l.fn(i).AsFloat(), r.fn(i).AsFloat()))
	}}, nil
}

func rowScalarFunc(x *FuncCall, s *source) (*rowExpr, error) {
	unary := map[string]func(float64) float64{
		"ABS": math.Abs, "SQRT": math.Sqrt, "FLOOR": math.Floor,
		"CEIL": math.Ceil, "EXP": math.Exp, "LN": math.Log,
	}
	if f, ok := unary[x.Name]; ok {
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("sql: %s takes one argument", x.Name)
		}
		in, err := rowCompile(x.Args[0], s)
		if err != nil {
			return nil, err
		}
		if in.typ == bat.String {
			return nil, fmt.Errorf("sql: %s over string", x.Name)
		}
		return &rowExpr{typ: bat.Float, fn: func(i int) bat.Value {
			return bat.FloatValue(f(in.fn(i).AsFloat()))
		}}, nil
	}
	if x.Name == "POW" || x.Name == "POWER" {
		if len(x.Args) != 2 {
			return nil, fmt.Errorf("sql: POW takes two arguments")
		}
		a, err := rowCompile(x.Args[0], s)
		if err != nil {
			return nil, err
		}
		b, err := rowCompile(x.Args[1], s)
		if err != nil {
			return nil, err
		}
		return &rowExpr{typ: bat.Float, fn: func(i int) bat.Value {
			return bat.FloatValue(math.Pow(a.fn(i).AsFloat(), b.fn(i).AsFloat()))
		}}, nil
	}
	return nil, fmt.Errorf("sql: unknown function %s", x.Name)
}

// rowMaterialize evaluates an expression for every row into a BAT.
func rowMaterialize(c *rowExpr, n int) *bat.BAT {
	switch c.typ {
	case bat.Float:
		out := make([]float64, n)
		for i := 0; i < n; i++ {
			out[i] = c.fn(i).F
		}
		return bat.FromFloats(out)
	case bat.Int:
		out := make([]int64, n)
		for i := 0; i < n; i++ {
			out[i] = c.fn(i).I
		}
		return bat.FromInts(out)
	default:
		out := make([]string, n)
		for i := 0; i < n; i++ {
			out[i] = c.fn(i).S
		}
		return bat.FromStrings(out)
	}
}
