package rel

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/exec"
)

// ratings is the example database of the paper's Figure 5.
func ratings() *Relation {
	b := NewBuilder("rating", Schema{
		{Name: "User", Type: bat.String},
		{Name: "Balto", Type: bat.Float},
		{Name: "Heat", Type: bat.Float},
		{Name: "Net", Type: bat.Float},
	})
	b.MustAdd(bat.StringValue("Ann"), bat.FloatValue(2.0), bat.FloatValue(1.5), bat.FloatValue(0.5))
	b.MustAdd(bat.StringValue("Tom"), bat.FloatValue(0.0), bat.FloatValue(0.0), bat.FloatValue(1.5))
	b.MustAdd(bat.StringValue("Jan"), bat.FloatValue(1.0), bat.FloatValue(4.0), bat.FloatValue(1.0))
	return b.Relation()
}

func users() *Relation {
	b := NewBuilder("user", Schema{
		{Name: "User", Type: bat.String},
		{Name: "State", Type: bat.String},
		{Name: "YoB", Type: bat.Int},
	})
	b.MustAdd(bat.StringValue("Ann"), bat.StringValue("CA"), bat.IntValue(1980))
	b.MustAdd(bat.StringValue("Tom"), bat.StringValue("FL"), bat.IntValue(1965))
	b.MustAdd(bat.StringValue("Jan"), bat.StringValue("CA"), bat.IntValue(1970))
	return b.Relation()
}

func TestNewValidation(t *testing.T) {
	if _, err := New("x", Schema{{Name: "A", Type: bat.Float}}, nil); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := New("x",
		Schema{{Name: "A", Type: bat.Float}},
		[]*bat.BAT{bat.FromInts([]int64{1})}); err == nil {
		t.Error("type mismatch accepted")
	}
	if _, err := New("x",
		Schema{{Name: "A", Type: bat.Float}, {Name: "A", Type: bat.Float}},
		[]*bat.BAT{bat.FromFloats([]float64{1}), bat.FromFloats([]float64{2})}); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if _, err := New("x",
		Schema{{Name: "A", Type: bat.Float}, {Name: "B", Type: bat.Float}},
		[]*bat.BAT{bat.FromFloats([]float64{1}), bat.FromFloats([]float64{2, 3})}); err == nil {
		t.Error("ragged columns accepted")
	}
}

func TestBuilderCoercion(t *testing.T) {
	b := NewBuilder("t", Schema{{Name: "A", Type: bat.Float}})
	if err := b.Add(bat.IntValue(3)); err != nil {
		t.Fatalf("int into float column: %v", err)
	}
	r := b.Relation()
	if got := r.Value(0, 0); got.Type != bat.Float || got.F != 3 {
		t.Errorf("coerced value = %v", got)
	}
	if err := b.Add(bat.StringValue("x")); err == nil {
		t.Error("string into float column accepted")
	}
	if err := b.Add(); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestSelectProject(t *testing.T) {
	r := ratings()
	pred, err := r.FloatPred("Heat", func(v float64) bool { return v >= 1.5 })
	if err != nil {
		t.Fatal(err)
	}
	sel := r.Select(nil, pred)
	if sel.NumRows() != 2 {
		t.Fatalf("selected %d rows", sel.NumRows())
	}
	p, err := sel.Project("User", "Heat")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCols() != 2 || p.Schema[0].Name != "User" {
		t.Errorf("projection schema %v", p.Schema.Names())
	}
	if got := p.Value(1, 0).S; got != "Jan" {
		t.Errorf("row 1 user = %q", got)
	}
	if _, err := r.Project("Nope"); err == nil {
		t.Error("projecting missing attribute accepted")
	}
}

func TestStringPredAndDrop(t *testing.T) {
	u := users()
	pred, err := u.StringPred("State", func(s string) bool { return s == "CA" })
	if err != nil {
		t.Fatal(err)
	}
	ca := u.Select(nil, pred)
	if ca.NumRows() != 2 {
		t.Fatalf("CA users = %d", ca.NumRows())
	}
	d, err := ca.Drop("YoB")
	if err != nil {
		t.Fatal(err)
	}
	if d.NumCols() != 2 {
		t.Errorf("drop left %d cols", d.NumCols())
	}
	if _, err := u.StringPred("YoB", nil); err == nil {
		t.Error("string predicate over int column accepted")
	}
	if _, err := u.FloatPred("User", nil); err == nil {
		t.Error("float predicate over string column accepted")
	}
}

func TestRename(t *testing.T) {
	r := ratings()
	rn, err := r.Rename(map[string]string{"User": "U"})
	if err != nil {
		t.Fatal(err)
	}
	if rn.Schema.Index("U") != 0 || rn.Schema.Index("User") != -1 {
		t.Errorf("rename schema = %v", rn.Schema.Names())
	}
	// Original unchanged (schema cloned).
	if r.Schema.Index("User") != 0 {
		t.Error("rename mutated the argument")
	}
	if _, err := r.Rename(map[string]string{"Nope": "X"}); err == nil {
		t.Error("renaming missing attribute accepted")
	}
}

func TestHashJoinInner(t *testing.T) {
	// The paper's w1 preparation: users ⋈ ratings on User, CA only.
	u := users()
	r := ratings()
	j, err := HashJoin(nil, u, r, []string{"User"}, []string{"User"}, Inner)
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 3 {
		t.Fatalf("join rows = %d", j.NumRows())
	}
	want := []string{"User", "State", "YoB", "Balto", "Heat", "Net"}
	got := j.Schema.Names()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("join schema = %v", got)
	}
	pred, _ := j.StringPred("State", func(s string) bool { return s == "CA" })
	ca := j.Select(nil, pred)
	if ca.NumRows() != 2 {
		t.Errorf("CA join rows = %d", ca.NumRows())
	}
}

func TestHashJoinMultiKeyAndDuplicates(t *testing.T) {
	b1 := NewBuilder("l", Schema{{Name: "A", Type: bat.Int}, {Name: "B", Type: bat.Int}, {Name: "X", Type: bat.Float}})
	b1.MustAdd(bat.IntValue(1), bat.IntValue(1), bat.FloatValue(10))
	b1.MustAdd(bat.IntValue(1), bat.IntValue(2), bat.FloatValue(20))
	b1.MustAdd(bat.IntValue(2), bat.IntValue(1), bat.FloatValue(30))
	l := b1.Relation()
	b2 := NewBuilder("r", Schema{{Name: "C", Type: bat.Int}, {Name: "D", Type: bat.Int}, {Name: "Y", Type: bat.Float}})
	b2.MustAdd(bat.IntValue(1), bat.IntValue(1), bat.FloatValue(100))
	b2.MustAdd(bat.IntValue(1), bat.IntValue(1), bat.FloatValue(200)) // duplicate key
	b2.MustAdd(bat.IntValue(9), bat.IntValue(9), bat.FloatValue(300))
	rr := b2.Relation()
	j, err := HashJoin(nil, l, rr, []string{"A", "B"}, []string{"C", "D"}, Inner)
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 2 { // (1,1) matches two right rows
		t.Fatalf("join rows = %d", j.NumRows())
	}
	ys, _ := j.Col("Y")
	f, _ := ys.Floats()
	if f[0]+f[1] != 300 {
		t.Errorf("joined Y values = %v", f)
	}
}

func TestHashJoinLeft(t *testing.T) {
	l := MustNew("l", Schema{{Name: "K", Type: bat.Int}},
		[]*bat.BAT{bat.FromInts([]int64{1, 2})})
	r := MustNew("r", Schema{{Name: "K2", Type: bat.Int}, {Name: "V", Type: bat.Float}},
		[]*bat.BAT{bat.FromInts([]int64{1}), bat.FromFloats([]float64{7})})
	j, err := HashJoin(nil, l, r, []string{"K"}, []string{"K2"}, Left)
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 2 {
		t.Fatalf("left join rows = %d", j.NumRows())
	}
	v, _ := j.Col("V")
	f, _ := v.Floats()
	if f[0] != 7 || f[1] != 0 {
		t.Errorf("left join V = %v", f)
	}
}

func TestJoinErrors(t *testing.T) {
	l := MustNew("l", Schema{{Name: "K", Type: bat.Int}}, []*bat.BAT{bat.FromInts([]int64{1})})
	r := MustNew("r", Schema{{Name: "K", Type: bat.Int}, {Name: "V", Type: bat.Float}},
		[]*bat.BAT{bat.FromInts([]int64{1}), bat.FromFloats([]float64{7})})
	if _, err := HashJoin(nil, l, r, nil, nil, Inner); err == nil {
		t.Error("empty key list accepted")
	}
	// Name clash: r.V vs a second relation also exposing V.
	l2 := MustNew("l2", Schema{{Name: "K", Type: bat.Int}, {Name: "V", Type: bat.Float}},
		[]*bat.BAT{bat.FromInts([]int64{1}), bat.FromFloats([]float64{1})})
	if _, err := HashJoin(nil, l2, r, []string{"K"}, []string{"K"}, Inner); err == nil {
		t.Error("duplicate non-key attribute accepted")
	}
}

func TestUnionDistinct(t *testing.T) {
	a := MustNew("a", Schema{{Name: "X", Type: bat.Int}}, []*bat.BAT{bat.FromInts([]int64{1, 2})})
	b := MustNew("b", Schema{{Name: "X", Type: bat.Int}}, []*bat.BAT{bat.FromInts([]int64{2, 3})})
	u, err := Union(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if u.NumRows() != 4 {
		t.Fatalf("bag union rows = %d", u.NumRows())
	}
	d, err := GroupBy(nil, u, []string{"X"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if col, _ := d.Col("X"); fmt.Sprint(col.Vector().Ints()) != "[1 2 3]" {
		t.Errorf("distinct rows = %v, want [1 2 3]", col.Vector().Ints())
	}
	c := MustNew("c", Schema{{Name: "X", Type: bat.Float}}, []*bat.BAT{bat.FromFloats([]float64{1})})
	if _, err := Union(a, c); err == nil {
		t.Error("union of incompatible types accepted")
	}
}

func TestGroupBy(t *testing.T) {
	j, _ := HashJoin(nil, users(), ratings(), []string{"User"}, []string{"User"}, Inner)
	g, err := GroupBy(nil, j, []string{"State"}, []AggSpec{
		{Func: Count, As: "n"},
		{Func: Avg, Attr: "Heat", As: "avg_heat"},
		{Func: Sum, Attr: "Balto", As: "sum_balto"},
		{Func: Min, Attr: "Net", As: "min_net"},
		{Func: Max, Attr: "Net", As: "max_net"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRows() != 2 {
		t.Fatalf("groups = %d", g.NumRows())
	}
	// First-seen order: CA (Ann) then FL (Tom).
	if g.Value(0, 0).S != "CA" || g.Value(1, 0).S != "FL" {
		t.Fatalf("group order: %v, %v", g.Value(0, 0), g.Value(1, 0))
	}
	if n := g.Value(0, 1).I; n != 2 {
		t.Errorf("CA count = %d", n)
	}
	if avg := g.Value(0, 2).F; avg != (1.5+4.0)/2 {
		t.Errorf("CA avg heat = %v", avg)
	}
	if s := g.Value(0, 3).F; s != 3.0 {
		t.Errorf("CA sum balto = %v", s)
	}
	if mn, mx := g.Value(0, 4).F, g.Value(0, 5).F; mn != 0.5 || mx != 1.0 {
		t.Errorf("CA min/max net = %v/%v", mn, mx)
	}
}

func TestGroupByGlobal(t *testing.T) {
	r := ratings()
	g, err := GroupBy(nil, r, nil, []AggSpec{{Func: Count, As: "M"}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRows() != 1 || g.Value(0, 0).I != 3 {
		t.Fatalf("global count = %v", g.Value(0, 0))
	}
	empty := Empty("e", Schema{{Name: "A", Type: bat.Float}})
	g2, err := GroupBy(nil, empty, nil, []AggSpec{{Func: Count, As: "M"}})
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumRows() != 0 {
		t.Errorf("global count over empty = %d rows", g2.NumRows())
	}
}

func TestGroupByErrors(t *testing.T) {
	r := ratings()
	if _, err := GroupBy(nil, r, nil, nil); err == nil {
		t.Error("neither keys nor aggregates accepted")
	}
	// No aggregates: the distinct keys, in first-seen order.
	rr, err := Union(r, r)
	if err != nil {
		t.Fatal(err)
	}
	d, err := GroupBy(nil, rr, []string{"User"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.NumCols(), 1; got != want {
		t.Fatalf("zero-aggregate GroupBy has %d columns, want %d", got, want)
	}
	got, _ := d.Col("User")
	want, _ := r.Col("User")
	if fmt.Sprint(got.Vector().Strings()) != fmt.Sprint(want.Vector().Strings()) {
		t.Errorf("zero-aggregate GroupBy keys = %v, want %v", got.Vector().Strings(), want.Vector().Strings())
	}
	if _, err := GroupBy(nil, r, nil, []AggSpec{{Func: Avg}}); err == nil {
		t.Error("AVG(*) accepted")
	}
	if _, err := GroupBy(nil, r, nil, []AggSpec{{Func: Sum, Attr: "User"}}); err == nil {
		t.Error("SUM over string accepted")
	}
	if _, err := GroupBy(nil, r, []string{"Nope"}, []AggSpec{{Func: Count}}); err == nil {
		t.Error("grouping on missing attribute accepted")
	}
}

func TestSortLimit(t *testing.T) {
	r := ratings()
	s, err := r.Sort(nil, OrderSpec{Attr: "Heat", Desc: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.Value(0, 0).S != "Jan" {
		t.Errorf("desc sort first = %v", s.Value(0, 0))
	}
	s2, _ := r.Sort(nil, OrderSpec{Attr: "User"})
	if s2.Value(0, 0).S != "Ann" || s2.Value(2, 0).S != "Tom" {
		t.Errorf("asc sort = %v %v", s2.Value(0, 0), s2.Value(2, 0))
	}
	l := s2.Limit(nil, 2)
	if l.NumRows() != 2 {
		t.Errorf("limit rows = %d", l.NumRows())
	}
	if s2.Limit(nil, 99).NumRows() != 3 {
		t.Error("limit beyond size should clamp")
	}
	if _, err := r.Sort(nil, OrderSpec{Attr: "Nope"}); err == nil {
		t.Error("sorting on missing attribute accepted")
	}
}

// TestSortFloatOrder sorts a float column with every fifth row NaN,
// plus both zeros and both infinities, by (x, id) ascending and
// descending at workers 1, 2 and 8. Every run must produce the one
// order of bat.CompareFloat: ±0 tie, and NaN ties with NaN and sorts
// after +Inf, so ascending puts NaN last and descending first.
func TestSortFloatOrder(t *testing.T) {
	n := 6*bat.SerialCutoff + 13
	x := make([]float64, n)
	ids := make([]int64, n)
	specials := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}
	for i := range x {
		ids[i] = int64(n - i) // descending, so the id tie-break reorders
		switch {
		case i%5 == 0:
			x[i] = math.NaN()
		case i%7 == 0:
			x[i] = specials[i%len(specials)]
		default:
			x[i] = float64(i%11) / 4
		}
	}
	r := MustNew("f", Schema{{Name: "x", Type: bat.Float}, {Name: "id", Type: bat.Int}},
		[]*bat.BAT{bat.FromFloats(x), bat.FromInts(ids)})
	// xLess is the order under test, spelled out: numbers by < (so ±0
	// tie), NaN after every number.
	xLess := func(a, b float64) bool { return a < b || (a == a && b != b) }
	for _, desc := range []bool{false, true} {
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		sort.Slice(want, func(a, b int) bool {
			xa, xb := x[want[a]], x[want[b]]
			if desc {
				xa, xb = xb, xa
			}
			if xLess(xa, xb) || xLess(xb, xa) {
				return xLess(xa, xb)
			}
			return ids[want[a]] < ids[want[b]]
		})
		for _, w := range []int{1, 2, 8} {
			got, err := r.Sort(exec.NewCtx(w, nil, nil), OrderSpec{Attr: "x", Desc: desc}, OrderSpec{Attr: "id"})
			if err != nil {
				t.Fatal(err)
			}
			gotIDs := got.Cols[1].Vector().Ints()
			for k, i := range want {
				if gotIDs[k] != ids[i] {
					t.Fatalf("desc=%v workers=%d: row %d has id %d, want %d", desc, w, k, gotIDs[k], ids[i])
				}
			}
		}
	}
	// x alone, descending (the radix sort on complemented bits): NaN
	// first, and ties, ±0 included, keep their row order.
	want := make([]int, n)
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(a, b int) bool { return xLess(x[want[b]], x[want[a]]) })
	for _, w := range []int{1, 2, 8} {
		got, err := r.Sort(exec.NewCtx(w, nil, nil), OrderSpec{Attr: "x", Desc: true})
		if err != nil {
			t.Fatal(err)
		}
		gotIDs := got.Cols[1].Vector().Ints()
		for k, i := range want {
			if gotIDs[k] != ids[i] {
				t.Fatalf("x DESC workers=%d: row %d has id %d, want %d", w, k, gotIDs[k], ids[i])
			}
		}
	}
}

// TestSortNoSpecs sorts by no attribute: every row ties, so the rows
// come back in input order.
func TestSortNoSpecs(t *testing.T) {
	r := ratings()
	s, err := r.Sort(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRows() != r.NumRows() || len(s.Cols) != len(r.Cols) {
		t.Fatalf("sorted %dx%d, want %dx%d", s.NumRows(), len(s.Cols), r.NumRows(), len(r.Cols))
	}
	for i := 0; i < r.NumRows(); i++ {
		for j := range r.Cols {
			if got, want := s.Value(i, j), r.Value(i, j); got != want {
				t.Fatalf("row %d col %d = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestPrint(t *testing.T) {
	r := ratings()
	out := r.String()
	if !strings.Contains(out, "User") || !strings.Contains(out, "Ann") {
		t.Errorf("print output missing content:\n%s", out)
	}
	h := r.Head(1)
	if !strings.Contains(h, "(3 rows total)") {
		t.Errorf("head output missing total note:\n%s", h)
	}
	// Float formatting: integers print bare, fractions with 4 decimals.
	if !strings.Contains(out, "1.5000") {
		t.Errorf("fractional formatting missing:\n%s", out)
	}
}

func TestCloneIndependence(t *testing.T) {
	r := ratings()
	c := r.Clone()
	c.Cols[1].Vector().Set(0, bat.FloatValue(-99))
	if r.Value(0, 1).F == -99 {
		t.Error("clone shares column storage")
	}
	w := r.WithName("other")
	if w.Name != "other" || r.Name != "rating" {
		t.Error("WithName broken")
	}
}

func TestValueAndRow(t *testing.T) {
	r := ratings()
	row := r.Row(1)
	if row[0].S != "Tom" || row[3].F != 1.5 {
		t.Errorf("row = %v", row)
	}
	if r.NumCols() != 4 {
		t.Errorf("NumCols = %d", r.NumCols())
	}
	if _, err := r.Col("Nope"); err == nil {
		t.Error("missing column accepted")
	}
}
