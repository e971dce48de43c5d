package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/rel"
)

// weather is relation r of the paper's Figure 2: T (order), H, W.
func weather() *rel.Relation {
	b := rel.NewBuilder("r", rel.Schema{
		{Name: "T", Type: bat.String},
		{Name: "H", Type: bat.Float},
		{Name: "W", Type: bat.Float},
	})
	b.MustAdd(bat.StringValue("5am"), bat.FloatValue(1), bat.FloatValue(3))
	b.MustAdd(bat.StringValue("8am"), bat.FloatValue(8), bat.FloatValue(5))
	b.MustAdd(bat.StringValue("7am"), bat.FloatValue(6), bat.FloatValue(7))
	b.MustAdd(bat.StringValue("6am"), bat.FloatValue(1), bat.FloatValue(4))
	return b.Relation()
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestInvPaperFigure3 reproduces v = inv_T(σ_{T>6am}(r)) end to end.
func TestInvPaperFigure3(t *testing.T) {
	r := weather()
	pred, err := r.StringPred("T", func(s string) bool { return s > "6am" })
	if err != nil {
		t.Fatal(err)
	}
	sel := r.Select(nil, pred)
	if sel.NumRows() != 2 {
		t.Fatalf("selection rows = %d", sel.NumRows())
	}
	v, err := Inv(sel, []string{"T"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(v.Schema.Names(), ","); got != "T,H,W" {
		t.Fatalf("result schema = %s", got)
	}
	// Sorted by T: 7am then 8am; values from the paper (2 decimals).
	if v.Value(0, 0).S != "7am" || v.Value(1, 0).S != "8am" {
		t.Fatalf("order part = %v, %v", v.Value(0, 0), v.Value(1, 0))
	}
	want := [][]float64{{-5.0 / 26, 7.0 / 26}, {8.0 / 26, -6.0 / 26}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if !approx(v.Value(i, j+1).F, want[i][j], 1e-12) {
				t.Errorf("v[%d][%d] = %v, want %v", i, j, v.Value(i, j+1).F, want[i][j])
			}
		}
	}
}

// TestTraPaperFigure4b reproduces tra_T(r): schema (C,5am,6am,7am,8am).
func TestTraPaperFigure4b(t *testing.T) {
	v, err := Tra(weather(), []string{"T"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(v.Schema.Names(), ","); got != "C,5am,6am,7am,8am" {
		t.Fatalf("tra schema = %s", got)
	}
	if v.NumRows() != 2 {
		t.Fatalf("tra rows = %d", v.NumRows())
	}
	// Row H: 1 1 6 8; row W: 3 4 7 5 (values sorted by T).
	if v.Value(0, 0).S != "H" || v.Value(1, 0).S != "W" {
		t.Fatalf("C column = %v, %v", v.Value(0, 0), v.Value(1, 0))
	}
	wantH := []float64{1, 1, 6, 8}
	wantW := []float64{3, 4, 7, 5}
	for j := 0; j < 4; j++ {
		if v.Value(0, j+1).F != wantH[j] || v.Value(1, j+1).F != wantW[j] {
			t.Errorf("tra values col %d = %v/%v, want %v/%v",
				j, v.Value(0, j+1).F, v.Value(1, j+1).F, wantH[j], wantW[j])
		}
	}
}

// TestTraTwicePaperFigure10 checks tra_C(tra_T(r)) recovers r sorted by T.
func TestTraTwicePaperFigure10(t *testing.T) {
	r := weather()
	r1, err := Tra(r, []string{"T"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Tra(r1, []string{"C"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(r2.Schema.Names(), ","); got != "C,H,W" {
		t.Fatalf("double tra schema = %s", got)
	}
	wantT := []string{"5am", "6am", "7am", "8am"}
	wantH := []float64{1, 1, 6, 8}
	wantW := []float64{3, 4, 7, 5}
	for i := 0; i < 4; i++ {
		if r2.Value(i, 0).S != wantT[i] || r2.Value(i, 1).F != wantH[i] || r2.Value(i, 2).F != wantW[i] {
			t.Errorf("row %d = %v %v %v", i, r2.Value(i, 0), r2.Value(i, 1), r2.Value(i, 2))
		}
	}
}

// TestRnkPaperFigure9 mirrors p1 = rnk_H(π_{H,W}(r)) from Figure 9: a
// shape-(1,1) operation over a single application column returns one row
// (C='r', rnk=1). The paper's instance uses H as the order attribute even
// though H has duplicate values (1 at 5am and 6am); since RMA requires the
// order schema to form a key — which our engine enforces — the test orders
// by W, whose values are unique, keeping H as the single application
// column with rank 1.
func TestRnkPaperFigure9(t *testing.T) {
	r := weather()
	p, err := r.Project("W", "H")
	if err != nil {
		t.Fatal(err)
	}
	v, err := Rnk(p, []string{"W"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(v.Schema.Names(), ","); got != "C,rnk" {
		t.Fatalf("rnk schema = %s", got)
	}
	if v.NumRows() != 1 {
		t.Fatalf("rnk rows = %d", v.NumRows())
	}
	if v.Value(0, 0).S != "r" {
		t.Errorf("row origin = %v, want r", v.Value(0, 0))
	}
	if v.Value(0, 1).F != 1 {
		t.Errorf("rnk = %v, want 1 (single column)", v.Value(0, 1))
	}
}

// TestUsvPaperFigure9 checks the shape and origins of usv_T(r).
func TestUsvPaperFigure9(t *testing.T) {
	v, err := Usv(weather(), []string{"T"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(v.Schema.Names(), ","); got != "T,5am,6am,7am,8am" {
		t.Fatalf("usv schema = %s", got)
	}
	if v.NumRows() != 4 {
		t.Fatalf("usv rows = %d", v.NumRows())
	}
	// Row origins: T sorted ascending.
	want := []string{"5am", "6am", "7am", "8am"}
	for i, w := range want {
		if v.Value(i, 0).S != w {
			t.Errorf("row %d origin = %v, want %s", i, v.Value(i, 0), w)
		}
	}
	// U must be orthogonal: UᵀU = I. Check via column dot products.
	for a := 1; a <= 4; a++ {
		for b := a; b <= 4; b++ {
			var dot float64
			for i := 0; i < 4; i++ {
				dot += v.Value(i, a).F * v.Value(i, b).F
			}
			want := 0.0
			if a == b {
				want = 1.0
			}
			if !approx(dot, want, 1e-8) {
				t.Errorf("U col %d·%d = %v, want %v", a, b, dot, want)
			}
		}
	}
}

// TestQqrOrderSchema2 mirrors Figure 9's p3 = qqr_{W,T}(r): two order
// attributes, one application attribute.
func TestQqrOrderSchema2(t *testing.T) {
	v, err := Qqr(weather(), []string{"W", "T"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(v.Schema.Names(), ","); got != "W,T,H" {
		t.Fatalf("qqr schema = %s", got)
	}
	// Rows ordered by (W,T): 3,4,5,7 → 5am,6am,8am,7am.
	wantW := []float64{3, 4, 5, 7}
	wantT := []string{"5am", "6am", "8am", "7am"}
	for i := range wantW {
		if v.Value(i, 0).F != wantW[i] || v.Value(i, 1).S != wantT[i] {
			t.Errorf("row %d = (%v,%v), want (%v,%s)", i, v.Value(i, 0), v.Value(i, 1), wantW[i], wantT[i])
		}
	}
	// Q column is the normalized H column: unit norm.
	var norm float64
	for i := 0; i < 4; i++ {
		norm += v.Value(i, 2).F * v.Value(i, 2).F
	}
	if !approx(norm, 1, 1e-10) {
		t.Errorf("Q column norm² = %v", norm)
	}
}

func TestAddBinary(t *testing.T) {
	b1 := rel.NewBuilder("y1", rel.Schema{
		{Name: "Rider", Type: bat.String},
		{Name: "A", Type: bat.Float},
		{Name: "B", Type: bat.Float},
	})
	b1.MustAdd(bat.StringValue("ann"), bat.FloatValue(1), bat.FloatValue(2))
	b1.MustAdd(bat.StringValue("bob"), bat.FloatValue(3), bat.FloatValue(4))
	r := b1.Relation()
	b2 := rel.NewBuilder("y2", rel.Schema{
		{Name: "Rider2", Type: bat.String},
		{Name: "A", Type: bat.Float},
		{Name: "B", Type: bat.Float},
	})
	// Reversed row order: add must align by the order schemas.
	b2.MustAdd(bat.StringValue("bob"), bat.FloatValue(30), bat.FloatValue(40))
	b2.MustAdd(bat.StringValue("ann"), bat.FloatValue(10), bat.FloatValue(20))
	s := b2.Relation()

	v, err := Add(r, []string{"Rider"}, s, []string{"Rider2"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(v.Schema.Names(), ","); got != "Rider,Rider2,A,B" {
		t.Fatalf("add schema = %s", got)
	}
	// Sorted by Rider: ann, bob — aligned by rank.
	if v.Value(0, 0).S != "ann" || v.Value(0, 1).S != "ann" {
		t.Fatalf("row 0 origins = %v, %v", v.Value(0, 0), v.Value(0, 1))
	}
	if v.Value(0, 2).F != 11 || v.Value(0, 3).F != 22 || v.Value(1, 2).F != 33 || v.Value(1, 3).F != 44 {
		t.Errorf("add values = %v %v %v %v", v.Value(0, 2), v.Value(0, 3), v.Value(1, 2), v.Value(1, 3))
	}
}

func TestAddOptimizedRelativeSortMatchesFull(t *testing.T) {
	b1 := rel.NewBuilder("r", rel.Schema{{Name: "K", Type: bat.Int}, {Name: "X", Type: bat.Float}})
	b2 := rel.NewBuilder("s", rel.Schema{{Name: "L", Type: bat.Int}, {Name: "X", Type: bat.Float}})
	for i := 0; i < 50; i++ {
		b1.MustAdd(bat.IntValue(int64((i*37)%100)), bat.FloatValue(float64(i)))
		b2.MustAdd(bat.IntValue(int64((i*53)%100)), bat.FloatValue(float64(100-i)))
	}
	r, s := b1.Relation(), b2.Relation()
	full, err := Add(r, []string{"K"}, s, []string{"L"}, &Options{SortMode: SortFull})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Add(r, []string{"K"}, s, []string{"L"}, &Options{SortMode: SortOptimized})
	if err != nil {
		t.Fatal(err)
	}
	// Same set of tuples (row order may differ): sort both by K.
	fs, _ := full.Sort(nil, rel.OrderSpec{Attr: "K"})
	os_, _ := opt.Sort(nil, rel.OrderSpec{Attr: "K"})
	if fs.NumRows() != os_.NumRows() {
		t.Fatalf("row counts differ: %d vs %d", fs.NumRows(), os_.NumRows())
	}
	for i := 0; i < fs.NumRows(); i++ {
		for k := 0; k < fs.NumCols(); k++ {
			if !fs.Value(i, k).Equal(os_.Value(i, k)) {
				t.Fatalf("tuple %d attr %d: %v vs %v", i, k, fs.Value(i, k), os_.Value(i, k))
			}
		}
	}
}

func TestMmuAndCpd(t *testing.T) {
	// w4 (2x... ) from the paper's Figure 7 would need the full pipeline;
	// use a small closed-form example instead: A·A⁻¹ = I via mmu.
	b := rel.NewBuilder("m", rel.Schema{
		{Name: "K", Type: bat.String},
		{Name: "x", Type: bat.Float},
		{Name: "y", Type: bat.Float},
	})
	b.MustAdd(bat.StringValue("a"), bat.FloatValue(6), bat.FloatValue(7))
	b.MustAdd(bat.StringValue("b"), bat.FloatValue(8), bat.FloatValue(5))
	r := b.Relation()
	inv, err := Inv(r, []string{"K"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := Mmu(r, []string{"K"}, inv, []string{"K"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(prod.Schema.Names(), ","); got != "K,x,y" {
		t.Fatalf("mmu schema = %s", got)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := 0.0
			if i == j {
				want = 1.0
			}
			if !approx(prod.Value(i, j+1).F, want, 1e-10) {
				t.Errorf("prod[%d][%d] = %v", i, j, prod.Value(i, j+1).F)
			}
		}
	}
	// cpd: AᵀA — 2x2, row origin C carries the app schema names.
	cpd, err := Cpd(r, []string{"K"}, r.WithName("s"), []string{"K"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(cpd.Schema.Names(), ","); got != "C,x,y" {
		t.Fatalf("cpd schema = %s", got)
	}
	if cpd.Value(0, 0).S != "x" || cpd.Value(1, 0).S != "y" {
		t.Errorf("cpd C column = %v, %v", cpd.Value(0, 0), cpd.Value(1, 0))
	}
	if !approx(cpd.Value(0, 1).F, 6*6+8*8, 1e-10) {
		t.Errorf("cpd[0][x] = %v", cpd.Value(0, 1).F)
	}
}

func TestOpdShape(t *testing.T) {
	b1 := rel.NewBuilder("r", rel.Schema{{Name: "I", Type: bat.Int}, {Name: "v", Type: bat.Float}})
	b1.MustAdd(bat.IntValue(1), bat.FloatValue(2))
	b1.MustAdd(bat.IntValue(2), bat.FloatValue(3))
	b1.MustAdd(bat.IntValue(3), bat.FloatValue(4))
	r := b1.Relation()
	b2 := rel.NewBuilder("s", rel.Schema{{Name: "J", Type: bat.Int}, {Name: "w", Type: bat.Float}})
	b2.MustAdd(bat.IntValue(10), bat.FloatValue(5))
	b2.MustAdd(bat.IntValue(20), bat.FloatValue(6))
	s := b2.Relation()
	v, err := Opd(r, []string{"I"}, s, []string{"J"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Shape (r1,r2): 3 rows, columns named by ▽J = 10, 20.
	if got := strings.Join(v.Schema.Names(), ","); got != "I,10,20" {
		t.Fatalf("opd schema = %s", got)
	}
	if v.NumRows() != 3 {
		t.Fatalf("opd rows = %d", v.NumRows())
	}
	// v[i][j] = r.v[i] * s.w[j].
	if v.Value(1, 1).F != 3*5 || v.Value(2, 2).F != 4*6 {
		t.Errorf("opd values wrong: %v %v", v.Value(1, 1), v.Value(2, 2))
	}
}

func TestSolLeastSquares(t *testing.T) {
	// y = 1 + 2x fitted through 4 exact points.
	b1 := rel.NewBuilder("a", rel.Schema{
		{Name: "I", Type: bat.Int},
		{Name: "one", Type: bat.Float},
		{Name: "x", Type: bat.Float},
	})
	b2 := rel.NewBuilder("b", rel.Schema{{Name: "J", Type: bat.Int}, {Name: "y", Type: bat.Float}})
	for i := 0; i < 4; i++ {
		x := float64(i)
		b1.MustAdd(bat.IntValue(int64(i)), bat.FloatValue(1), bat.FloatValue(x))
		b2.MustAdd(bat.IntValue(int64(i)), bat.FloatValue(1+2*x))
	}
	v, err := Sol(b1.Relation(), []string{"I"}, b2.Relation(), []string{"J"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(v.Schema.Names(), ","); got != "C,y" {
		t.Fatalf("sol schema = %s", got)
	}
	// Row origins: the app schema names of a (one, x).
	if v.Value(0, 0).S != "one" || v.Value(1, 0).S != "x" {
		t.Fatalf("sol origins = %v, %v", v.Value(0, 0), v.Value(1, 0))
	}
	if !approx(v.Value(0, 1).F, 1, 1e-9) || !approx(v.Value(1, 1).F, 2, 1e-9) {
		t.Errorf("sol coefficients = %v, %v", v.Value(0, 1), v.Value(1, 1))
	}
}

func TestEvlEvcChfDetOnSPD(t *testing.T) {
	// SPD matrix [[4,1],[1,3]] keyed by K.
	b := rel.NewBuilder("m", rel.Schema{
		{Name: "K", Type: bat.String},
		{Name: "a", Type: bat.Float},
		{Name: "b", Type: bat.Float},
	})
	b.MustAdd(bat.StringValue("a"), bat.FloatValue(4), bat.FloatValue(1))
	b.MustAdd(bat.StringValue("b"), bat.FloatValue(1), bat.FloatValue(3))
	r := b.Relation()

	evl, err := Evl(r, []string{"K"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(evl.Schema.Names(), ","); got != "K,evl" {
		t.Fatalf("evl schema = %s", got)
	}
	// Eigenvalues of [[4,1],[1,3]]: (7±√5)/2.
	l1 := (7 + math.Sqrt(5)) / 2
	l2 := (7 - math.Sqrt(5)) / 2
	if !approx(evl.Value(0, 1).F, l1, 1e-9) || !approx(evl.Value(1, 1).F, l2, 1e-9) {
		t.Errorf("evl = %v, %v; want %v, %v", evl.Value(0, 1).F, evl.Value(1, 1).F, l1, l2)
	}

	evc, err := Evc(r, []string{"K"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(evc.Schema.Names(), ","); got != "K,a,b" {
		t.Fatalf("evc schema = %s", got)
	}

	chf, err := Chf(r, []string{"K"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// RᵀR = A: check the 2x2 by hand. R = [[2, .5],[0, sqrt(2.75)]].
	if !approx(chf.Value(0, 1).F, 2, 1e-12) || !approx(chf.Value(0, 2).F, 0.5, 1e-12) {
		t.Errorf("chf row 0 = %v, %v", chf.Value(0, 1), chf.Value(0, 2))
	}

	det, err := Det(r, []string{"K"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(det.Schema.Names(), ","); got != "C,det" {
		t.Fatalf("det schema = %s", got)
	}
	if det.Value(0, 0).S != "m" { // relation name
		t.Errorf("det origin = %v", det.Value(0, 0))
	}
	if !approx(det.Value(0, 1).F, 11, 1e-12) {
		t.Errorf("det = %v, want 11", det.Value(0, 1))
	}
}

func TestDsvVsvShapes(t *testing.T) {
	r := weather()
	dsv, err := Dsv(r, []string{"T"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(dsv.Schema.Names(), ","); got != "C,H,W" {
		t.Fatalf("dsv schema = %s", got)
	}
	if dsv.NumRows() != 2 {
		t.Fatalf("dsv rows = %d", dsv.NumRows())
	}
	// Diagonal with descending singular values; off-diagonal zero.
	if dsv.Value(0, 2).F != 0 || dsv.Value(1, 1).F != 0 {
		t.Error("dsv off-diagonal not zero")
	}
	if dsv.Value(0, 1).F < dsv.Value(1, 2).F {
		t.Error("dsv singular values not descending")
	}

	vsv, err := Vsv(r, []string{"T"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(vsv.Schema.Names(), ","); got != "C,H,W" {
		t.Fatalf("vsv schema = %s", got)
	}
	// V orthogonal 2x2.
	var dot float64
	for i := 0; i < 2; i++ {
		dot += vsv.Value(i, 1).F * vsv.Value(i, 2).F
	}
	if !approx(dot, 0, 1e-10) {
		t.Errorf("vsv columns not orthogonal: %v", dot)
	}
}

func TestErrorCases(t *testing.T) {
	r := weather()
	b := rel.NewBuilder("dup", rel.Schema{{Name: "K", Type: bat.Int}, {Name: "x", Type: bat.Float}})
	b.MustAdd(bat.IntValue(1), bat.FloatValue(1))
	b.MustAdd(bat.IntValue(1), bat.FloatValue(2))
	dup := b.Relation()
	small := rel.MustNew("s", rel.Schema{{Name: "J", Type: bat.Int}, {Name: "v", Type: bat.Float}},
		[]*bat.BAT{bat.FromInts([]int64{1}), bat.FromFloats([]float64{1})})
	r2 := rel.MustNew("r2", rel.Schema{{Name: "T", Type: bat.String}, {Name: "H", Type: bat.Float}, {Name: "W", Type: bat.Float}},
		[]*bat.BAT{bat.FromStrings([]string{"x", "y", "z", "w"}), bat.FromFloats([]float64{1, 2, 3, 4}), bat.FromFloats([]float64{1, 2, 3, 4})})
	// col4 is a single application column over the keys J = 1..4.
	col4 := rel.MustNew("v4", rel.Schema{{Name: "J", Type: bat.Int}, {Name: "v", Type: bat.Float}},
		[]*bat.BAT{bat.FromInts([]int64{1, 2, 3, 4}), bat.FromFloats([]float64{1, 2, 3, 4})})
	// wide has 2 rows and 3 application attributes.
	wide := rel.MustNew("w", rel.Schema{{Name: "J", Type: bat.Int}, {Name: "a", Type: bat.Float}, {Name: "b", Type: bat.Float}, {Name: "c", Type: bat.Float}},
		[]*bat.BAT{bat.FromInts([]int64{1, 2}), bat.FromFloats([]float64{1, 2}), bat.FromFloats([]float64{3, 4}), bat.FromFloats([]float64{5, 6})})
	// rhs2 is a single application column over the keys J = 1, 2.
	rhs2 := rel.MustNew("b2", rel.Schema{{Name: "J", Type: bat.Int}, {Name: "v", Type: bat.Float}},
		[]*bat.BAT{bat.FromInts([]int64{1, 2}), bat.FromFloats([]float64{1, 2})})
	T, J := []string{"T"}, []string{"J"}
	cases := []struct {
		name string
		run  func() (*rel.Relation, error)
		want string
	}{
		{"unknown order attribute", func() (*rel.Relation, error) { return Inv(r, []string{"Nope"}, nil) },
			`rma: order attribute "Nope" not in relation r`},
		{"duplicate order attribute", func() (*rel.Relation, error) { return Inv(r, []string{"T", "T"}, nil) },
			`rma: duplicate order attribute "T"`},
		{"string application attribute", func() (*rel.Relation, error) { return Inv(r, []string{"H", "W"}, nil) },
			`rma: application attribute "T" of r is VARCHAR; add it to the order schema or project it away`},
		{"empty application schema", func() (*rel.Relation, error) { return Inv(r, []string{"T", "H", "W"}, nil) },
			`rma: relation r has an empty application schema`},
		{"non-square inv", func() (*rel.Relation, error) { return Inv(r, T, nil) },
			`rma: inv needs a square application part, got 4x2`},
		{"non-square evc", func() (*rel.Relation, error) { return Evc(r, T, nil) },
			`rma: evc needs a square application part, got 4x2`},
		{"wide rqr", func() (*rel.Relation, error) { return Rqr(wide, J, nil) },
			`rma: rqr needs at least as many rows as application attributes, got 2x3`},
		{"order schema not a key", func() (*rel.Relation, error) { return Qqr(dup, []string{"K"}, nil) },
			`rma: order schema [K] of dup is not a key`},
		{"usv column cast of two order attributes", func() (*rel.Relation, error) { return Usv(r, []string{"T", "H"}, nil) },
			`rma: column cast needs an order schema of cardinality one, got [T H]`},
		{"Unary(add)", func() (*rel.Relation, error) { return Unary(OpADD, r, T, nil) },
			`rma: add takes two relations`},
		{"Binary(inv)", func() (*rel.Relation, error) { return Binary(OpINV, r, T, r, T, nil) },
			`rma: inv takes one relation`},
		{"add with unequal rows", func() (*rel.Relation, error) { return Add(r, T, small, J, nil) },
			`rma: add needs equal row counts, got 4 and 1`},
		{"cpd with unequal rows", func() (*rel.Relation, error) { return Cpd(r, T, small, J, nil) },
			`rma: cpd needs equal row counts, got 4 and 1`},
		{"overlapping order schemas", func() (*rel.Relation, error) { return Add(r, T, r2, T, nil) },
			`rma: add needs non-overlapping order schemas; "T" appears in both`},
		{"sol with unequal rows", func() (*rel.Relation, error) { return Sol(r, T, small, J, nil) },
			`rma: sol needs equal row counts, got 4 and 1`},
		{"sol with two right-hand columns", func() (*rel.Relation, error) { return Sol(r, T, r2, T, nil) },
			`rma: sol needs a single application attribute on the right, got 2`},
		{"underdetermined sol", func() (*rel.Relation, error) { return Sol(wide, J, rhs2, J, nil) },
			`rma: sol is underdetermined: 2 rows, 3 unknowns`},
		{"mmu inner dimension", func() (*rel.Relation, error) { return Mmu(r, T, col4, J, nil) },
			`rma: mmu inner dimensions: 2 application attributes vs 4 rows`},
		{"opd width", func() (*rel.Relation, error) { return Opd(r, T, col4, J, nil) },
			`rma: opd needs equally wide application schemas, got 2 and 1`},
	}
	for _, tc := range cases {
		res, err := tc.run()
		if err == nil {
			t.Errorf("%s: accepted, got %d rows", tc.name, res.NumRows())
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("%s: error %q, want %q", tc.name, err.Error(), tc.want)
		}
	}
	if _, err := ParseOp("nope"); err == nil || err.Error() != `rma: unknown operation "nope"` {
		t.Errorf("ParseOp(nope) = %v", err)
	}
	if op, err := ParseOp("inv"); err != nil || op != OpINV {
		t.Errorf("ParseOp(inv) = %v, %v", op, err)
	}
}

// TestUnknownOpFailsFirst holds Unary and Binary given an operation
// that ParseOp rejects to ParseOp's error, returned before any argument
// is split or sorted.
func TestUnknownOpFailsFirst(t *testing.T) {
	r := weather()
	want := `rma: unknown operation "nope"`
	st := &Stats{}
	if _, err := Unary(Op("nope"), r, []string{"T"}, &Options{Stats: st}); err == nil || err.Error() != want || st.Sorted {
		t.Errorf("Unary(nope): error %v, sorted %v; want %q unsorted", err, st.Sorted, want)
	}
	st = &Stats{}
	if _, err := Binary(Op("nope"), r, []string{"T"}, r, []string{"T"}, &Options{Stats: st}); err == nil || err.Error() != want || st.Sorted {
		t.Errorf("Binary(nope): error %v, sorted %v; want %q unsorted", err, st.Sorted, want)
	}
	// An unknown operation fails before the split rejects its argument.
	if _, err := Unary(Op("nope"), nil, nil, nil); err == nil || err.Error() != want {
		t.Errorf("Unary(nope) of a nil relation: error %v, want %q", err, want)
	}
}

func TestPolicyEquivalence(t *testing.T) {
	// INV under BAT and Dense policies must agree.
	b := rel.NewBuilder("m", rel.Schema{
		{Name: "K", Type: bat.Int},
		{Name: "c1", Type: bat.Float},
		{Name: "c2", Type: bat.Float},
		{Name: "c3", Type: bat.Float},
	})
	vals := [][]float64{{4, 1, 2}, {1, 5, 1}, {2, 1, 6}}
	for i, row := range vals {
		b.MustAdd(bat.IntValue(int64(i)), bat.FloatValue(row[0]), bat.FloatValue(row[1]), bat.FloatValue(row[2]))
	}
	r := b.Relation()
	for _, op := range []func(*rel.Relation, []string, *Options) (*rel.Relation, error){Inv, Qqr, Rqr, Det, Tra} {
		denseRes, err := op(r, []string{"K"}, &Options{Policy: PolicyDense})
		if err != nil {
			t.Fatal(err)
		}
		batRes, err := op(r, []string{"K"}, &Options{Policy: PolicyBAT})
		if err != nil {
			t.Fatal(err)
		}
		if denseRes.NumRows() != batRes.NumRows() || denseRes.NumCols() != batRes.NumCols() {
			t.Fatalf("policy shapes differ: %dx%d vs %dx%d",
				denseRes.NumRows(), denseRes.NumCols(), batRes.NumRows(), batRes.NumCols())
		}
		for i := 0; i < denseRes.NumRows(); i++ {
			for k := 0; k < denseRes.NumCols(); k++ {
				dv, bv := denseRes.Value(i, k), batRes.Value(i, k)
				if dv.Type == bat.Float {
					// QR is unique only up to column signs between
					// Householder and Gram-Schmidt; compare magnitudes.
					if !approx(math.Abs(dv.F), math.Abs(bv.F), 1e-8) {
						t.Fatalf("policy values differ at %d,%d: %v vs %v", i, k, dv, bv)
					}
				} else if !dv.Equal(bv) {
					t.Fatalf("policy context differs at %d,%d: %v vs %v", i, k, dv, bv)
				}
			}
		}
	}
}

func TestStatsInstrumentation(t *testing.T) {
	r := weather()
	st := &Stats{}
	if _, err := Qqr(r, []string{"T"}, &Options{Policy: PolicyDense, Stats: st}); err != nil {
		t.Fatal(err)
	}
	if !st.UsedDense {
		t.Error("dense policy not recorded")
	}
	if st.Total() <= 0 {
		t.Error("no time recorded")
	}
	if st.Transform < 0 || st.Transform > st.Total() {
		t.Errorf("transform time %v outside [0, total %v]", st.Transform, st.Total())
	}
	st2 := &Stats{}
	if _, err := Qqr(r, []string{"T"}, &Options{Policy: PolicyBAT, Stats: st2}); err != nil {
		t.Fatal(err)
	}
	if st2.UsedDense {
		t.Error("BAT policy recorded as dense")
	}
	if st2.Transform != 0 {
		t.Error("no-copy path recorded transform time")
	}
}

func TestNoSortOptimizationKeepsTuples(t *testing.T) {
	// qqr with SortOptimized must yield the same set of tuples as full.
	r := weather()
	full, err := Qqr(r, []string{"T"}, &Options{SortMode: SortFull})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Qqr(r, []string{"T"}, &Options{SortMode: SortOptimized})
	if err != nil {
		t.Fatal(err)
	}
	fs, _ := full.Sort(nil, rel.OrderSpec{Attr: "T"})
	os_, _ := opt.Sort(nil, rel.OrderSpec{Attr: "T"})
	for i := 0; i < fs.NumRows(); i++ {
		if fs.Value(i, 0).S != os_.Value(i, 0).S {
			t.Fatalf("origin mismatch row %d", i)
		}
		for k := 1; k < fs.NumCols(); k++ {
			if !approx(math.Abs(fs.Value(i, k).F), math.Abs(os_.Value(i, k).F), 1e-9) {
				t.Fatalf("value mismatch at %d,%d: %v vs %v", i, k, fs.Value(i, k), os_.Value(i, k))
			}
		}
	}
}

func TestSingleRowEmptyOrderSchema(t *testing.T) {
	// A single-row relation admits an empty order schema (det of 1x1).
	r := rel.MustNew("one", rel.Schema{{Name: "x", Type: bat.Float}},
		[]*bat.BAT{bat.FromFloats([]float64{7})})
	v, err := Det(r, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Value(0, 1).F != 7 {
		t.Errorf("det = %v", v.Value(0, 1))
	}
	// Multi-row without order schema must fail.
	r2 := rel.MustNew("two", rel.Schema{{Name: "x", Type: bat.Float}},
		[]*bat.BAT{bat.FromFloats([]float64{1, 2})})
	if _, err := Rnk(r2, nil, nil); err == nil {
		t.Error("multi-row empty order schema accepted")
	}
}
