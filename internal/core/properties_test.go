package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/rel"
)

// randRelation builds a relation with one int key column K (shuffled
// distinct values) and k float application columns c01..ck whose names
// sort alphabetically in schema order.
func randRelation(rng *rand.Rand, name string, n, k int) *rel.Relation {
	schema := rel.Schema{{Name: "K" + name, Type: bat.Int}}
	for j := 0; j < k; j++ {
		schema = append(schema, rel.Attr{Name: fmt.Sprintf("%sc%02d", name, j), Type: bat.Float})
	}
	b := rel.NewBuilder(name, schema)
	keys := rng.Perm(n)
	for i := 0; i < n; i++ {
		vals := []bat.Value{bat.IntValue(int64(keys[i]))}
		for j := 0; j < k; j++ {
			vals = append(vals, bat.FloatValue(rng.NormFloat64()))
		}
		b.MustAdd(vals...)
	}
	return b.Relation()
}

// spdRelation returns a relation whose application part is symmetric
// positive definite when ordered by K.
func spdRelation(rng *rand.Rand, n int) *rel.Relation {
	raw := matrix.New(n, n)
	for i := range raw.Data {
		raw.Data[i] = rng.NormFloat64()
	}
	a := matrix.FromColumns(linalg.CrossProductCols(nil, raw.Columns(), raw.Columns()))
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+1)
	}
	schema := rel.Schema{{Name: "K", Type: bat.Int}}
	for j := 0; j < n; j++ {
		schema = append(schema, rel.Attr{Name: fmt.Sprintf("c%02d", j), Type: bat.Float})
	}
	b := rel.NewBuilder("spd", schema)
	for i := 0; i < n; i++ {
		vals := []bat.Value{bat.IntValue(int64(i))}
		for j := 0; j < n; j++ {
			vals = append(vals, bat.FloatValue(a.At(i, j)))
		}
		b.MustAdd(vals...)
	}
	return b.Relation()
}

// reduce implements Definition 6.1: r →_U m. It orders the relation by
// the named attributes and returns the remaining columns as a matrix.
func reduce(t *testing.T, v *rel.Relation, order []string) *matrix.Matrix {
	t.Helper()
	specs := make([]rel.OrderSpec, len(order))
	for k, a := range order {
		specs[k] = rel.OrderSpec{Attr: a}
	}
	sorted, err := v.Sort(nil, specs...)
	if err != nil {
		t.Fatalf("reduce sort: %v", err)
	}
	inOrder := make(map[string]bool)
	for _, a := range order {
		inOrder[a] = true
	}
	var cols [][]float64
	for k, attr := range sorted.Schema {
		if inOrder[attr.Name] {
			continue
		}
		f, err := sorted.Cols[k].Floats()
		if err != nil {
			t.Fatalf("reduce: %v", err)
		}
		cols = append(cols, f)
	}
	return matrix.FromColumns(cols)
}

// scalarMatrix is the 1×1 matrix holding v.
// transposeMatrix returns mᵀ: its columns are m's rows.
func transposeMatrix(m *matrix.Matrix) *matrix.Matrix {
	rows := make([][]float64, m.Rows)
	for i := range rows {
		rows[i] = m.Row(i)
	}
	return matrix.FromColumns(rows)
}

func scalarMatrix(v float64) *matrix.Matrix {
	m := matrix.New(1, 1)
	m.Set(0, 0, v)
	return m
}

// inputMatrix is µ_Ū(r) for a relation whose key is its first attribute.
func inputMatrix(t *testing.T, r *rel.Relation) *matrix.Matrix {
	t.Helper()
	return reduce(t, r, []string{r.Schema[0].Name})
}

// TestMatrixConsistencyUnary verifies Theorem 6.8 for every unary
// operation: op_U(r) is reducible to OP(µ_Ū(r)).
func TestMatrixConsistencyUnary(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tall := randRelation(rng, "r", 7, 3) // 7x3
	square := spdRelation(rng, 5)        // SPD 5x5 (inv, evc, evl, chf, det)
	tallM := inputMatrix(t, tall)
	squareM := inputMatrix(t, square)

	cases := []struct {
		op    Op
		rel   *rel.Relation
		base  func() *matrix.Matrix
		order []string // order schema U' of the result for reduction
	}{
		{OpTRA, tall, func() *matrix.Matrix { return transposeMatrix(tallM) }, []string{"C"}},
		{OpQQR, tall, func() *matrix.Matrix {
			d, _ := linalg.NewQRColumns(nil, tallM.Columns(), tallM.Rows)
			return matrix.FromColumns(d.Q(nil))
		}, []string{"Kr"}},
		{OpRQR, tall, func() *matrix.Matrix {
			d, _ := linalg.NewQRColumns(nil, tallM.Columns(), tallM.Rows)
			return matrix.FromColumns(d.R(nil))
		}, []string{"C"}},
		{OpDSV, tall, func() *matrix.Matrix {
			sv, _ := linalg.SingularValues(nil, tallM.Columns())
			d := matrix.New(tallM.Cols, tallM.Cols)
			for i, v := range sv {
				d.Set(i, i, v)
			}
			return d
		}, []string{"C"}},
		{OpVSV, tall, func() *matrix.Matrix {
			d, _ := linalg.NewSVD(nil, tallM.Columns())
			return matrix.FromColumns(d.FullV(nil))
		}, []string{"C"}},
		{OpUSV, tall, func() *matrix.Matrix {
			d, _ := linalg.NewSVD(nil, tallM.Columns())
			return matrix.FromColumns(d.FullU(nil))
		}, []string{"Kr"}},
		{OpRNK, tall, func() *matrix.Matrix {
			r, _ := linalg.Rank(nil, tallM.Columns())
			return scalarMatrix(float64(r))
		}, []string{"C"}},
		{OpINV, square, func() *matrix.Matrix { m, _ := linalg.Inverse(nil, squareM.Columns()); return matrix.FromColumns(m) }, []string{"K"}},
		{OpEVC, square, func() *matrix.Matrix {
			m, _ := linalg.Eigenvectors(nil, squareM.Columns())
			return matrix.FromColumns(m)
		}, []string{"K"}},
		{OpEVL, square, func() *matrix.Matrix {
			vals, _ := linalg.Eigenvalues(nil, squareM.Columns())
			return matrix.FromColumns([][]float64{vals})
		}, []string{"K"}},
		{OpCHF, square, func() *matrix.Matrix { m, _ := linalg.Cholesky(nil, squareM.Columns()); return matrix.FromColumns(m) }, []string{"K"}},
		{OpDET, square, func() *matrix.Matrix {
			d, _ := linalg.Det(nil, squareM.Columns())
			return scalarMatrix(d)
		}, []string{"C"}},
	}
	for _, c := range cases {
		order := []string{c.rel.Schema[0].Name}
		v, err := Unary(c.op, c.rel, order, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		got := reduce(t, v, c.order)
		want := c.base()
		if !matrix.ApproxEqual(got, want, 1e-9) {
			t.Errorf("%s: result relation is not reducible to the base result\ngot  %v\nwant %v", c.op, got, want)
		}
	}
}

// TestMatrixConsistencyBinary verifies Theorem 6.8 for the binary
// operations.
func TestMatrixConsistencyBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	r := randRelation(rng, "r", 6, 3)
	s := randRelation(rng, "s", 6, 3)
	mr, ms := inputMatrix(t, r), inputMatrix(t, s)

	// add/sub/emu: reducible via U (r's order schema).
	elementwise := []struct {
		op   Op
		want *matrix.Matrix
	}{
		{OpADD, matrix.Add(mr, ms)},
		{OpSUB, matrix.Add(mr, ms.Scale(-1))},
		{OpEMU, matrix.EMU(mr, ms)},
	}
	for _, c := range elementwise {
		v, err := Binary(c.op, r, []string{"Kr"}, s, []string{"Ks"}, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		// Reduce by r's order column; drop s's order column too (it is
		// contextual, not part of the base result).
		dropped, err := v.Drop("Ks")
		if err != nil {
			t.Fatal(err)
		}
		got := reduce(t, dropped, []string{"Kr"})
		if !matrix.ApproxEqual(got, c.want, 1e-9) {
			t.Errorf("%s: not reducible to base result", c.op)
		}
	}

	// mmu: r(6x3) × s'(3x2).
	s2 := randRelation(rng, "q", 3, 2)
	msq := inputMatrix(t, s2)
	v, err := Binary(OpMMU, r, []string{"Kr"}, s2, []string{"Kq"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.ApproxEqual(reduce(t, v, []string{"Kr"}), matrix.FromColumns(linalg.MatMulCols(nil, mr.Columns(), msq.Columns(), mr.Rows)), 1e-9) {
		t.Error("mmu: not reducible to base result")
	}

	// cpd.
	v, err = Binary(OpCPD, r, []string{"Kr"}, s, []string{"Ks"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.ApproxEqual(reduce(t, v, []string{"C"}), matrix.FromColumns(linalg.CrossProductCols(nil, mr.Columns(), ms.Columns())), 1e-9) {
		t.Error("cpd: not reducible to base result")
	}

	// opd.
	v, err = Binary(OpOPD, r, []string{"Kr"}, s, []string{"Ks"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Column names are ▽Ks = "0".."5"; they sort as strings, so reduce by
	// Kr and compare against OPD with s columns permuted to string order.
	got := reduce(t, v, []string{"Kr"})
	want := matrix.FromColumns(linalg.OuterProductCols(nil, mr.Columns(), ms.Columns(), mr.Rows, ms.Rows))
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("opd shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if !matrix.ApproxEqual(got, want, 1e-9) {
		t.Error("opd: not reducible to base result")
	}

	// sol: single-column right-hand side.
	rhs := randRelation(rng, "b", 6, 1)
	mb := inputMatrix(t, rhs)
	v, err = Binary(OpSOL, r, []string{"Kr"}, rhs, []string{"Kb"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, err := linalg.Solve(nil, mr.Columns(), mb.Column(0))
	if err != nil {
		t.Fatal(err)
	}
	wantX := matrix.New(len(x), 1)
	for i, xv := range x {
		wantX.Set(i, 0, xv)
	}
	if !matrix.ApproxEqual(reduce(t, v, []string{"C"}), wantX, 1e-9) {
		t.Error("sol: not reducible to base result")
	}
}

// TestOriginsDefinition verifies Definition 6.6 on representative shapes:
// the row origin equals the contextual values prescribed by Table 3 and
// the column origin equals the prescribed schema part.
func TestOriginsDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	r := randRelation(rng, "r", 5, 3)

	// Shape (r1,c1): qqr — row origin r.U sorted, column origin Ū.
	v, err := Qqr(r, []string{"Kr"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if v.Value(i, 0).I != int64(i) {
			t.Errorf("qqr row origin %d = %v", i, v.Value(i, 0))
		}
	}
	wantCols := []string{"Kr", "rc00", "rc01", "rc02"}
	for k, w := range wantCols {
		if v.Schema[k].Name != w {
			t.Errorf("qqr column origin %d = %s, want %s", k, v.Schema[k].Name, w)
		}
	}

	// Shape (c1,c1): rqr — row origin ∆Ū (C column), column origin Ū.
	v, err = Rqr(r, []string{"Kr"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantC := []string{"rc00", "rc01", "rc02"}
	for i, w := range wantC {
		if v.Value(i, 0).S != w {
			t.Errorf("rqr row origin %d = %v, want %s", i, v.Value(i, 0), w)
		}
	}

	// Shape (r1,r1): usv — column origin ▽U (sorted key values as names).
	v, err = Usv(r, []string{"Kr"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		want := fmt.Sprintf("%d", i)
		if v.Schema[i+1].Name != want {
			t.Errorf("usv column origin %d = %s, want %s", i, v.Schema[i+1].Name, want)
		}
	}

	// Shape (1,1): rnk — row origin is the relation name, column origin op.
	v, err = Rnk(r, []string{"Kr"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Value(0, 0).S != "r" || v.Schema[1].Name != "rnk" {
		t.Errorf("rnk origins = %v, %s", v.Value(0, 0), v.Schema[1].Name)
	}
}

// TestOriginsConnectValues follows Example 6.5: a result value and its
// argument value share origins (row key + attribute name).
func TestOriginsConnectValues(t *testing.T) {
	r := weather()
	pred, _ := r.StringPred("T", func(s string) bool { return s > "6am" })
	sel := r.Select(nil, pred)
	v, err := Inv(sel, []string{"T"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Origin (7am, H) exists in both argument and result.
	argVal := math.NaN()
	for i := 0; i < sel.NumRows(); i++ {
		if sel.Value(i, 0).S == "7am" {
			argVal = sel.Value(i, 1).F
		}
	}
	resVal := math.NaN()
	for i := 0; i < v.NumRows(); i++ {
		if v.Value(i, 0).S == "7am" {
			resVal = v.Value(i, 1).F
		}
	}
	if math.IsNaN(argVal) || math.IsNaN(resVal) {
		t.Fatal("origin (7am,H) missing")
	}
	if argVal != 6 {
		t.Errorf("argument value at (7am,H) = %v", argVal)
	}
	if !approx(resVal, -5.0/26, 1e-12) {
		t.Errorf("result value at (7am,H) = %v", resVal)
	}
}

// TestShapeTable verifies the ShapeOf table against paper Table 1/2.
func TestShapeTable(t *testing.T) {
	want := map[Op]ShapeType{
		OpUSV: {DimR1, DimR1},
		OpOPD: {DimR1, DimR2},
		OpINV: {DimR1, DimC1},
		OpEVC: {DimR1, DimC1},
		OpCHF: {DimR1, DimC1},
		OpQQR: {DimR1, DimC1},
		OpMMU: {DimR1, DimC2},
		OpEVL: {DimR1, DimOne},
		OpTRA: {DimC1, DimR1},
		OpRQR: {DimC1, DimC1},
		OpDSV: {DimC1, DimC1},
		OpVSV: {DimC1, DimC1}, // paper erratum: Table 1 says (r1,1)
		OpCPD: {DimC1, DimC2},
		OpSOL: {DimC1, DimC2},
		OpEMU: {DimRStar, DimCStar},
		OpADD: {DimRStar, DimCStar},
		OpSUB: {DimRStar, DimCStar},
		OpDET: {DimOne, DimOne},
		OpRNK: {DimOne, DimOne},
	}
	for op, st := range want {
		if ShapeOf(op) != st {
			t.Errorf("ShapeOf(%s) = %v, want %v", op, ShapeOf(op), st)
		}
	}
	if len(Ops) != 19 {
		t.Errorf("Ops lists %d operations, want 19", len(Ops))
	}
	for _, op := range Ops {
		if _, err := ParseOp(string(op)); err != nil {
			t.Errorf("ParseOp(%s): %v", op, err)
		}
	}
}

// TestClosure: every operation returns a relation usable as input to
// further relational and RMA operations (the algebra is closed).
func TestClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	r := spdRelation(rng, 4)
	inv, err := Inv(r, []string{"K"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Relational op on RMA output.
	pred, err := inv.FloatPred("c00", func(float64) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	sel := inv.Select(nil, pred)
	// RMA op on relational output of RMA output.
	back, err := Inv(sel, []string{"K"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// inv(inv(A)) = A.
	got := reduce(t, back, []string{"K"})
	want := inputMatrix(t, r)
	if !matrix.ApproxEqual(got, want, 1e-6) {
		t.Error("inv∘inv != id — closure chain broke values")
	}
}
