// Package competitor_test exercises the four competitor simulations
// against each other and against the native engine: all five must agree
// on workload results (they differ only in how they compute them).
package competitor_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/competitor/aida"
	"repro/internal/competitor/arraydb"
	"repro/internal/competitor/madlib"
	"repro/internal/competitor/rsim"
	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/rel"
)

func sampleRel() *rel.Relation {
	b := rel.NewBuilder("t", rel.Schema{
		{Name: "id", Type: bat.Int},
		{Name: "x", Type: bat.Float},
		{Name: "y", Type: bat.Float},
		{Name: "tag", Type: bat.String},
	})
	b.MustAdd(bat.IntValue(1), bat.FloatValue(1), bat.FloatValue(10), bat.StringValue("a"))
	b.MustAdd(bat.IntValue(2), bat.FloatValue(2), bat.FloatValue(20), bat.StringValue("b"))
	b.MustAdd(bat.IntValue(3), bat.FloatValue(3), bat.FloatValue(30), bat.StringValue("a"))
	return b.Relation()
}

// --- rsim ---------------------------------------------------------------

func TestRsimDataFrame(t *testing.T) {
	df := rsim.FromRelation(sampleRel())
	if df.NumRows() != 3 {
		t.Fatalf("rows = %d", df.NumRows())
	}
	x, err := df.Col("x")
	if err != nil {
		t.Fatal(err)
	}
	filtered := df.Filter(func(i int) bool { return x.Floats()[i] >= 2 })
	if filtered.NumRows() != 2 {
		t.Errorf("filter rows = %d", filtered.NumRows())
	}
	counts, err := df.GroupCount("tag")
	if err != nil || counts["a"] != 2 || counts["b"] != 1 {
		t.Errorf("group counts = %v, %v", counts, err)
	}
	if _, err := df.Col("nope"); err == nil {
		t.Error("missing column accepted")
	}
}

// writeCSV renders a data.frame as CSV text, the fixture LoadCSV reads
// back.
func writeCSV(sb *strings.Builder, df *rsim.DataFrame) {
	sb.WriteString(strings.Join(df.Names, ","))
	sb.WriteByte('\n')
	for i := 0; i < df.NumRows(); i++ {
		for k, c := range df.Cols {
			if k > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(c.Get(i).String())
		}
		sb.WriteByte('\n')
	}
}

func TestRsimCSVRoundTrip(t *testing.T) {
	df := rsim.FromRelation(sampleRel())
	var sb strings.Builder
	writeCSV(&sb, df)
	back, err := rsim.LoadCSV(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 3 || len(back.Names) != 4 {
		t.Fatalf("csv round trip = %dx%d", back.NumRows(), len(back.Names))
	}
	y, _ := back.Col("y")
	if y.Type() != bat.Float && y.Type() != bat.Int {
		t.Errorf("y inferred as %v", y.Type())
	}
	tag, _ := back.Col("tag")
	if tag.Type() != bat.String {
		t.Errorf("tag inferred as %v", tag.Type())
	}
	if _, err := rsim.LoadCSV("a,b\n1"); err == nil {
		t.Error("ragged csv accepted")
	}
}

func TestRsimMerge(t *testing.T) {
	l := rsim.FromRelation(sampleRel())
	rr := rsim.FromRelation(rel.MustNew("u", rel.Schema{
		{Name: "id2", Type: bat.Int},
		{Name: "z", Type: bat.Float},
	}, []*bat.BAT{bat.FromInts([]int64{1, 3}), bat.FromFloats([]float64{100, 300})}))
	m, err := rsim.Merge(l, rr, "id", "id2")
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRows() != 2 {
		t.Fatalf("merge rows = %d", m.NumRows())
	}
	z, _ := m.Col("z")
	if z.Floats()[0] != 100 || z.Floats()[1] != 300 {
		t.Errorf("merge z = %v", z.Floats())
	}
}

func TestRsimMatrixConversion(t *testing.T) {
	df := rsim.FromRelation(sampleRel())
	m, err := df.ToMatrix([]string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 2 || m.At(2, 1) != 30 {
		t.Fatalf("matrix = %v", m)
	}
	if _, err := df.ToMatrix([]string{"tag"}); err == nil {
		t.Error("character column converted to numeric matrix")
	}
	back := rsim.FromMatrix(m, []string{"x", "y"})
	if back.NumRows() != 3 {
		t.Errorf("FromMatrix rows = %d", back.NumRows())
	}
}

// --- aida ----------------------------------------------------------------

func TestAidaBoundary(t *testing.T) {
	ht := aida.CrossBoundary(sampleRel())
	x, err := ht.Col("x")
	if err != nil {
		t.Fatal(err)
	}
	if !x.Shared {
		t.Error("float column should cross by pointer")
	}
	id, _ := ht.Col("id")
	if id.Objects == nil {
		t.Error("int column should be converted to host objects")
	}
	tag, _ := ht.Col("tag")
	if tag.Objects == nil || tag.Objects[0] != "a" {
		t.Error("string column should materialize host objects")
	}
	m, err := ht.Matrix([]string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 1) != 20 {
		t.Errorf("matrix = %v", m)
	}
	if _, err := ht.Matrix([]string{"tag"}); err == nil {
		t.Error("object column used as numeric")
	}
	if _, err := ht.Matrix(nil); err == nil {
		t.Error("empty column list accepted")
	}
}

// --- madlib ----------------------------------------------------------------

func TestMadlibRowStore(t *testing.T) {
	tb := madlib.FromRelation(sampleRel())
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	f := tb.Filter(func(row []bat.Value) bool { return row[1].F > 1.5 })
	if len(f.Rows) != 2 {
		t.Errorf("filter rows = %d", len(f.Rows))
	}
	counts, err := tb.GroupCount("tag")
	if err != nil || counts["a"] != 2 {
		t.Errorf("group = %v, %v", counts, err)
	}
	joined, err := madlib.HashJoin(tb, tb.Filter(func([]bat.Value) bool { return true }), "id", "id")
	if err != nil {
		t.Fatal(err)
	}
	if len(joined.Rows) != 3 {
		t.Errorf("join rows = %d", len(joined.Rows))
	}
}

func TestMadlibLinAlg(t *testing.T) {
	// OLS through exact points must recover coefficients.
	x := [][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}}
	y := []float64{1, 3, 5, 7}
	beta, err := madlib.LinRegr(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta[0]-1) > 1e-9 || math.Abs(beta[1]-2) > 1e-9 {
		t.Fatalf("beta = %v", beta)
	}
	// MatMul/Invert against the dense kernel.
	a := [][]float64{{4, 1}, {1, 3}}
	inv, err := madlib.Invert(a)
	if err != nil {
		t.Fatal(err)
	}
	inv0, _ := linalg.Inverse(nil, [][]float64{{4, 1}, {1, 3}}) // symmetric: its columns are its rows
	want := matrix.FromColumns(inv0)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if math.Abs(inv[i][j]-want.At(i, j)) > 1e-12 {
				t.Fatalf("invert = %v, want %v", inv, want)
			}
		}
	}
	if _, err := madlib.Invert([][]float64{{0, 0}, {0, 0}}); err == nil {
		t.Error("singular inversion accepted")
	}
	cov := madlib.Covariance([][]float64{{2, 1.5}, {1, 4}})
	if math.Abs(cov[0][0]-0.5) > 1e-12 {
		t.Errorf("cov = %v", cov)
	}
	arrays, err := tbArrays()
	if err != nil {
		t.Fatal(err)
	}
	if len(arrays) != 3 || arrays[2][1] != 30 {
		t.Errorf("ToArrays = %v", arrays)
	}
}

func tbArrays() ([][]float64, error) {
	tb := madlib.FromRelation(sampleRel())
	return tb.ToArrays([]string{"x", "y"})
}

// --- arraydb ----------------------------------------------------------------

func TestArrayDBAddMatchesVectorAdd(t *testing.T) {
	cols1 := [][]float64{{1, 2, 3}, {4, 5, 6}}
	cols2 := [][]float64{{10, 20, 30}, {40, 50, 60}}
	a := arraydb.FromColumns(cols1, 2)
	b := arraydb.FromColumns(cols2, 2)
	sum, err := arraydb.Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.Get(0, 0); got != 11 {
		t.Errorf("sum(0,0) = %v", got)
	}
	if got := sum.Get(2, 1); got != 66 {
		t.Errorf("sum(2,1) = %v", got)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			if got, want := sum.Get(i, j), cols1[j][i]+cols2[j][i]; got != want {
				t.Errorf("sum(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
	if _, err := arraydb.Add(a, arraydb.FromColumns([][]float64{{1}}, 2)); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestArrayDBFilter(t *testing.T) {
	a := arraydb.FromColumns([][]float64{{1, 5, 9}}, 0)
	f := a.Filter(func(v float64) bool { return v > 4 })
	if f.Get(0, 0) != 0 || f.Get(1, 0) != 5 || f.Get(2, 0) != 9 {
		t.Errorf("filter contents: %v %v %v", f.Get(0, 0), f.Get(1, 0), f.Get(2, 0))
	}
}

// --- cross-engine agreement on a real workload ----------------------------

func TestEnginesAgreeOnOLS(t *testing.T) {
	// All engines compute the same OLS coefficients for the same data.
	trips := dataset.Trips(2000, 50, 11)
	dur, _ := trips.Col("duration")
	f, _ := dur.Floats()
	n := len(f)
	x := matrix.New(n, 2)
	y := make([]float64, n)
	xr := make([][]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, 1)
		x.Set(i, 1, f[i])
		y[i] = 2*f[i] + 5
		xr[i] = []float64{1, f[i]}
	}
	// Native dense path.
	xc := x.Columns()
	inv, err := linalg.Inverse(nil, linalg.CrossProductCols(nil, xc, xc))
	if err != nil {
		t.Fatal(err)
	}
	beta := matrix.FromColumns(linalg.MatMulCols(nil, inv, linalg.CrossProductCols(nil, xc, [][]float64{y}), 2))
	// MADlib path.
	mbeta, err := madlib.LinRegr(xr, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta.At(0, 0)-mbeta[0]) > 1e-6 || math.Abs(beta.At(1, 0)-mbeta[1]) > 1e-6 {
		t.Fatalf("engines disagree: native %v vs madlib %v", beta, mbeta)
	}
	if math.Abs(mbeta[1]-2) > 1e-6 {
		t.Errorf("OLS slope = %v, want 2", mbeta[1])
	}
}
