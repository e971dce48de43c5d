package batlin

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/linalg"
	"repro/internal/matrix"
)

// toCols converts a dense matrix to a BAT column list.
func toCols(m *matrix.Matrix) []*bat.BAT {
	cols := m.Columns()
	out := make([]*bat.BAT, len(cols))
	for j, c := range cols {
		out[j] = bat.FromFloats(c)
	}
	return out
}

// toMatrix converts a BAT column list back to a dense matrix.
func toMatrix(cols []*bat.BAT) *matrix.Matrix {
	ff := make([][]float64, len(cols))
	for j, c := range cols {
		f, err := c.Floats()
		if err != nil {
			panic(err)
		}
		ff[j] = f
	}
	return matrix.FromColumns(ff)
}

// The dense references run the column kernels of package linalg on a
// matrix's columns.

func fromRows(rows [][]float64) *matrix.Matrix {
	m := matrix.New(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

func identity(n int) *matrix.Matrix {
	m := matrix.New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// transpose returns mᵀ: its columns are m's rows.
func transpose(m *matrix.Matrix) *matrix.Matrix {
	rows := make([][]float64, m.Rows)
	for i := range rows {
		rows[i] = m.Row(i)
	}
	return matrix.FromColumns(rows)
}

func matMul(a, b *matrix.Matrix) *matrix.Matrix {
	return matrix.FromColumns(linalg.MatMulCols(nil, a.Columns(), b.Columns(), a.Rows))
}

func crossProduct(a, b *matrix.Matrix) *matrix.Matrix {
	return matrix.FromColumns(linalg.CrossProductCols(nil, a.Columns(), b.Columns()))
}

func matVec(a *matrix.Matrix, x []float64) []float64 {
	out := make([]float64, a.Rows)
	for i := range out {
		for j, v := range a.Row(i) {
			out[i] += v * x[j]
		}
	}
	return out
}

func randMat(rng *rand.Rand, m, n int) *matrix.Matrix {
	a := matrix.New(m, n)
	for k := range a.Data {
		a.Data[k] = rng.NormFloat64()
	}
	return a
}

func TestElementwiseAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMat(rng, 20, 5)
	b := randMat(rng, 20, 5)
	sum, err := Add(nil, toCols(a), nil, toCols(b), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.ApproxEqual(toMatrix(sum), matrix.Add(a, b), 1e-12) {
		t.Error("Add mismatch")
	}
	diff, _ := Sub(nil, toCols(a), nil, toCols(b), nil)
	if !matrix.ApproxEqual(toMatrix(diff), matrix.Add(a, b.Scale(-1)), 1e-12) {
		t.Error("Sub mismatch")
	}
	had, _ := EMU(nil, toCols(a), nil, toCols(b), nil)
	if !matrix.ApproxEqual(toMatrix(had), matrix.EMU(a, b), 1e-12) {
		t.Error("EMU mismatch")
	}
	if _, err := Add(nil, toCols(a), nil, toCols(randMat(rng, 19, 5)), nil); err != ErrShape {
		t.Error("shape mismatch accepted")
	}
	if _, err := Sub(nil, toCols(a), nil, toCols(randMat(rng, 20, 4)), nil); err != ErrShape {
		t.Error("shape mismatch accepted")
	}
	if _, err := EMU(nil, toCols(a), nil, toCols(randMat(rng, 20, 4)), nil); err != ErrShape {
		t.Error("shape mismatch accepted")
	}
}

func TestMMUAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMat(rng, 9, 4)
	b := randMat(rng, 4, 6)
	got, err := MMU(nil, toCols(a), toCols(b))
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.ApproxEqual(toMatrix(got), matMul(a, b), 1e-10) {
		t.Error("MMU mismatch")
	}
	if _, err := MMU(nil, toCols(a), toCols(randMat(rng, 5, 2))); err != ErrShape {
		t.Error("inner mismatch accepted")
	}
}

func TestCPDOPDAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMat(rng, 12, 3)
	b := randMat(rng, 12, 5)
	got, err := CPD(nil, toCols(a), toCols(b))
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.ApproxEqual(toMatrix(got), crossProduct(a, b), 1e-10) {
		t.Error("CPD mismatch")
	}
	c := randMat(rng, 4, 3)
	d := randMat(rng, 7, 3)
	god, err := OPD(nil, toCols(c), toCols(d))
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.ApproxEqual(toMatrix(god), matMul(c, transpose(d)), 1e-10) {
		t.Error("OPD mismatch")
	}
	if _, err := CPD(nil, toCols(a), toCols(c)); err != ErrShape {
		t.Error("CPD row mismatch accepted")
	}
	if _, err := OPD(nil, toCols(a), toCols(b)); err != ErrShape {
		t.Error("OPD col mismatch accepted")
	}
}

func TestTra(t *testing.T) {
	a := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := toMatrix(Tra(nil, toCols(a)))
	if !matrix.ApproxEqual(got, transpose(a), 0) {
		t.Errorf("Tra = %v", got)
	}
}

func TestInvAlgorithm2(t *testing.T) {
	// The paper's Figure 3 example.
	a := fromRows([][]float64{{6, 7}, {8, 5}})
	inv, err := Inv(nil, toCols(a))
	if err != nil {
		t.Fatal(err)
	}
	inv0, _ := linalg.Inverse(nil, a.Columns())
	dense := matrix.FromColumns(inv0)
	if !matrix.ApproxEqual(toMatrix(inv), dense, 1e-12) {
		t.Errorf("Inv = %v, want %v", toMatrix(inv), dense)
	}
}

func TestInvRandomAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 3, 8, 25} {
		a := randMat(rng, n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+2)
		}
		got, err := Inv(nil, toCols(a))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !matrix.ApproxEqual(matMul(a, toMatrix(got)), identity(n), 1e-8) {
			t.Fatalf("n=%d: A·A⁻¹ != I", n)
		}
	}
}

func TestInvNeedsPivoting(t *testing.T) {
	// Zero on the diagonal: plain Algorithm 2 would divide by zero.
	a := fromRows([][]float64{{0, 1}, {1, 0}})
	inv, err := Inv(nil, toCols(a))
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.ApproxEqual(toMatrix(inv), a, 1e-12) { // a is its own inverse
		t.Errorf("Inv = %v", toMatrix(inv))
	}
}

func TestInvErrors(t *testing.T) {
	if _, err := Inv(nil, toCols(matrix.New(2, 3))); err != ErrShape {
		t.Error("non-square accepted")
	}
	if _, err := Inv(nil, toCols(fromRows([][]float64{{1, 2}, {2, 4}}))); err != ErrSingular {
		t.Error("singular accepted")
	}
	if _, err := Inv(nil, nil); err != ErrShape {
		t.Error("empty accepted")
	}
}

func TestGramSchmidtQR(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dims := range [][2]int{{4, 4}, {12, 5}, {60, 10}} {
		a := randMat(rng, dims[0], dims[1])
		q, r, err := QR(nil, toCols(a))
		if err != nil {
			t.Fatal(err)
		}
		qm, rm := toMatrix(q), toMatrix(r)
		if !matrix.ApproxEqual(matMul(qm, rm), a, 1e-8) {
			t.Fatalf("%v: Q·R != A", dims)
		}
		if !matrix.ApproxEqual(crossProduct(qm, qm), identity(dims[1]), 1e-8) {
			t.Fatalf("%v: QᵀQ != I", dims)
		}
		for j := 0; j < dims[1]; j++ {
			for i := j + 1; i < dims[1]; i++ {
				if rm.At(i, j) != 0 {
					t.Fatalf("R not upper triangular")
				}
			}
		}
	}
	if _, _, err := QR(nil, toCols(matrix.New(2, 3))); err != ErrShape {
		t.Error("wide QR accepted")
	}
	if _, _, err := QR(nil, toCols(fromRows([][]float64{{1, 1}, {1, 1}}))); err != ErrSingular {
		t.Error("rank-deficient QR accepted")
	}
}

func TestDetAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 2, 5, 12} {
		a := randMat(rng, n, n)
		got, err := Det(nil, toCols(a))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := linalg.Det(nil, a.Columns())
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("n=%d: det = %v, want %v", n, got, want)
		}
	}
	if d, err := Det(nil, toCols(fromRows([][]float64{{1, 2}, {2, 4}}))); err != nil || d != 0 {
		t.Errorf("singular det = %v, %v", d, err)
	}
	if _, err := Det(nil, toCols(matrix.New(2, 3))); err != ErrShape {
		t.Error("non-square det accepted")
	}
}

func TestSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randMat(rng, 10, 3)
	want := []float64{2, -1, 0.5}
	rhs := matVec(a, want)
	x, err := Solve(nil, toCols(a), bat.FromFloats(rhs))
	if err != nil {
		t.Fatal(err)
	}
	f, _ := x.Floats()
	for i := range want {
		if math.Abs(f[i]-want[i]) > 1e-8 {
			t.Fatalf("solve = %v", f)
		}
	}
	if _, err := Solve(nil, toCols(a), bat.FromFloats(make([]float64, 9))); err != ErrShape {
		t.Error("rhs length mismatch accepted")
	}
}

func TestIDMatrix(t *testing.T) {
	id := toMatrix(IDMatrix(nil, 4))
	if !matrix.ApproxEqual(id, identity(4), 0) {
		t.Errorf("IDMatrix = %v", id)
	}
}
