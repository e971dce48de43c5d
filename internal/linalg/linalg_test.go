package linalg

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/matrix"
)

// The tests state their properties over row-major matrices; the helpers
// below run the column kernels on a matrix's columns and convert the
// result back.

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

func diag(d []float64) *matrix.Matrix {
	m := matrix.New(len(d), len(d))
	for i, v := range d {
		m.Set(i, i, v)
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
	return matrix.FromColumns(MatMulCols(nil, a.Columns(), b.Columns(), a.Rows))
}

func crossProduct(a, b *matrix.Matrix) *matrix.Matrix {
	return matrix.FromColumns(CrossProductCols(nil, a.Columns(), b.Columns()))
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

func inverse(a *matrix.Matrix) (*matrix.Matrix, error) {
	inv, err := Inverse(nil, a.Columns())
	if err != nil {
		return nil, err
	}
	return matrix.FromColumns(inv), nil
}

func det(a *matrix.Matrix) (float64, error) { return Det(nil, a.Columns()) }

func cholesky(a *matrix.Matrix) (*matrix.Matrix, error) {
	r, err := Cholesky(nil, a.Columns())
	if err != nil {
		return nil, err
	}
	return matrix.FromColumns(r), nil
}

func qr(a *matrix.Matrix) (q, r *matrix.Matrix, err error) {
	d, err := NewQRColumns(nil, a.Columns(), a.Rows)
	if err != nil {
		return nil, nil, err
	}
	return matrix.FromColumns(d.Q(nil)), matrix.FromColumns(d.R(nil)), nil
}

func randMatrix(rng *rand.Rand, m, n int) *matrix.Matrix {
	a := matrix.New(m, n)
	for k := range a.Data {
		a.Data[k] = rng.NormFloat64()
	}
	return a
}

// wellConditioned returns A = Q·D·Qᵀ-ish random square matrix with singular
// values bounded away from zero: random + n·I dominance trick.
func wellConditioned(rng *rand.Rand, n int) *matrix.Matrix {
	a := randMatrix(rng, n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n)+2)
	}
	return a
}

func spd(rng *rand.Rand, n int) *matrix.Matrix {
	b := randMatrix(rng, n, n)
	a := crossProduct(b, b) // BᵀB is PSD
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+1) // make it PD
	}
	return a
}

func TestMatMulSmall(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	got := matMul(a, b)
	want := fromRows([][]float64{{19, 22}, {43, 50}})
	if !matrix.ApproxEqual(got, want, 1e-12) {
		t.Fatalf("MatMul = %v", got)
	}
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {64, 64, 64}, {65, 127, 33}, {200, 50, 120}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := randMatrix(rng, m, k), randMatrix(rng, k, n)
		got := matMul(a, b)
		want := matrix.New(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for l := 0; l < k; l++ {
					s += a.At(i, l) * b.At(l, j)
				}
				want.Set(i, j, s)
			}
		}
		if !matrix.ApproxEqual(got, want, 1e-9) {
			t.Fatalf("MatMul %v mismatch", dims)
		}
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("inner dimension mismatch should panic")
		}
	}()
	// Three columns of two rows against columns of two rows: the
	// right factor has no third row to scale the third column by.
	MatMulCols(nil, matrix.New(2, 3).Columns(), matrix.New(2, 3).Columns(), 2)
}

func TestCrossOuterProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMatrix(rng, 7, 3)
	b := randMatrix(rng, 7, 4)
	cpd := crossProduct(a, b)
	if cpd.Rows != 3 || cpd.Cols != 4 {
		t.Fatalf("CPD shape %dx%d", cpd.Rows, cpd.Cols)
	}
	if !matrix.ApproxEqual(cpd, matMul(transpose(a), b), 1e-12) {
		t.Error("CPD != AᵀB")
	}
	c := randMatrix(rng, 5, 3)
	d := randMatrix(rng, 6, 3)
	opd := matrix.FromColumns(OuterProductCols(nil, c.Columns(), d.Columns(), c.Rows, d.Rows))
	if opd.Rows != 5 || opd.Cols != 6 {
		t.Fatalf("OPD shape %dx%d", opd.Rows, opd.Cols)
	}
	if !matrix.ApproxEqual(opd, matMul(c, transpose(d)), 1e-12) {
		t.Error("OPD != ABᵀ")
	}
}

func TestSYRK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dims := range [][2]int{{5, 3}, {100, 20}, {301, 57}} {
		a := randMatrix(rng, dims[0], dims[1])
		got := SYRKCols(nil, a.Columns())
		want := crossProduct(a, a)
		if !matrix.ApproxEqual(matrix.FromColumns(got), want, 1e-9) {
			t.Fatalf("SYRK %v mismatch", dims)
		}
		if !isSymmetric(got, 0) {
			t.Fatal("SYRK result not symmetric")
		}
	}
	if len(SYRKCols(nil, nil)) != 0 {
		t.Error("SYRK of empty broken")
	}
}

func TestLUInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 5, 20, 60} {
		a := wellConditioned(rng, n)
		inv, err := inverse(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !matrix.ApproxEqual(matMul(a, inv), identity(n), 1e-8) {
			t.Fatalf("n=%d: A·A⁻¹ != I", n)
		}
	}
}

func TestInversePaperExample(t *testing.T) {
	// Figure 3 of the paper: inv of [[6,7],[8,5]].
	a := fromRows([][]float64{{6, 7}, {8, 5}})
	inv, err := inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	want := fromRows([][]float64{{-5.0 / 26, 7.0 / 26}, {8.0 / 26, -6.0 / 26}})
	if !matrix.ApproxEqual(inv, want, 1e-12) {
		t.Fatalf("inv = %v, want %v", inv, want)
	}
	// Rounded to the paper's two decimals: -0.19, 0.27, 0.31, -0.23.
	if math.Abs(inv.At(0, 0)-(-0.19)) > 0.005 || math.Abs(inv.At(1, 1)-(-0.23)) > 0.005 {
		t.Errorf("does not match paper rounding: %v", inv)
	}
}

func TestSingularInverse(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := inverse(a); err != ErrSingular {
		t.Errorf("singular inverse err = %v", err)
	}
	if _, err := inverse(matrix.New(2, 3)); err != ErrShape {
		t.Errorf("non-square inverse err = %v", err)
	}
}

func TestDet(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	d, err := det(a)
	if err != nil || math.Abs(d-(-2)) > 1e-12 {
		t.Errorf("det = %v, %v", d, err)
	}
	s := fromRows([][]float64{{1, 2}, {2, 4}})
	d2, err := det(s)
	if err != nil || d2 != 0 {
		t.Errorf("det singular = %v, %v", d2, err)
	}
	if _, err := det(matrix.New(1, 2)); err != ErrShape {
		t.Error("non-square det accepted")
	}
	// det(AB) = det(A)det(B)
	rng := rand.New(rand.NewSource(5))
	x, y := wellConditioned(rng, 6), wellConditioned(rng, 6)
	dx, _ := det(x)
	dy, _ := det(y)
	dxy, _ := det(matMul(x, y))
	if math.Abs(dxy-dx*dy) > 1e-6*math.Abs(dx*dy) {
		t.Errorf("det(AB)=%v, det(A)det(B)=%v", dxy, dx*dy)
	}
}

func TestSolveSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := wellConditioned(rng, 10)
	want := make([]float64, 10)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := matVec(a, want)
	got, err := Solve(nil, a.Columns(), b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8 {
			t.Fatalf("solve[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSolveLeastSquares(t *testing.T) {
	// Overdetermined: best fit of y = 2x + 1 through noisy-free points is exact.
	a := fromRows([][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}})
	b := []float64{1, 3, 5, 7}
	x, err := Solve(nil, a.Columns(), b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-10 || math.Abs(x[1]-2) > 1e-10 {
		t.Fatalf("lstsq = %v", x)
	}
	if _, err := Solve(nil, matrix.New(2, 3).Columns(), []float64{1, 2}); err != ErrShape {
		t.Error("underdetermined solve accepted")
	}
	if _, err := Solve(nil, matrix.New(2, 2).Columns(), []float64{1}); err != ErrShape {
		t.Error("rhs length mismatch accepted")
	}
}

func TestQRReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][2]int{{3, 3}, {10, 4}, {50, 50}, {100, 7}} {
		m, n := dims[0], dims[1]
		a := randMatrix(rng, m, n)
		q, r, err := qr(a)
		if err != nil {
			t.Fatal(err)
		}
		if q.Rows != m || q.Cols != n || r.Rows != n || r.Cols != n {
			t.Fatalf("QR shapes: Q %dx%d R %dx%d", q.Rows, q.Cols, r.Rows, r.Cols)
		}
		if !matrix.ApproxEqual(matMul(q, r), a, 1e-9) {
			t.Fatalf("Q·R != A for %v", dims)
		}
		// QᵀQ = I (orthonormal columns).
		if !matrix.ApproxEqual(crossProduct(q, q), identity(n), 1e-9) {
			t.Fatalf("QᵀQ != I for %v", dims)
		}
		// R upper triangular.
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				if math.Abs(r.At(i, j)) > 1e-12 {
					t.Fatalf("R not upper triangular at %d,%d", i, j)
				}
			}
		}
	}
}

func TestQQRRQRAndErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randMatrix(rng, 5, 3)
	q, r, err := qr(a)
	if err != nil || q.Rows != 5 || q.Cols != 3 {
		t.Fatalf("QQR: %v %v", q, err)
	}
	if r.Rows != 3 || r.Cols != 3 {
		t.Fatalf("RQR: %v", r)
	}
	if _, _, err := qr(matrix.New(2, 3)); err != ErrShape {
		t.Error("wide QR accepted")
	}
	// Rank-deficient column (zero) must not crash.
	z := matrix.New(4, 2)
	for i := 0; i < 4; i++ {
		z.Set(i, 0, float64(i+1))
	}
	if _, _, err := qr(z); err != nil {
		t.Errorf("QR with zero column: %v", err)
	}
}

func TestSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, dims := range [][2]int{{4, 4}, {10, 3}, {3, 10}, {60, 20}} {
		m, n := dims[0], dims[1]
		a := randMatrix(rng, m, n)
		d, err := NewSVD(nil, a.Columns())
		if err != nil {
			t.Fatal(err)
		}
		u, v := matrix.FromColumns(d.U), matrix.FromColumns(d.V)
		k := n
		if m < n {
			k = m
		}
		if len(d.S) != k {
			t.Fatalf("%v: %d singular values, want %d", dims, len(d.S), k)
		}
		for i := 1; i < len(d.S); i++ {
			if d.S[i] > d.S[i-1] {
				t.Fatalf("%v: singular values not descending: %v", dims, d.S)
			}
		}
		recon := matMul(matMul(u, diag(d.S)), transpose(v))
		if !matrix.ApproxEqual(recon, a, 1e-8) {
			t.Fatalf("%v: U·S·Vᵀ != A", dims)
		}
		if !matrix.ApproxEqual(crossProduct(u, u), identity(u.Cols), 1e-8) {
			t.Fatalf("%v: U columns not orthonormal", dims)
		}
		if !matrix.ApproxEqual(crossProduct(v, v), identity(v.Cols), 1e-8) {
			t.Fatalf("%v: V not orthogonal", dims)
		}
	}
}

func TestSVDRankDeficient(t *testing.T) {
	// Rank-1 matrix: second singular value ~0, U completion must still be
	// orthonormal.
	a := fromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	d, err := NewSVD(nil, a.Columns())
	if err != nil {
		t.Fatal(err)
	}
	if d.S[1] > 1e-10 {
		t.Errorf("rank-1 second singular value = %v", d.S[1])
	}
	if u := matrix.FromColumns(d.U); !matrix.ApproxEqual(crossProduct(u, u), identity(2), 1e-8) {
		t.Error("U completion not orthonormal")
	}
	r, err := Rank(nil, a.Columns())
	if err != nil || r != 1 {
		t.Errorf("Rank = %d, %v", r, err)
	}
}

// TestSVDFactorsOrthonormal checks FullU and FullV on tall, square, wide,
// rank-deficient and all-zero operands: both square factors orthogonal
// to 1e-12 and U·diag(S)·Vᵀ reconstructing A at 1 worker, and every
// factor bitwise equal to those at 2 and 8 workers (the Jacobi rounds of
// the tall case fan out, and their goroutines count in the stats).
func TestSVDFactorsOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rankFive := matMul(randMatrix(rng, 12, 5), randMatrix(rng, 5, 7))
	for _, tc := range []struct {
		name  string
		a     *matrix.Matrix
		zeros int // singular values at rounding level, whose U columns are completed
	}{
		{"tall-1000x20", randMatrix(rng, 1000, 20), 0},
		{"square-9x9", randMatrix(rng, 9, 9), 0},
		{"wide-6x14", randMatrix(rng, 6, 14), 0},
		{"rank5-12x7", rankFive, 2},
		{"zero-5x3", matrix.New(5, 3), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, n := tc.a.Rows, tc.a.Cols
			// factors returns S, then FullU's m and FullV's n columns.
			factors := func(workers int) [][]float64 {
				var st exec.Stats
				c := exec.NewCtx(workers, nil, &st)
				d, err := NewSVD(c, tc.a.Columns())
				if err != nil {
					t.Fatal(err)
				}
				if workers > 1 && m*n >= 1<<14 && st.Goroutines.Load() == 0 {
					t.Errorf("workers=%d: the Jacobi rounds counted no goroutine", workers)
				}
				s := append([]float64(nil), d.S...)
				u, v := d.FullU(c), d.FullV(c)
				if len(u) != m || len(v) != n {
					t.Fatalf("workers=%d: FullU has %d columns, FullV %d; want %d and %d", workers, len(u), len(v), m, n)
				}
				return append(append([][]float64{s}, u...), v...)
			}
			ref := factors(1)
			s, u, v := ref[0], ref[1:1+m], ref[1+m:]
			zeros := 0
			for _, sk := range s {
				if sk <= 1e-13*s[0] {
					zeros++
				}
			}
			if zeros != tc.zeros {
				t.Fatalf("%d zero singular values, want %d: %v", zeros, tc.zeros, s)
			}
			for name, q := range map[string][][]float64{"FullU": u, "FullV": v} {
				if e := maxOffIdentity(q); e > 1e-12 {
					t.Errorf("%s: max |QᵀQ − I| = %.3g", name, e)
				}
			}
			// A = Σ_k s_k·u_k·v_kᵀ over the min(m, n) singular values.
			scale := 1.0
			for _, x := range tc.a.Data {
				scale = max(scale, math.Abs(x))
			}
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					var r float64
					for k, sk := range s {
						r += sk * u[k][i] * v[k][j]
					}
					if math.Abs(r-tc.a.At(i, j)) > 1e-10*scale {
						t.Fatalf("U·S·Vᵀ[%d,%d] = %v, want %v", i, j, r, tc.a.At(i, j))
					}
				}
			}
			for _, workers := range []int{2, 8} {
				got := factors(workers)
				for k := range ref {
					for i := range ref[k] {
						if math.Float64bits(got[k][i]) != math.Float64bits(ref[k][i]) {
							t.Fatalf("workers=%d: factor bits differ from 1 worker at column %d, row %d", workers, k, i)
						}
					}
				}
			}
		})
	}
}

// maxOffIdentity returns max |QᵀQ − I| over the entries of QᵀQ.
func maxOffIdentity(q [][]float64) float64 {
	var e float64
	for j, col := range SYRKCols(nil, q) {
		for i, x := range col {
			if i == j {
				x--
			}
			e = max(e, math.Abs(x))
		}
	}
	return e
}

func TestRankAndSingularValues(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := wellConditioned(rng, 8)
	r, err := Rank(nil, a.Columns())
	if err != nil || r != 8 {
		t.Errorf("full rank = %d, %v", r, err)
	}
	sv, err := SingularValues(nil, a.Columns())
	if err != nil || len(sv) != 8 {
		t.Errorf("SingularValues = %v, %v", sv, err)
	}
	z := matrix.New(3, 3)
	rz, err := Rank(nil, z.Columns())
	if err != nil || rz != 0 {
		t.Errorf("zero matrix rank = %d, %v", rz, err)
	}
	if _, err := NewSVD(nil, matrix.New(0, 0).Columns()); err != ErrShape {
		t.Error("empty SVD accepted")
	}
}

func TestSymmetricEigen(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{2, 5, 12, 30} {
		a := spd(rng, n)
		e, err := NewEigen(nil, a.Columns(), true)
		if err != nil {
			t.Fatal(err)
		}
		if len(e.Values) != n {
			t.Fatalf("n=%d: %d eigenvalues", n, len(e.Values))
		}
		for i := 1; i < n; i++ {
			if e.Values[i] > e.Values[i-1]+1e-10 {
				t.Fatalf("eigenvalues not descending: %v", e.Values)
			}
		}
		// A·v = λ·v for every pair.
		for j := 0; j < n; j++ {
			v := e.Vectors[j]
			av := matVec(a, v)
			for i := 0; i < n; i++ {
				if math.Abs(av[i]-e.Values[j]*v[i]) > 1e-7*(1+math.Abs(e.Values[j])) {
					t.Fatalf("n=%d: A·v != λ·v for eigenpair %d", n, j)
				}
			}
		}
		// Trace = sum of eigenvalues.
		var tr, sum float64
		for i := 0; i < n; i++ {
			tr += a.At(i, i)
			sum += e.Values[i]
		}
		if math.Abs(tr-sum) > 1e-7*(1+math.Abs(tr)) {
			t.Fatalf("trace %v != eigenvalue sum %v", tr, sum)
		}
	}
}

func TestGeneralEigenRealSpectrum(t *testing.T) {
	// Upper triangular: eigenvalues are the diagonal.
	a := fromRows([][]float64{
		{3, 1, 0},
		{0, 2, 5},
		{0, 0, -1},
	})
	vals, err := Eigenvalues(nil, a.Columns())
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, -1}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-8 {
			t.Fatalf("eigenvalues = %v, want %v", vals, want)
		}
	}
	vecs, err := Eigenvectors(nil, a.Columns())
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		v := vecs[j]
		av := matVec(a, v)
		for i := range v {
			if math.Abs(av[i]-want[j]*v[i]) > 1e-6 {
				t.Fatalf("general eigenvector %d fails A·v=λ·v", j)
			}
		}
	}
}

func TestComplexEigenRejected(t *testing.T) {
	// Rotation by 90°: eigenvalues ±i.
	a := fromRows([][]float64{{0, -1}, {1, 0}})
	if _, err := Eigenvalues(nil, a.Columns()); err != ErrComplexEigen {
		t.Errorf("complex spectrum err = %v", err)
	}
}

func TestEigenShapeErrors(t *testing.T) {
	if _, err := NewEigen(nil, matrix.New(2, 3).Columns(), false); err != ErrShape {
		t.Error("non-square eigen accepted")
	}
	e, err := NewEigen(nil, matrix.New(0, 0).Columns(), true)
	if err != nil || len(e.Values) != 0 {
		t.Errorf("empty eigen: %v %v", e, err)
	}
}

func TestCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{1, 3, 10, 25} {
		a := spd(rng, n)
		r, err := cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.ApproxEqual(crossProduct(r, r), a, 1e-7*(1+maxAbs(a.Columns()))) {
			t.Fatalf("n=%d: Rᵀ·R != A", n)
		}
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				if r.At(i, j) != 0 {
					t.Fatalf("R not upper triangular")
				}
			}
		}
	}
	if _, err := cholesky(fromRows([][]float64{{-1}})); err != ErrNotPositiveDefinite {
		t.Error("negative definite accepted")
	}
	if _, err := cholesky(fromRows([][]float64{{1, 2}, {3, 4}})); err != ErrNotPositiveDefinite {
		t.Error("asymmetric accepted")
	}
	if _, err := cholesky(matrix.New(2, 3)); err != ErrShape {
		t.Error("non-square accepted")
	}
}

func TestPaperRQRExample(t *testing.T) {
	// Figure 8: RQR of g = [[1,3],[1,4],[6,7],[8,5]] ≈ [[-10.1,-8.8],[0,-4.6]]
	g := fromRows([][]float64{{1, 3}, {1, 4}, {6, 7}, {8, 5}})
	_, r, err := qr(g)
	if err != nil {
		t.Fatal(err)
	}
	// QR is unique up to column signs; compare magnitudes against the paper.
	if math.Abs(math.Abs(r.At(0, 0))-10.1) > 0.05 {
		t.Errorf("R[0,0] = %v, paper -10.1", r.At(0, 0))
	}
	if math.Abs(math.Abs(r.At(0, 1))-8.8) > 0.05 {
		t.Errorf("R[0,1] = %v, paper -8.8", r.At(0, 1))
	}
	if math.Abs(math.Abs(r.At(1, 1))-4.6) > 0.05 {
		t.Errorf("R[1,1] = %v, paper -4.6", r.At(1, 1))
	}
	if math.Abs(r.At(1, 0)) > 1e-12 {
		t.Errorf("R[1,0] = %v, want 0", r.At(1, 0))
	}
}

func TestOLSViaPaperFormula(t *testing.T) {
	// The paper's OLS: MMU(INV(CPD(A,A)), CPD(A,V)) — exact fit recovery.
	rng := rand.New(rand.NewSource(15))
	n := 200
	a := matrix.New(n, 2)
	v := matrix.New(n, 1)
	for i := 0; i < n; i++ {
		x := rng.Float64() * 10
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		v.Set(i, 0, 3+2*x)
	}
	ata := crossProduct(a, a)
	atv := crossProduct(a, v)
	inv, err := inverse(ata)
	if err != nil {
		t.Fatal(err)
	}
	beta := matMul(inv, atv)
	if math.Abs(beta.At(0, 0)-3) > 1e-8 || math.Abs(beta.At(1, 0)-2) > 1e-8 {
		t.Fatalf("OLS beta = %v", beta)
	}
}
