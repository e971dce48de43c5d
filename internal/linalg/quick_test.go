package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

// TestQuickSolveRoundTrip: x = Solve(nil, A, A·x₀) recovers x₀ for random
// well-conditioned systems.
func TestQuickSolveRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := wellConditioned(rng, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := matVec(a, want)
		got, err := Solve(nil, a.Columns(), b)
		if err != nil {
			return false
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-7*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickDetProduct: det(A·B) = det(A)·det(B).
func TestQuickDetProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(7)
		a := wellConditioned(rng, n)
		b := wellConditioned(rng, n)
		da, err := det(a)
		if err != nil {
			return false
		}
		db, err := det(b)
		if err != nil {
			return false
		}
		dab, err := det(matMul(a, b))
		if err != nil {
			return false
		}
		return math.Abs(dab-da*db) <= 1e-6*(1+math.Abs(da*db))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickQRReconstruction: Q·R = A and QᵀQ = I for random tall
// matrices, both parallel and serial variants.
func TestQuickQRReconstruction(t *testing.T) {
	f := func(seed int64, serial bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		m := n + rng.Intn(20)
		a := randMatrix(rng, m, n)
		d := qrPanels(nil, a.Columns(), m, n) // one panel: the plain serial loop
		if !serial {
			var err error
			if d, err = NewQRColumns(nil, a.Columns(), m); err != nil {
				return false
			}
		}
		q, r := matrix.FromColumns(d.Q(nil)), matrix.FromColumns(d.R(nil))
		return matrix.ApproxEqual(matMul(q, r), a, 1e-8) &&
			matrix.ApproxEqual(crossProduct(q, q), identity(n), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickSVDSingularValuesMatchEigen: the singular values of A are the
// square roots of the eigenvalues of AᵀA.
func TestQuickSVDSingularValuesMatchEigen(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		m := n + rng.Intn(10)
		a := randMatrix(rng, m, n)
		sv, err := SingularValues(nil, a.Columns())
		if err != nil {
			return false
		}
		ev, err := Eigenvalues(nil, crossProduct(a, a).Columns())
		if err != nil {
			return false
		}
		for i := range sv {
			lam := ev[i]
			if lam < 0 {
				lam = 0
			}
			if math.Abs(sv[i]-math.Sqrt(lam)) > 1e-6*(1+sv[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickCholeskySolvesSPD: RᵀR = A with R upper triangular, for random
// SPD matrices.
func TestQuickCholeskySolvesSPD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a := spd(rng, n)
		r, err := cholesky(a)
		if err != nil {
			return false
		}
		return matrix.ApproxEqual(crossProduct(r, r), a, 1e-7*(1+maxAbs(a.Columns())))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickRankBounds: rank is at most min(m,n) and equals n for
// well-conditioned square matrices.
func TestQuickRankBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		m := n + rng.Intn(10)
		a := randMatrix(rng, m, n)
		r, err := Rank(nil, a.Columns())
		if err != nil {
			return false
		}
		if r > n {
			return false
		}
		sq := wellConditioned(rng, n)
		rs, err := Rank(nil, sq.Columns())
		if err != nil {
			return false
		}
		return rs == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickMatMulAssociativity: (A·B)·C = A·(B·C) on small random chains.
func TestQuickMatMulAssociativity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(8)
		k := 1 + rng.Intn(8)
		l := 1 + rng.Intn(8)
		n := 1 + rng.Intn(8)
		a := randMatrix(rng, m, k)
		b := randMatrix(rng, k, l)
		c := randMatrix(rng, l, n)
		lhs := matMul(matMul(a, b), c)
		rhs := matMul(a, matMul(b, c))
		return matrix.ApproxEqual(lhs, rhs, 1e-8*(1+maxAbs(lhs.Columns())))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
