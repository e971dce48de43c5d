package linalg

import (
	"errors"
	"math"

	"repro/internal/exec"
)

// ErrNotPositiveDefinite is returned by Cholesky for inputs that are not
// symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Cholesky returns the upper-triangular factor R with A = Rᵀ·R (the CHF
// operation; R's chol returns the upper factor). a is A's n columns of
// n rows, drawn from c's arena and handed back; R is n columns drawn
// from c's arena. The input must be symmetric positive definite.
func Cholesky(c *exec.Ctx, a [][]float64) ([][]float64, error) {
	defer freeCols(c, a)
	n := len(a)
	if !isSquare(a) {
		return nil, ErrShape
	}
	if !isSymmetric(a, 1e-8*(1+maxAbs(a))) {
		return nil, ErrNotPositiveDefinite
	}
	r := make([][]float64, n)
	for j := range r {
		r[j] = c.Arena().FloatsZero(n)
	}
	for j := 0; j < n; j++ {
		var d float64
		for k := 0; k < j; k++ {
			var s float64
			for i := 0; i < k; i++ {
				s += r[k][i] * r[j][i]
			}
			if r[k][k] == 0 {
				freeCols(c, r)
				return nil, ErrNotPositiveDefinite
			}
			s = (a[j][k] - s) / r[k][k]
			r[j][k] = s
			d += s * s
		}
		d = a[j][j] - d
		if d <= 0 {
			freeCols(c, r)
			return nil, ErrNotPositiveDefinite
		}
		r[j][j] = math.Sqrt(d)
	}
	return r, nil
}

// isSquare reports whether every column of a has len(a) rows.
func isSquare(a [][]float64) bool { return colsOfLen(a, len(a)) }

// colsOfLen reports whether every column of a has m rows.
func colsOfLen(a [][]float64, m int) bool {
	for _, col := range a {
		if len(col) != m {
			return false
		}
	}
	return true
}

// maxAbs returns the largest absolute entry of the columns a.
func maxAbs(a [][]float64) float64 {
	var mx float64
	for _, col := range a {
		for _, v := range col {
			if v := math.Abs(v); v > mx {
				mx = v
			}
		}
	}
	return mx
}

// isSymmetric reports whether the square matrix held as the columns a
// is symmetric within tol.
func isSymmetric(a [][]float64, tol float64) bool {
	for i := range a {
		for j := i + 1; j < len(a); j++ {
			if math.Abs(a[j][i]-a[i][j]) > tol {
				return false
			}
		}
	}
	return true
}
