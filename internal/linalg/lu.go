package linalg

import (
	"errors"
	"math"

	"repro/internal/exec"
)

// ErrSingular is returned when a factorization or solve encounters a
// (numerically) singular matrix.
var ErrSingular = errors.New("linalg: singular matrix")

// ErrShape is returned when operand dimensions do not satisfy the
// operation's shape restriction (paper Table 1).
var ErrShape = errors.New("linalg: dimension mismatch")

// lu holds a compact LU factorization with partial pivoting, P·A = L·U,
// of a square matrix held as its n columns: L (unit lower) and U share
// the factor columns; piv records the row swaps.
type lu struct {
	f    [][]float64
	piv  []int
	sign float64 // determinant sign from the permutation
}

// newLU factors the n columns of n rows f in place with partial
// pivoting. Step k divides column k below the diagonal by the pivot
// and then updates every trailing column j as col_j[i] -= l_i·col_j[k]
// for the rows i > k whose multiplier l_i is not zero. The trailing
// columns are independent, so they fan out on c's workers; every
// element still receives its updates in ascending k, so the factors do
// not depend on the worker budget. On ErrSingular the columns are left
// partly factored.
func newLU(c *exec.Ctx, f [][]float64) (*lu, error) {
	n := len(f)
	if !isSquare(f) {
		return nil, ErrShape
	}
	piv := make([]int, n)
	sign := 1.0
	for k := 0; k < n; k++ {
		ck := f[k]
		// Pivot: largest |value| in column k at or below the diagonal.
		p := k
		mx := math.Abs(ck[k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(ck[i]); v > mx {
				mx, p = v, i
			}
		}
		if mx == 0 {
			return nil, ErrSingular
		}
		piv[k] = p
		if p != k {
			for _, col := range f {
				col[k], col[p] = col[p], col[k]
			}
			sign = -sign
		}
		pivot := ck[k]
		for i := k + 1; i < n; i++ {
			ck[i] /= pivot
		}
		c.ParallelFor(n-k-1, max(1, minParallelWork/max(1, n-k)), func(lo, hi int) {
			for _, cj := range f[k+1+lo : k+1+hi] {
				u := cj[k]
				for i := k + 1; i < n; i++ {
					if l := ck[i]; l != 0 {
						cj[i] -= l * u
					}
				}
			}
		})
	}
	return &lu{f: f, piv: piv, sign: sign}, nil
}

// det returns the determinant of the factored matrix.
func (d *lu) det() float64 {
	v := d.sign
	for i, col := range d.f {
		v *= col[i]
	}
	return v
}

// solveInPlace overwrites x with the solution of A·x = x: the row
// permutation, then forward substitution through L and back
// substitution through U, each x[k] subtracting its terms in ascending
// column order.
func (d *lu) solveInPlace(x []float64) {
	f, n := d.f, len(d.f)
	for k, p := range d.piv {
		if p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	for k := 0; k < n; k++ {
		for j := 0; j < k; j++ {
			x[k] -= f[j][k] * x[j]
		}
	}
	for k := n - 1; k >= 0; k-- {
		for j := k + 1; j < n; j++ {
			x[k] -= f[j][k] * x[j]
		}
		x[k] /= f[k][k]
	}
}

// freeCols hands columns drawn from c's arena back to it.
func freeCols(c *exec.Ctx, cols [][]float64) {
	for _, col := range cols {
		c.Arena().FreeFloats(col)
	}
}

// Inverse returns A⁻¹ (the INV operation) via LU with partial pivoting.
// a is the operand's n columns of n rows, drawn from c's arena; they
// are factored in place and handed back. The result is n columns drawn
// from c's arena, column j the solution against the j-th identity
// column; the columns are independent and fan out on c's workers.
func Inverse(c *exec.Ctx, a [][]float64) ([][]float64, error) {
	defer freeCols(c, a)
	d, err := newLU(c, a)
	if err != nil {
		return nil, err
	}
	n := len(a)
	out := make([][]float64, n)
	for j := range out {
		out[j] = c.Arena().FloatsZero(n)
		out[j][j] = 1
	}
	c.ParallelFor(n, max(1, minParallelWork/max(1, n*n)), func(lo, hi int) {
		for _, x := range out[lo:hi] {
			d.solveInPlace(x)
		}
	})
	return out, nil
}

// Det returns the determinant (the DET operation), consuming a as
// Inverse does.
func Det(c *exec.Ctx, a [][]float64) (float64, error) {
	defer freeCols(c, a)
	d, err := newLU(c, a)
	if err == ErrSingular {
		return 0, nil // exact zero pivot: determinant is 0
	}
	if err != nil {
		return 0, err
	}
	return d.det(), nil
}

// Solve implements the SOL operation: A·x = b, with A the n columns of
// m = len(b) rows a, drawn from c's arena and consumed as by Inverse.
// For square A it solves exactly via LU; for overdetermined systems
// (m > n) it returns the least-squares solution via QR, matching the
// paper's use of sol for regression workloads. x is drawn from c's
// arena.
func Solve(c *exec.Ctx, a [][]float64, b []float64) ([]float64, error) {
	m, n := len(b), len(a)
	if m > n && colsOfLen(a, m) {
		return lstsq(c, a, b)
	}
	defer freeCols(c, a)
	if m != n {
		return nil, ErrShape
	}
	d, err := newLU(c, a)
	if err != nil {
		return nil, err
	}
	x := c.Arena().Floats(n)
	copy(x, b)
	d.solveInPlace(x)
	return x, nil
}
