package linalg

import (
	"sync"

	"repro/internal/exec"
	"repro/internal/matrix"
)

// QR holds a Householder QR factorization of an m×n matrix with m >= n:
// A = Q·R with Q m×n (thin, orthonormal columns) and R n×n upper
// triangular. The working representation is column-major — Householder
// reflections walk columns, so contiguous columns are what makes the
// kernel fast — with the Householder vectors stored below the diagonal and
// R strictly above it; R's diagonal lives in tau.
type QR struct {
	v       [][]float64 // n columns of length m
	tau     []float64
	rows    int
	cols    int
	workers int // the factoring context's budget, reused by Q accumulation
}

// NewQR factors a with Householder reflections using the context's
// worker budget for the trailing-column updates (the LAPACK/MKL
// behavior), in panels as QRBlocked factors a tile grid. Requires
// Rows >= Cols.
func NewQR(c *exec.Ctx, a *matrix.Matrix) (*QR, error) {
	return newQR(c, a, qrPanel)
}

// NewQRSerial factors on a single core — the behavior of R's default
// LINPACK qr(), which the Table 6 experiment compares against: one
// panel never fans out, and Q accumulates serially.
func NewQRSerial(a *matrix.Matrix) (*QR, error) {
	d, err := newQR(nil, a, a.Cols)
	if d != nil {
		d.workers = 1
	}
	return d, err
}

// newQR copies a's columns into the column-major working form and
// factors them with qrPanels.
func newQR(c *exec.Ctx, a *matrix.Matrix, panel int) (*QR, error) {
	if a.Rows < a.Cols {
		return nil, ErrShape
	}
	v := make([][]float64, a.Cols)
	for j := range v {
		v[j] = a.Column(j)
	}
	return qrPanels(c, v, a.Rows, panel), nil
}

// applyReflectorTo applies the reflector stored in ck (column k) to
// one column cj. Every column update of the factorization goes through
// this one body, so a column receives the same reflectors in the same
// ascending order with the same arithmetic, however the sweeps are
// batched into panels or split across workers.
func applyReflectorTo(ck, cj []float64, k, m int) {
	beta := ck[k]
	var s float64
	for i := k; i < m; i++ {
		s += ck[i] * cj[i]
	}
	s = -s / beta
	for i := k; i < m; i++ {
		cj[i] += s * ck[i]
	}
}

// R returns the n×n upper-triangular factor.
func (d *QR) R() *matrix.Matrix {
	n := d.cols
	r := matrix.New(n, n)
	for i := 0; i < n; i++ {
		r.Set(i, i, d.tau[i])
		for j := i + 1; j < n; j++ {
			r.Set(i, j, d.v[j][i])
		}
	}
	return r
}

// Q returns the thin m×n orthonormal factor: the Householder reflectors
// accumulated against the first n identity columns. The per-column
// accumulations are independent and run on all cores for large factors.
func (d *QR) Q() *matrix.Matrix {
	m, n := d.rows, d.cols
	qcols := make([][]float64, n)
	apply := func(jLo, jHi int) {
		for j := jLo; j < jHi; j++ {
			col := make([]float64, m)
			col[j] = 1
			for k := n - 1; k >= 0; k-- {
				ck := d.v[k]
				beta := ck[k]
				if beta == 0 {
					continue
				}
				var s float64
				for i := k; i < m; i++ {
					s += ck[i] * col[i]
				}
				s = -s / beta
				for i := k; i < m; i++ {
					col[i] += s * ck[i]
				}
			}
			qcols[j] = col
		}
	}
	workers := d.workers
	if workers <= 1 || n < 2 || m*n < 1<<15 {
		apply(0, n)
	} else {
		if workers > n {
			workers = n
		}
		var wg sync.WaitGroup
		chunk := (n + workers - 1) / workers
		for wk := 0; wk < workers; wk++ {
			lo, hi := wk*chunk, (wk+1)*chunk
			if hi > n {
				hi = n
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				apply(lo, hi)
			}(lo, hi)
		}
		wg.Wait()
	}
	return matrix.FromColumns(qcols)
}

// QQR returns matrix Q of the QR decomposition (the paper's QQR, shape
// (r1,c1): m×n in, m×n out).
func QQR(c *exec.Ctx, a *matrix.Matrix) (*matrix.Matrix, error) {
	d, err := NewQR(c, a)
	if err != nil {
		return nil, err
	}
	return d.Q(), nil
}

// RQR returns matrix R of the QR decomposition (the paper's RQR, shape
// (c1,c1): m×n in, n×n out).
func RQR(c *exec.Ctx, a *matrix.Matrix) (*matrix.Matrix, error) {
	d, err := NewQR(c, a)
	if err != nil {
		return nil, err
	}
	return d.R(), nil
}

// lstsq solves min ‖a·x − b‖₂ for overdetermined a via QR, applying the
// reflectors to b directly (no Q materialization).
func lstsq(c *exec.Ctx, a *matrix.Matrix, b []float64) ([]float64, error) {
	d, err := NewQR(c, a)
	if err != nil {
		return nil, err
	}
	m, n := d.rows, d.cols
	qtb := append([]float64(nil), b...)
	for k := 0; k < n; k++ {
		ck := d.v[k]
		beta := ck[k]
		if beta == 0 {
			continue
		}
		var s float64
		for i := k; i < m; i++ {
			s += ck[i] * qtb[i]
		}
		s = -s / beta
		for i := k; i < m; i++ {
			qtb[i] += s * ck[i]
		}
	}
	// Back substitution on R (diagonal in tau, strict upper in v).
	x := qtb[:n]
	for k := n - 1; k >= 0; k-- {
		if d.tau[k] == 0 {
			return nil, ErrSingular
		}
		for j := k + 1; j < n; j++ {
			x[k] -= d.v[j][k] * x[j]
		}
		x[k] /= d.tau[k]
	}
	return append([]float64(nil), x...), nil
}
