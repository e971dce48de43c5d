package linalg

import (
	"math"

	"repro/internal/exec"
)

// QR holds a Householder QR factorization of an m×n matrix with m >= n:
// A = Q·R with Q m×n (thin, orthonormal columns) and R n×n upper
// triangular. The working representation is column-major — Householder
// reflections walk columns, so contiguous columns are what makes the
// kernel fast — with the Householder vectors stored below the diagonal and
// R strictly above it; R's diagonal lives in tau.
type QR struct {
	v    [][]float64 // n columns of length m, drawn from the factoring context's arena
	tau  []float64
	rows int
	cols int
}

// NewQRColumns factors the columns v in place: n columns of m rows
// drawn from c's arena, which the QR then owns and Free hands back.
// Requires m >= n.
func NewQRColumns(c *exec.Ctx, v [][]float64, m int) (*QR, error) {
	if m < len(v) {
		return nil, ErrShape
	}
	return qrPanels(c, v, m, qrPanel), nil
}

// Free hands the working columns back to the arena of c, the context
// that factored them. The factorization must not be used afterwards.
func (d *QR) Free(c *exec.Ctx) {
	for _, col := range d.v {
		c.Arena().FreeFloats(col)
	}
	d.v = nil
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

// R returns the n×n upper-triangular factor as n columns drawn from
// c's arena.
func (d *QR) R(c *exec.Ctx) [][]float64 {
	n := d.cols
	r := make([][]float64, n)
	for j := range r {
		r[j] = c.Arena().FloatsZero(n)
		copy(r[j][:j], d.v[j])
		r[j][j] = d.tau[j]
	}
	return r
}

// Q returns the thin m×n orthonormal factor as its n columns of length
// m, drawn from c's arena.
func (d *QR) Q(c *exec.Ctx) [][]float64 { return d.qCols(c, 0, d.cols) }

// qCols returns columns lo..hi-1 of the full m×m orthogonal factor
// H₀·H₁···H_{n−1}, drawn from c's arena: the Householder reflectors
// accumulated against identity columns lo..hi-1. Columns from n on are
// an orthonormal basis of the complement of the factored columns' span.
// The per-column accumulations are independent and fan out on c's
// workers once the factor holds about minParallelWork elements.
func (d *QR) qCols(c *exec.Ctx, lo, hi int) [][]float64 {
	m, n := d.rows, d.cols
	q := make([][]float64, hi-lo)
	for j := range q {
		q[j] = c.Arena().FloatsZero(m)
		q[j][lo+j] = 1
	}
	c.ParallelFor(len(q), max(1, minParallelWork/max(1, m)), func(jLo, jHi int) {
		for _, col := range q[jLo:jHi] {
			for k := n - 1; k >= 0; k-- {
				if d.v[k][k] != 0 {
					applyReflectorTo(d.v[k], col, k, m)
				}
			}
		}
	})
	return q
}

// complementCols returns total−len(u) orthonormal columns of m rows,
// drawn from c's arena, that complete the orthonormal columns u to an
// orthonormal basis: columns len(u)…total−1 of the Householder Q of a
// copy of u, O(m·len(u)) flops per column.
func complementCols(c *exec.Ctx, u [][]float64, m, total int) [][]float64 {
	if total <= len(u) {
		return nil
	}
	d, _ := NewQRColumns(c, cloneCols(c, u), m) // len(u) <= total <= m
	defer d.Free(c)
	return d.qCols(c, len(u), total)
}

// lstsq solves min ‖a·x − b‖₂ for the overdetermined columns a (drawn
// from c's arena and factored in place, then handed back) via QR,
// applying the reflectors to a copy of b directly (no Q
// materialization). x is drawn from c's arena.
func lstsq(c *exec.Ctx, a [][]float64, b []float64) ([]float64, error) {
	d, err := NewQRColumns(c, a, len(b))
	if err != nil {
		freeCols(c, a)
		return nil, err
	}
	defer d.Free(c)
	m, n := d.rows, d.cols
	qtb := c.Arena().Floats(m)
	defer c.Arena().FreeFloats(qtb)
	copy(qtb, b)
	for k := 0; k < n; k++ {
		if d.v[k][k] != 0 {
			applyReflectorTo(d.v[k], qtb, k, m)
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
	out := c.Arena().Floats(n)
	copy(out, x)
	return out, nil
}

// qrPanel is the Householder panel width. It changes no bit of the
// factorization, only how much of it runs in parallel: the in-panel
// work is serial and only the sweep of the trailing columns fans out,
// so a wide panel would leave every QR of fewer columns serial.
const qrPanel = 16

// qrPanels factors the m-row columns v in place, in column panels of
// width panel: reflectors within the current panel are formed and
// applied to the panel serially (they depend on each other), then the
// whole panel's reflectors sweep the trailing columns through
// ParallelFor. Each column receives every reflector in ascending order
// through applyReflectorTo, so the factorization does not depend on
// the panel width or the worker budget.
func qrPanels(c *exec.Ctx, v [][]float64, m, panel int) *QR {
	n := len(v)
	tau := make([]float64, n)
	if panel < 1 {
		panel = 1
	}
	// Fan the trailing sweep out only when each worker's share is about
	// minParallelWork flops or more.
	minCols := max(1, minParallelWork/max(1, m*panel)+1)
	for p0 := 0; p0 < n; p0 += panel {
		p1 := min(p0+panel, n)
		for k := p0; k < p1; k++ {
			ck := v[k]
			var norm float64
			for _, x := range ck[k:] {
				norm = math.Hypot(norm, x)
			}
			if norm == 0 {
				tau[k] = 0
				continue
			}
			// Choose the sign that avoids cancellation in v_kk = a_kk/norm + 1.
			if ck[k] < 0 {
				norm = -norm
			}
			inv := 1 / norm
			for i := k; i < m; i++ {
				ck[i] *= inv
			}
			ck[k]++
			for j := k + 1; j < p1; j++ {
				applyReflectorTo(ck, v[j], k, m)
			}
			// The diagonal of R cannot live in v (that slot holds the
			// Householder vector), so it is carried in tau.
			tau[k] = -norm
		}
		if p1 < n {
			c.ParallelFor(n-p1, minCols, func(lo, hi int) {
				for j := p1 + lo; j < p1+hi; j++ {
					cj := v[j]
					for k := p0; k < p1; k++ {
						if v[k][k] == 0 {
							continue // zero-norm column: no reflector stored
						}
						applyReflectorTo(v[k], cj, k, m)
					}
				}
			})
		}
	}
	return &QR{v: v, tau: tau, rows: m, cols: n}
}
