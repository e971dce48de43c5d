// Package batlin implements matrix operations directly over lists of BATs
// — the paper's "no-copy implementation in the kernel of MonetDB"
// (RMA+BAT, Section 7.3). A matrix is represented as its columns: a slice
// of float BATs of equal length. Standard value-based algorithms are
// reduced to vectorized BAT operations (whole-column arithmetic), with
// single-element access (sel) kept to a minimum, exactly as the paper
// prescribes.
//
// The operations implemented here are the ones the paper runs on BATs:
// the elementwise family (add, sub, emu), multiplication-family operations
// reduced to column arithmetic (mmu, cpd, opd), restructuring (tra),
// Gauss-Jordan inversion (the paper's Algorithm 2), Gram-Schmidt QR (the
// paper's Section 8.3 baseline), determinant, and solve. The spectral
// operations (eigen, SVD, Cholesky) delegate to the dense kernel even in
// BAT mode, mirroring the paper's policy of delegating complex operations.
//
// Every operation takes the invocation's exec.Ctx first; execution is
// parallel on two axes under that context's worker budget. Within a
// column, every bat kernel decomposes its row range through
// Ctx.ParallelFor (serial below exec.SerialCutoff rows). Across columns,
// the independent per-column loops — the elementwise family, the result
// columns of mmu/cpd/opd, the scatter of tra, and the pivot-elimination
// fan-out of Algorithm 2 — are spread over goroutines with the same
// driver, so wide-and-short matrices parallelize over columns while
// tall-and-narrow ones parallelize over rows (bat.ColumnFor keeps the
// columns serial when a sparse or Int operand would cost each worker a
// conversion buffer). Scratch columns come from the context's arena: the
// elimination loop of Inv/Det and the orthogonalization loop of QR
// update their work columns in place, so one matrix worth of buffers
// serves all iterations instead of O(n) fresh columns per step.
package batlin

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/bat"
	"repro/internal/exec"
)

// ErrSingular is returned when elimination meets a vanishing pivot.
var ErrSingular = errors.New("batlin: singular matrix")

// ErrShape is returned on dimension mismatches.
var ErrShape = errors.New("batlin: dimension mismatch")

func rows(cols []*bat.BAT) int {
	if len(cols) == 0 {
		return 0
	}
	return cols[0].Len()
}

// colMinWork is the minimum number of columns one goroutine of a
// column-parallel loop handles. One column is already a whole vectorized
// kernel call, so even a single column per worker amortizes the spawn.
const colMinWork = 1

// IDMatrix returns the identity matrix of size n as a list of BATs (the
// paper's IDmatrix helper in Algorithm 2). Columns come from the arena.
func IDMatrix(c *exec.Ctx, n int) []*bat.BAT {
	out := make([]*bat.BAT, n)
	for j := range out {
		col := c.Arena().FloatsZero(n)
		col[j] = 1
		out[j] = bat.FromFloats(col)
	}
	return out
}

// Add returns the columnwise sum of two equally-shaped column lists,
// computed column-parallel. Each list is read through its row
// permutation (pa, pb; nil reads the rows in order), so a permuted
// operand is never gathered: result row k combines row pa[k] of a with
// row pb[k] of b.
func Add(c *exec.Ctx, a []*bat.BAT, pa []int, b []*bat.BAT, pb []int) ([]*bat.BAT, error) {
	return elementwise(c, bat.Add, a, pa, b, pb)
}

// Sub returns the columnwise difference a - b, read through the
// permutations as Add.
func Sub(c *exec.Ctx, a []*bat.BAT, pa []int, b []*bat.BAT, pb []int) ([]*bat.BAT, error) {
	return elementwise(c, bat.Sub, a, pa, b, pb)
}

// EMU returns the columnwise Hadamard product, read through the
// permutations as Add.
func EMU(c *exec.Ctx, a []*bat.BAT, pa []int, b []*bat.BAT, pb []int) ([]*bat.BAT, error) {
	return elementwise(c, bat.Mul, a, pa, b, pb)
}

// elementwise runs kernel over the column pairs of a and b,
// column-parallel.
func elementwise(c *exec.Ctx, kernel func(*exec.Ctx, *bat.BAT, []int, *bat.BAT, []int) *bat.BAT,
	a []*bat.BAT, pa []int, b []*bat.BAT, pb []int) (res []*bat.BAT, err error) {
	defer exec.CatchBudget(&err)
	n := permRows(a, pa)
	if len(a) != len(b) || n != permRows(b, pb) {
		return nil, ErrShape
	}
	out := make([]*bat.BAT, len(a))
	bat.ColumnFor(c, len(a), func(lo, hi int) {
		for j := lo; j < hi; j++ {
			out[j] = kernel(c, a[j], pa, b[j], pb)
		}
	}, a, b)
	return out, nil
}

// permRows is the row count of cols read through the permutation p:
// len(p), or the columns' own when p is nil.
func permRows(cols []*bat.BAT, p []int) int {
	if p != nil {
		return len(p)
	}
	return rows(cols)
}

// MMU multiplies an m×k column list by a k×n column list: result column j
// is Σ_l a[l]·b[j][l], accumulated in-place into one arena column per
// result column (k AXPYInto calls instead of k allocating AXPYs). The
// independent result columns are computed in parallel.
func MMU(c *exec.Ctx, a, b []*bat.BAT) (res []*bat.BAT, err error) {
	defer exec.CatchBudget(&err)
	k := len(a)
	if k == 0 || rows(b) != k {
		return nil, ErrShape
	}
	m := rows(a)
	out := make([]*bat.BAT, len(b))
	bat.ColumnFor(c, len(b), func(lo, hi int) {
		for j := lo; j < hi; j++ {
			acc := c.Arena().FloatsZero(m)
			for l := 0; l < k; l++ {
				w := bat.Sel(b[j], l)
				if w == 0 {
					continue
				}
				bat.AXPYInto(c, acc, a[l], -w) // acc += a[l]*w
			}
			out[j] = bat.FromFloats(acc)
		}
	}, a)
	return out, nil
}

// CPD computes the cross product aᵀ·b of two column lists with the same
// number of rows. Each result cell is a whole-column dot product; the
// result has len(a) rows and len(b) columns. This is the pattern the paper
// calls out as requiring single-element access when done over BATs, which
// is why RMA+MKL wins by 24-70x on the covariance workload (Fig. 17b).
// The result columns are independent and computed in parallel.
func CPD(c *exec.Ctx, a, b []*bat.BAT) (res []*bat.BAT, err error) {
	defer exec.CatchBudget(&err)
	if rows(a) != rows(b) {
		return nil, ErrShape
	}
	// The result columns are drawn before the fan-out: inside it only
	// Reduce's partials are drawn, which it gives up when refused.
	out := make([]*bat.BAT, len(b))
	cols := make([][]float64, len(b))
	for j := range cols {
		cols[j] = c.Arena().Floats(len(a))
		out[j] = bat.FromFloats(cols[j])
	}
	bat.ColumnFor(c, len(b), func(lo, hi int) {
		for j := lo; j < hi; j++ {
			for p := range a {
				cols[j][p] = bat.Dot(c, a[p], b[j])
			}
		}
	}, a, b)
	return out, nil
}

// OPD computes the outer product a·bᵀ of two column lists with the same
// number of columns: result[i][q] = Σ_l a[l][i]·b[l][q], accumulated
// in-place per result column, columns in parallel.
func OPD(c *exec.Ctx, a, b []*bat.BAT) (res []*bat.BAT, err error) {
	defer exec.CatchBudget(&err)
	if len(a) != len(b) {
		return nil, ErrShape
	}
	m := rows(a)
	n := rows(b)
	out := make([]*bat.BAT, n)
	bat.ColumnFor(c, n, func(lo, hi int) {
		for q := lo; q < hi; q++ {
			acc := c.Arena().FloatsZero(m)
			for l := range a {
				w := bat.Sel(b[l], q)
				if w == 0 {
					continue
				}
				bat.AXPYInto(c, acc, a[l], -w)
			}
			out[q] = bat.FromFloats(acc)
		}
	}, a)
	return out, nil
}

// Tra transposes a column list: the result has rows(a) columns of length
// len(a). Transposition over columns is inherently element-at-a-time; the
// scatter is parallelized over source columns (each source column writes a
// distinct row of every output column, so the writes are disjoint).
func Tra(c *exec.Ctx, a []*bat.BAT) []*bat.BAT {
	m := rows(a)
	n := len(a)
	cols := make([][]float64, m)
	for i := range cols {
		cols[i] = c.Arena().Floats(n)
	}
	bat.ColumnFor(c, n, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			f, err := a[j].FloatsCtx(c)
			if err != nil {
				panic(fmt.Sprintf("batlin: %v", err))
			}
			for i, v := range f {
				cols[i][j] = v
			}
			a[j].ReleaseFloats(c, f)
		}
	}, a)
	out := make([]*bat.BAT, m)
	for i := range out {
		out[i] = bat.FromFloats(cols[i])
	}
	return out
}

// Inv inverts a square matrix held as columns using the paper's
// Algorithm 2 (Gauss-Jordan elimination reduced to BAT operations), with
// column pivoting added for numerical robustness: at step i the column
// with the largest |value| in row i is swapped in. All updates are
// whole-column BAT operations; only pivots use single-element sel. The
// elimination fan-out over the n-1 non-pivot columns runs column-parallel
// and updates the work columns in place (bat.AXPYInto), so it draws no
// buffer at any worker budget; only the pivot column is replaced per
// step, its superseded buffer released back to the arena.
func Inv(c *exec.Ctx, b []*bat.BAT) (res []*bat.BAT, err error) {
	defer exec.CatchBudget(&err)
	n := len(b)
	if n == 0 || rows(b) != n {
		return nil, ErrShape
	}
	work := make([]*bat.BAT, n)
	for j := range b {
		work[j] = bat.MulScalar(c, b[j], 1) // an owned dense copy: x·1 is x, bit for bit
	}
	br := IDMatrix(c, n)
	releaseAll := func(cols []*bat.BAT) {
		for _, col := range cols {
			bat.Release(c, col)
		}
	}
	for i := 0; i < n; i++ {
		// Column pivot: argmax_j>=i |work[j][i]|.
		p := i
		mx := math.Abs(bat.Sel(work[i], i))
		for j := i + 1; j < n; j++ {
			if v := math.Abs(bat.Sel(work[j], i)); v > mx {
				mx, p = v, j
			}
		}
		if mx == 0 {
			releaseAll(work)
			releaseAll(br)
			return nil, ErrSingular
		}
		if p != i {
			work[i], work[p] = work[p], work[i]
			br[i], br[p] = br[p], br[i]
		}
		v1 := bat.Sel(work[i], i)
		oldW, oldB := work[i], br[i]
		work[i] = bat.DivScalar(c, oldW, v1)
		br[i] = bat.DivScalar(c, oldB, v1)
		bat.Release(c, oldW)
		bat.Release(c, oldB)
		// Pivot-elimination fan-out: the updates of the n-1 other columns
		// only read work[i]/br[i] and are independent of each other.
		c.ParallelFor(n, colMinWork, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				if i == j {
					continue
				}
				v2 := bat.Sel(work[j], i)
				if v2 == 0 {
					continue
				}
				bat.AXPYInto(c, work[j].VectorCtx(c).Floats(), work[i], v2)
				bat.AXPYInto(c, br[j].VectorCtx(c).Floats(), br[i], v2)
			}
		})
	}
	releaseAll(work)
	return br, nil
}

// QR computes the thin QR decomposition of an m×n column list (m >= n)
// with modified Gram-Schmidt — the BAT baseline the paper measures against
// MKL in Section 8.3. Q has orthonormal columns; R is returned as n
// columns of length n (upper triangular). The orthogonalization loop is
// inherently sequential in j and k (each projection reads the updated v),
// so parallelism comes from the row-parallel Dot/AXPYInto kernels. Each
// column is copied once into one arena working column, and every
// projection updates it in place, so the loop's footprint is one column
// and it allocates nothing per projection.
func QR(c *exec.Ctx, a []*bat.BAT) (q, r []*bat.BAT, err error) {
	defer exec.CatchBudget(&err)
	n := len(a)
	m := rows(a)
	if n == 0 || m < n {
		return nil, nil, ErrShape
	}
	q = make([]*bat.BAT, n)
	rCols := make([][]float64, n)
	for j := range rCols {
		rCols[j] = c.Arena().FloatsZero(n)
	}
	fail := func(v *bat.BAT, j int) {
		bat.Release(c, v)
		for k := 0; k < j; k++ {
			bat.Release(c, q[k])
		}
		for k := range rCols {
			c.Arena().FreeFloats(rCols[k])
		}
	}
	for j := 0; j < n; j++ {
		w := c.Arena().Floats(m)
		v := bat.FromFloats(w)
		f, err := a[j].FloatsCtx(c)
		if err != nil {
			fail(v, j)
			return nil, nil, err
		}
		copy(w, f)
		a[j].ReleaseFloats(c, f)
		orig := math.Sqrt(bat.Dot(c, v, v))
		for k := 0; k < j; k++ {
			rkj := bat.Dot(c, q[k], v)
			rCols[j][k] = rkj
			if rkj != 0 {
				bat.AXPYInto(c, w, q[k], rkj)
			}
		}
		norm := math.Sqrt(bat.Dot(c, v, v))
		if norm <= 1e-12*orig {
			fail(v, j)
			return nil, nil, ErrSingular
		}
		rCols[j][j] = norm
		q[j] = bat.DivScalar(c, v, norm)
		bat.Release(c, v)
	}
	r = make([]*bat.BAT, n)
	for j := range r {
		r[j] = bat.FromFloats(rCols[j])
	}
	return q, r, nil
}

// Det computes the determinant by Gaussian elimination over columns with
// column pivoting: adding a multiple of one column to another preserves
// the determinant, swaps flip its sign. Like Inv, the per-step update of
// the trailing columns fans out over goroutines and updates the work
// columns in place.
func Det(c *exec.Ctx, b []*bat.BAT) (d float64, err error) {
	defer exec.CatchBudget(&err)
	n := len(b)
	if n == 0 || rows(b) != n {
		return 0, ErrShape
	}
	work := make([]*bat.BAT, n)
	for j := range b {
		work[j] = bat.MulScalar(c, b[j], 1)
	}
	det := 1.0
	for i := 0; i < n; i++ {
		p := i
		mx := math.Abs(bat.Sel(work[i], i))
		for j := i + 1; j < n; j++ {
			if v := math.Abs(bat.Sel(work[j], i)); v > mx {
				mx, p = v, j
			}
		}
		if mx == 0 {
			for j := range work {
				bat.Release(c, work[j])
			}
			return 0, nil
		}
		if p != i {
			work[i], work[p] = work[p], work[i]
			det = -det
		}
		pivot := bat.Sel(work[i], i)
		det *= pivot
		c.ParallelFor(n-i-1, colMinWork, func(lo, hi int) {
			for j := i + 1 + lo; j < i+1+hi; j++ {
				v := bat.Sel(work[j], i)
				if v == 0 {
					continue
				}
				bat.AXPYInto(c, work[j].VectorCtx(c).Floats(), work[i], v/pivot)
			}
		})
	}
	for j := range work {
		bat.Release(c, work[j])
	}
	return det, nil
}

// Solve solves A·x = rhs for square or overdetermined A (least squares via
// Gram-Schmidt QR): x = R⁻¹·Qᵀ·rhs.
func Solve(c *exec.Ctx, a []*bat.BAT, rhs *bat.BAT) (res *bat.BAT, err error) {
	defer exec.CatchBudget(&err)
	n := len(a)
	if rows(a) != rhs.Len() {
		return nil, ErrShape
	}
	q, r, err := QR(c, a)
	if err != nil {
		return nil, err
	}
	release := func() {
		for k := range q {
			bat.Release(c, q[k])
			bat.Release(c, r[k])
		}
	}
	qtb := make([]float64, n)
	for k := 0; k < n; k++ {
		qtb[k] = bat.Dot(c, q[k], rhs)
	}
	// Back substitution on the columnar R (r[j][k] = R[k][j]).
	x := make([]float64, n)
	for k := n - 1; k >= 0; k-- {
		s := qtb[k]
		for j := k + 1; j < n; j++ {
			s -= bat.Sel(r[j], k) * x[j]
		}
		rkk := bat.Sel(r[k], k)
		if rkk == 0 {
			release()
			return nil, ErrSingular
		}
		x[k] = s / rkk
	}
	release()
	return bat.FromFloats(x), nil
}
