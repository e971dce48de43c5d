// Package linalg implements the decomposition-based matrix operations of
// the paper over dense float columns: LU (inversion, determinant,
// solve), Householder QR (Q, R and least squares), one-sided Jacobi
// SVD, eigensolvers, and Cholesky, plus the matrix products. A matrix is
// its columns, [][]float64, the layout of a relation's BATs. The
// products only read their operands, so the RMA layer hands them the
// ordered application columns as they are; every other operation takes
// its operand's columns over — arena working columns that it factors,
// rotates or reads and then hands back. Results are columns drawn from
// the context's arena, which the RMA layer takes as its result BATs.
// There is one implementation of each job, and it keeps its working
// memory in the arena, inside the tenant's ledger: every fan-out runs on
// exec.Ctx.ParallelFor (the SVD's Jacobi rounds included), both Jacobi
// methods rotate columns through one rotatePair, every reflector is
// applied through applyReflectorTo, and an orthonormal complement (the
// SVD's square factors and its columns of zero singular values) is the
// trailing columns of the Householder Q of the columns it completes.
//
// This package is the repository's stand-in for Intel MKL (Section 7.3 of
// the paper): a tuned kernel that the RMA layer delegates to — and whose
// copy-in overhead the paper measures in Figure 14. It is deliberately
// independent of the BAT layer; the column-at-a-time algorithms live in
// internal/batlin.
package linalg

import "repro/internal/exec"

// The column kernels below produce every output element on one worker
// with a fixed reduction order, so results are bitwise-identical at any
// worker budget: per output element the products add in ascending inner
// index into one accumulator that starts at +0, skipping the products
// whose left factor is 0 (so an Inf or NaN opposite a zero does not
// reach the sum).

// stripRows is the row count of one strip: the kernels walk their
// operands strip by strip so that one strip of every operand column
// stays in cache while it is reused. It sets no bit of a result.
const stripRows = 256

// minParallelWork is the number of multiply-adds below which a kernel
// runs on the calling goroutine.
const minParallelWork = 1 << 15

// MatMulCols returns a·b (MMU) in column form: a is p columns of m
// rows, b is n columns of p rows, and the result is n columns of m rows
// drawn from c's arena. Output column j accumulates the columns of a,
// each scaled by b[j][k], in ascending k.
func MatMulCols(c *exec.Ctx, a, b [][]float64, m int) [][]float64 {
	return mulCols(c, a, m, len(b), func(k, j int) float64 { return b[j][k] })
}

// OuterProductCols returns a·bᵀ (OPD) in column form: a is p columns
// of m rows, b is p columns of n rows, and the result is n columns of m
// rows drawn from c's arena. It is MatMulCols against bᵀ, read in place.
func OuterProductCols(c *exec.Ctx, a, b [][]float64, m, n int) [][]float64 {
	return mulCols(c, a, m, n, func(k, j int) float64 { return b[k][j] })
}

// mulCols returns the n columns of m rows whose column j is the sum
// over k of a[k]·bkj(k, j). The parallel unit is one row strip of one
// output column.
func mulCols(c *exec.Ctx, a [][]float64, m, n int, bkj func(k, j int) float64) [][]float64 {
	out := make([][]float64, n)
	for j := range out {
		out[j] = c.Arena().FloatsZero(m)
	}
	strips := (m + stripRows - 1) / stripRows
	c.ParallelFor(strips*n, minParallelWork/max(1, min(m, stripRows)*len(a)), func(lo, hi int) {
		for u := lo; u < hi; u++ {
			j, r0 := u%n, u/n*stripRows
			r1 := min(r0+stripRows, m)
			o := out[j][r0:r1]
			k := 0
			for ; k+4 <= len(a); k += 4 {
				s0, s1, s2, s3 := bkj(k, j), bkj(k+1, j), bkj(k+2, j), bkj(k+3, j)
				if !finite(s0) || !finite(s1) || !finite(s2) || !finite(s3) {
					for l := k; l < k+4; l++ {
						axpySkip(o, a[l][r0:r1], bkj(l, j))
					}
					continue
				}
				// With every scale finite, a zero left factor adds ±0,
				// which leaves the sum's bits unchanged: the sum starts
				// at +0 and is never −0 (only −0 + −0 is), so the
				// zero-skip needs no branch here. Each element still adds
				// its four products one by one in ascending k.
				a0, a1 := a[k][r0:r1][:len(o)], a[k+1][r0:r1][:len(o)]
				a2, a3 := a[k+2][r0:r1][:len(o)], a[k+3][r0:r1][:len(o)]
				for i, v := range o {
					v += a0[i] * s0
					v += a1[i] * s1
					v += a2[i] * s2
					v += a3[i] * s3
					o[i] = v
				}
			}
			for ; k < len(a); k++ {
				axpySkip(o, a[k][r0:r1], bkj(k, j))
			}
		}
	})
	return out
}

// axpySkip adds x[i]·s to o[i] for every x[i] != 0.
func axpySkip(o, x []float64, s float64) {
	x = x[:len(o)]
	for i, v := range x {
		if v != 0 {
			o[i] += v * s
		}
	}
}

// finite reports whether s is neither infinite nor NaN.
func finite(s float64) bool { return s-s == 0 }

// CrossProductCols returns aᵀ·b (CPD) in column form: a and b are
// columns of equal length, and the result is len(b) columns of len(a)
// rows drawn from c's arena. Element (i, j) is the dot product of a[i]
// and b[j] in ascending row order, skipping a[i][r] == 0. The parallel
// unit is one output row i, walked strip by strip.
func CrossProductCols(c *exec.Ctx, a, b [][]float64) [][]float64 {
	return crossCols(c, a, b, false)
}

// SYRKCols returns aᵀ·a, the self case of CrossProductCols (the
// cblas_dsyrk route the paper uses for covariance, Section 8.6(3)):
// only the elements j ≥ i are computed and then mirrored. Row i's work
// shrinks with i, so the parallel unit pairs rows i and n−1−i.
func SYRKCols(c *exec.Ctx, a [][]float64) [][]float64 {
	return crossCols(c, a, a, true)
}

func crossCols(c *exec.Ctx, a, b [][]float64, self bool) [][]float64 {
	na := len(a)
	out := make([][]float64, len(b))
	for j := range out {
		out[j] = c.Arena().FloatsZero(na)
	}
	if na == 0 {
		return out
	}
	m := len(a[0])
	units, width := na, len(b)
	if self {
		units, width = (na+1)/2, na+1
	}
	c.ParallelFor(units, minParallelWork/max(1, m*width), func(lo, hi int) {
		for r0 := 0; r0 < m; r0 += stripRows {
			r1 := min(r0+stripRows, m)
			for u := lo; u < hi; u++ {
				if !self {
					crossRow(a, b, out, u, 0, r0, r1)
					continue
				}
				crossRow(a, b, out, u, u, r0, r1)
				if v := na - 1 - u; v != u {
					crossRow(a, b, out, v, v, r0, r1)
				}
			}
		}
	})
	if self {
		for j := range out {
			for i := j + 1; i < na; i++ {
				out[j][i] = out[i][j]
			}
		}
	}
	return out
}

// crossRow adds rows [r0, r1) of the dot products of a[i] with b[j],
// j ≥ j0, to out[j][i].
func crossRow(a, b, out [][]float64, i, j, r0, r1 int) {
	ai := a[i][r0:r1]
	// Four accumulators per pass keep this loop's speed independent of
	// its 64-byte placement, which unrelated code changes move: a
	// one-element loop ran 18 % slower across a boundary (34000×130
	// SYRK, 2-vCPU Xeon VM). Each element still has one accumulator
	// that adds in ascending r, so the bits do not change.
	for ; j+4 <= len(b); j += 4 {
		b0, b1 := b[j][r0:r1][:len(ai)], b[j+1][r0:r1][:len(ai)]
		b2, b3 := b[j+2][r0:r1][:len(ai)], b[j+3][r0:r1][:len(ai)]
		s0, s1, s2, s3 := out[j][i], out[j+1][i], out[j+2][i], out[j+3][i]
		for r, x := range ai {
			if x == 0 {
				continue
			}
			s0 += x * b0[r]
			s1 += x * b1[r]
			s2 += x * b2[r]
			s3 += x * b3[r]
		}
		out[j][i], out[j+1][i], out[j+2][i], out[j+3][i] = s0, s1, s2, s3
	}
	for ; j < len(b); j++ {
		bj := b[j][r0:r1][:len(ai)]
		s := out[j][i]
		for r, x := range ai {
			if x != 0 {
				s += x * bj[r]
			}
		}
		out[j][i] = s
	}
}

// TransposeCols returns the m columns of len(v) rows that transpose the
// columns v of m rows, drawn from c's arena. Each source column writes a
// distinct row of every output column, so the source columns fan out
// with disjoint writes once they hold about minParallelWork elements.
func TransposeCols(c *exec.Ctx, v [][]float64, m int) [][]float64 {
	t := make([][]float64, m)
	for i := range t {
		t[i] = c.Arena().Floats(len(v))
	}
	c.ParallelFor(len(v), max(1, minParallelWork/max(1, m)), func(lo, hi int) {
		for j := lo; j < hi; j++ {
			for i, x := range v[j] {
				t[i][j] = x
			}
		}
	})
	return t
}
