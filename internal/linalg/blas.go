// Package linalg implements the decomposition-based matrix operations of
// the paper over contiguous dense arrays: LU (inversion, determinant,
// solve), Householder QR, one-sided Jacobi SVD, eigensolvers, and Cholesky,
// plus the matrix products and the panel QR over tile grids
// (matrix.BlockMatrix, block.go), parallel over output tiles or
// trailing columns.
//
// This package is the repository's stand-in for Intel MKL (Section 7.3 of
// the paper): a tuned kernel over contiguous arrays that the RMA layer can
// delegate to after copying BATs out — and whose copy-in/copy-out overhead
// the paper measures in Figure 14. It is deliberately independent of the
// BAT layer; the column-at-a-time algorithms live in internal/batlin.
package linalg

import (
	"repro/internal/exec"
	"repro/internal/matrix"
)

// MatMul returns a·b (MMU) for flat operands through MatMulBlocked, the
// one product kernel: the operands are copied into tiles and the
// result back out.
func MatMul(c *exec.Ctx, a, b *matrix.Matrix) *matrix.Matrix {
	if a.Cols != b.Rows {
		panic("linalg: matmul inner dimension mismatch")
	}
	return onTiles(c, a, b, MatMulBlocked)
}

// CrossProduct returns aᵀ·b (CPD) through CrossProductBlocked.
func CrossProduct(c *exec.Ctx, a, b *matrix.Matrix) *matrix.Matrix {
	if a.Rows != b.Rows {
		panic("linalg: cross product row mismatch")
	}
	return onTiles(c, a, b, CrossProductBlocked)
}

// OuterProduct returns a·bᵀ (OPD); the operands must have the same number
// of columns.
func OuterProduct(c *exec.Ctx, a, b *matrix.Matrix) *matrix.Matrix {
	if a.Cols != b.Cols {
		panic("linalg: outer product column mismatch")
	}
	return MatMul(c, a, b.T())
}

// SYRK returns aᵀ·a, the self case of CrossProductBlocked (the
// cblas_dsyrk route the paper uses for covariance, Section 8.6(3)):
// only the upper triangle is computed and then mirrored.
func SYRK(c *exec.Ctx, a *matrix.Matrix) *matrix.Matrix {
	return onTiles(c, a, nil, CrossProductBlocked)
}

// onTiles copies a (and b, or a again when b is nil) into tile grids,
// runs the tiled kernel, and copies the result into a heap matrix. A
// kernel fails only on shapes, which the callers check first, so an
// error here is a bug.
func onTiles(c *exec.Ctx, a, b *matrix.Matrix, kernel func(*exec.Ctx, *matrix.BlockMatrix, *matrix.BlockMatrix) (*matrix.BlockMatrix, error)) *matrix.Matrix {
	ta := matrix.BlockOf(c, a, 0)
	defer ta.Free(c)
	tb := ta
	if b != nil {
		tb = matrix.BlockOf(c, b, 0)
		defer tb.Free(c)
	}
	out, err := kernel(c, ta, tb)
	if err != nil {
		panic("linalg: " + err.Error())
	}
	defer out.Free(c)
	return out.Flatten(c)
}

// MatVec returns a·x for a vector x.
func MatVec(a *matrix.Matrix, x []float64) []float64 {
	if a.Cols != len(x) {
		panic("linalg: matvec dimension mismatch")
	}
	out := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}
