// Package linalg implements the decomposition-based matrix operations of
// the paper over contiguous dense arrays: LU (inversion, determinant,
// solve), Householder QR, one-sided Jacobi SVD, eigensolvers, and Cholesky,
// plus a cache-blocked, goroutine-parallel matrix multiply.
//
// This package is the repository's stand-in for Intel MKL (Section 7.3 of
// the paper): a tuned kernel over contiguous arrays that the RMA layer can
// delegate to after copying BATs out — and whose copy-in/copy-out overhead
// the paper measures in Figure 14. It is deliberately independent of the
// BAT layer; the column-at-a-time algorithms live in internal/batlin.
package linalg

import (
	"sync"

	"repro/internal/exec"
	"repro/internal/matrix"
)

// blockSize is the cache tile edge for the matmul kernels; 64 keeps three
// float64 tiles well inside a typical 256 KiB L2.
const blockSize = 64

// parallelThreshold is the flop count below which MatMul stays serial.
// The fan-out decision is per *worker*, not per call: each goroutine
// must clear this much work or its spawn/synchronization setup costs
// more than it saves, so the kernels shed workers until every stripe
// does (fanoutWorkers) instead of comparing the total flop count alone.
// A mid-sized input on a small budget therefore stays serial where the
// old total-flops test would have paid the fan-out setup for nothing —
// TestBlockedMatMulSerialHeuristic pins the fanoutWorkers decisions.
const parallelThreshold = 1 << 18

// fanoutWorkers resolves how many goroutines a kernel of the given
// total flop count should fan out to under the context's budget: at
// most one per parallelThreshold of work, never more than the budget,
// and 1 (serial) when even two workers could not each clear the
// threshold.
func fanoutWorkers(c *exec.Ctx, flops int) int {
	workers := c.Workers()
	if byWork := flops / parallelThreshold; byWork < workers {
		workers = byWork
	}
	return max(workers, 1)
}

// MatMul returns a·b (MMU) using an ikj loop order with cache blocking,
// parallelized over row stripes under the context's worker budget.
func MatMul(c *exec.Ctx, a, b *matrix.Matrix) *matrix.Matrix {
	if a.Cols != b.Rows {
		panic("linalg: matmul inner dimension mismatch")
	}
	m, kk, n := a.Rows, a.Cols, b.Cols
	out := matrix.New(m, n)
	workers := fanoutWorkers(c, m*kk*n)
	if workers == 1 || m == 1 {
		mulStripe(a, b, out, 0, m)
		return out
	}
	if workers > m {
		workers = m
	}
	var wg sync.WaitGroup
	chunk := (m + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			mulStripe(a, b, out, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// mulStripe computes rows [lo,hi) of out = a·b with k/j blocking.
func mulStripe(a, b, out *matrix.Matrix, lo, hi int) {
	kk, n := a.Cols, b.Cols
	for k0 := 0; k0 < kk; k0 += blockSize {
		k1 := k0 + blockSize
		if k1 > kk {
			k1 = kk
		}
		for j0 := 0; j0 < n; j0 += blockSize {
			j1 := j0 + blockSize
			if j1 > n {
				j1 = n
			}
			for i := lo; i < hi; i++ {
				arow := a.Row(i)
				orow := out.Row(i)
				for l := k0; l < k1; l++ {
					ail := arow[l]
					if ail == 0 {
						continue
					}
					brow := b.Row(l)
					for j := j0; j < j1; j++ {
						orow[j] += ail * brow[j]
					}
				}
			}
		}
	}
}

// CrossProduct returns aᵀ·b (CPD). Implemented as an explicit transpose
// followed by the blocked multiply; the O(mn) transpose is negligible next
// to the O(mnk) product.
func CrossProduct(c *exec.Ctx, a, b *matrix.Matrix) *matrix.Matrix {
	if a.Rows != b.Rows {
		panic("linalg: cross product row mismatch")
	}
	return MatMul(c, a.T(), b)
}

// OuterProduct returns a·bᵀ (OPD); the operands must have the same number
// of columns.
func OuterProduct(c *exec.Ctx, a, b *matrix.Matrix) *matrix.Matrix {
	if a.Cols != b.Cols {
		panic("linalg: outer product column mismatch")
	}
	return MatMul(c, a, b.T())
}

// SYRK returns aᵀ·a exploiting the symmetry of the result (the
// cblas_dsyrk route the paper uses for covariance, Section 8.6(3)): only
// the upper triangle is computed and then mirrored.
func SYRK(c *exec.Ctx, a *matrix.Matrix) *matrix.Matrix {
	n := a.Cols
	out := matrix.New(n, n)
	m := a.Rows
	if n == 0 {
		return out
	}
	workers := fanoutWorkers(c, m*n*n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		syrkCols(a, out, 0, n)
	} else {
		var wg sync.WaitGroup
		chunk := (n + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > n {
				hi = n
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				syrkCols(a, out, lo, hi)
			}(lo, hi)
		}
		wg.Wait()
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out.Set(j, i, out.At(i, j))
		}
	}
	return out
}

// syrkCols fills out[i][j] for i in [lo,hi), j >= i.
func syrkCols(a, out *matrix.Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		orow := out.Row(i)
		for r := 0; r < a.Rows; r++ {
			arow := a.Row(r)
			ari := arow[i]
			if ari == 0 {
				continue
			}
			for j := i; j < a.Cols; j++ {
				orow[j] += ari * arow[j]
			}
		}
	}
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
