package linalg

import (
	"math"

	"repro/internal/exec"
	"repro/internal/matrix"
)

// This file holds the tiled (block-partitioned) kernels over
// matrix.BlockMatrix grids: the only implementation of the dense
// products and of Householder QR. The parallel unit is an output tile
// of MatMul, a strip set of a cross-product output tile (its rows, in
// interleaved 8-row strips), or, for QR, a trailing column — each
// output element is produced by exactly one worker, and the inner
// reduction runs in fixed ascending order — so results are
// bitwise-identical at any worker budget and any tile edge: per output
// element the products add in ascending k with a zero-skip on the left
// factor, and per column the Householder reflectors apply in ascending
// order.

// MatMulBlocked returns a·b over tile grids (SUMMA-style: each output
// tile accumulates its row-of-a × column-of-b tile products in
// ascending k-tile order). Requires matching tile edges. Per output
// element the products a[i][k]·b[k][j] add in ascending k, skipping
// a[i][k] == 0.
func MatMulBlocked(c *exec.Ctx, a, b *matrix.BlockMatrix) (*matrix.BlockMatrix, error) {
	if a.Cols != b.Rows {
		return nil, ErrShape
	}
	if a.Edge != b.Edge {
		return nil, ErrShape
	}
	out := matrix.NewBlockEdge(a.Rows, b.Cols, a.Edge)
	kt := a.TileCols()
	c.ParallelFor(out.TileRows()*out.TileCols(), 1, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			matMulTile(c, a, b, out, t/out.TileCols(), t%out.TileCols(), kt)
		}
	})
	return out, nil
}

func matMulTile(c *exec.Ctx, a, b, out *matrix.BlockMatrix, ti, tj, kt int) {
	h, w := out.TileDims(ti, tj)
	ot := out.Tile(c, ti, tj)
	for tk := 0; tk < kt; tk++ {
		at, bt := a.Tile(c, ti, tk), b.Tile(c, tk, tj)
		_, ka := a.TileDims(ti, tk)
		for i := 0; i < h; i++ {
			arow := at[i*ka : (i+1)*ka]
			orow := ot[i*w : (i+1)*w]
			for l, ail := range arow {
				if ail == 0 {
					continue
				}
				brow := bt[l*w : (l+1)*w]
				for j, bv := range brow {
					orow[j] += ail * bv
				}
			}
		}
	}
}

// CrossProductBlocked returns aᵀ·b (CPD) over tile grids with equal row
// counts and tile edges. Output tile (ti, tj) accumulates tile column
// ti of a against tile column tj of b over the row tiles in ascending
// order: per output element, a[r][i]·b[r][j] in ascending r, skipping
// a[r][i] == 0. With b == a (the covariance pattern of §8.6(3), the
// paper's cblas_dsyrk route) only the upper-triangle tiles — and on
// diagonal tiles only j ≥ i — are computed, and the lower triangle is
// mirrored from them.
//
// The parallel unit is a strip set of one output tile: when there are
// fewer tiles than workers, each tile's rows split into crossStrip-row
// strips dealt round robin to ceil(workers/tiles) sets (never more sets
// than strips), and each set walks the row tiles once for its own rows.
// Interleaving balances the triangular work of a diagonal tile. A row
// belongs to one set, so every output element is still produced by one
// worker in the same order, whatever the budget.
func CrossProductBlocked(c *exec.Ctx, a, b *matrix.BlockMatrix) (*matrix.BlockMatrix, error) {
	if a.Rows != b.Rows || a.Edge != b.Edge {
		return nil, ErrShape
	}
	self := a == b
	out := matrix.NewBlockEdge(a.Cols, b.Cols, a.Edge)
	// Output tiles in fixed row-major order, upper triangle only for
	// the self case.
	var todo [][2]int
	for ti := 0; ti < out.TileRows(); ti++ {
		tj := 0
		if self {
			tj = ti
		}
		for ; tj < out.TileCols(); tj++ {
			todo = append(todo, [2]int{ti, tj})
		}
	}
	perTile := (c.Workers() + len(todo) - 1) / max(len(todo), 1)
	var units []crossUnit
	for _, t := range todo {
		h, _ := out.TileDims(t[0], t[1])
		sets := max(1, min(perTile, (h+crossStrip-1)/crossStrip))
		for s := 0; s < sets; s++ {
			units = append(units, crossUnit{ti: t[0], tj: t[1], set: s, sets: sets})
		}
	}
	c.ParallelFor(len(units), 1, func(lo, hi int) {
		for _, u := range units[lo:hi] {
			crossTile(c, a, b, out, u, self && u.ti == u.tj)
		}
	})
	if self {
		// Mirror the strict lower triangle, one tile row per worker.
		c.ParallelFor(out.TileRows(), 1, func(lo, hi int) {
			for ti := lo; ti < hi; ti++ {
				for tj := 0; tj <= ti; tj++ {
					mirrorTile(c, out, ti, tj)
				}
			}
		})
	}
	return out, nil
}

// crossStrip is the row count of one strip of a cross-product output
// tile.
const crossStrip = 8

// crossUnit is one strip set of output tile (ti, tj): the strips set,
// set+sets, set+2·sets, … of crossStrip rows each.
type crossUnit struct {
	ti, tj, set, sets int
}

// crossTile accumulates the rows of output tile (u.ti, u.tj) of aᵀ·b that
// strip set u owns; upper restricts a diagonal tile of the self case to
// j ≥ i.
func crossTile(c *exec.Ctx, a, b, out *matrix.BlockMatrix, u crossUnit, upper bool) {
	ti, tj := u.ti, u.tj
	h, w := out.TileDims(ti, tj)
	ot := out.Tile(c, ti, tj)
	for tr := 0; tr < a.TileRows(); tr++ {
		at, bt := a.Tile(c, tr, ti), b.Tile(c, tr, tj)
		rh, _ := a.TileDims(tr, ti)
		for r := 0; r < rh; r++ {
			brow := bt[r*w : (r+1)*w]
			arow := at[r*h : (r+1)*h]
			for s0 := u.set * crossStrip; s0 < h; s0 += u.sets * crossStrip {
				for i, s1 := s0, min(s0+crossStrip, h); i < s1; i++ {
					ari := arow[i]
					if ari == 0 {
						continue
					}
					j0 := 0
					if upper {
						j0 = i
					}
					// Four elements per iteration keep this loop's speed
					// independent of its 64-byte placement, which
					// unrelated code changes move: the one-element loop
					// ran 18 % slower across a boundary (34000×130 SYRK,
					// 2-vCPU Xeon VM). Each element still gets one
					// multiply and one add, so the bits do not change.
					orow := ot[i*w : (i+1)*w]
					j := j0
					for ; j+4 <= w; j += 4 {
						o, b := orow[j:j+4:j+4], brow[j:j+4:j+4]
						o[0] += ari * b[0]
						o[1] += ari * b[1]
						o[2] += ari * b[2]
						o[3] += ari * b[3]
					}
					for ; j < w; j++ {
						orow[j] += ari * brow[j]
					}
				}
			}
		}
	}
}

// mirrorTile fills tile (ti, tj), ti ≥ tj, below the diagonal with the
// transpose of upper tile (tj, ti); a diagonal tile mirrors within
// itself.
func mirrorTile(c *exec.Ctx, out *matrix.BlockMatrix, ti, tj int) {
	h, w := out.TileDims(ti, tj)
	ot := out.Tile(c, ti, tj)
	src, sw := ot, w
	if ti != tj {
		src = out.Tile(c, tj, ti)
		_, sw = out.TileDims(tj, ti)
	}
	for i := 0; i < h; i++ {
		jEnd := w
		if ti == tj {
			jEnd = i
		}
		for j := 0; j < jEnd; j++ {
			ot[i*w+j] = src[j*sw+i]
		}
	}
}

// QRBlocked factors a block matrix with panel-organized Householder
// reflections (qrPanels). The tiles are gathered straight into the
// column-major working form, drawn from the context's arena (the tile
// loop writes every cell), so the operand never needs one contiguous
// row-major copy.
func QRBlocked(c *exec.Ctx, a *matrix.BlockMatrix) (*QR, error) {
	if a.Rows < a.Cols {
		return nil, ErrShape
	}
	m, n := a.Rows, a.Cols
	v := make([][]float64, n)
	for j := 0; j < n; j++ {
		v[j] = c.Arena().Floats(m)
	}
	c.ParallelFor(a.TileRows()*a.TileCols(), 1, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			ti, tj := t/a.TileCols(), t%a.TileCols()
			h, w := a.TileDims(ti, tj)
			data := a.Tile(c, ti, tj)
			for r := 0; r < h; r++ {
				gi := ti*a.Edge + r
				for jj := 0; jj < w; jj++ {
					v[tj*a.Edge+jj][gi] = data[r*w+jj]
				}
			}
		}
	})
	return qrPanels(c, v, m, qrPanel), nil
}

// qrPanel is the Householder panel width. It changes no bit of the
// factorization, only how much of it runs in parallel: the in-panel
// work is serial and only the sweep of the trailing columns fans out,
// so a tile-wide panel (256) would leave every QR of fewer columns
// serial.
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
	// 1<<15 flops or more.
	minCols := max(1, (1<<15)/max(1, m*panel)+1)
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
