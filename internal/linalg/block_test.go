package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/matrix"
)

// blockRandMatrix builds a deterministic test matrix with negatives,
// exact zeros (to exercise the kernels' zero-skip), and magnitude
// spread.
func blockRandMatrix(rng *rand.Rand, rows, cols int) *matrix.Matrix {
	m := matrix.New(rows, cols)
	for i := range m.Data {
		switch rng.Intn(8) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = -rng.Float64() * 100
		default:
			m.Data[i] = (rng.Float64() - 0.5) * 10
		}
	}
	return m
}

// edgeForTiles picks a tile edge so an n-wide matrix splits into
// exactly `tiles` tile columns (the last one possibly ragged).
func edgeForTiles(n, tiles int) int {
	return max(1, (n+tiles-1)/tiles)
}

func sameBits(t *testing.T, name string, got, want *matrix.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v (bits %x), want %v (bits %x)",
				name, i, got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// naiveMatMul is the reference accumulation order of every product
// kernel: per output element, ascending k, skipping a[i][k] == 0.
func naiveMatMul(a, b *matrix.Matrix) *matrix.Matrix {
	out := matrix.New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				if a.At(i, k) == 0 {
					continue
				}
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// naiveSYRK is aᵀ·a in the reference order with the upper triangle
// mirrored into the lower one.
func naiveSYRK(a *matrix.Matrix) *matrix.Matrix {
	out := naiveMatMul(a.T(), a)
	for i := 0; i < out.Rows; i++ {
		for j := i + 1; j < out.Cols; j++ {
			out.Set(j, i, out.At(i, j))
		}
	}
	return out
}

var blockWorkerGrid = []int{1, 2, 8}
var blockTileGrid = []int{1, 2, 7, 16}

// TestBlockedMatMulBitwiseFlat: the tiled product must be
// bitwise-identical to the naive ascending-k loop at every worker
// budget and tile count, including non-divisible edges (n = tile ± 1
// cases fall out of the 7- and 16-tile grids over prime-ish sizes).
func TestBlockedMatMulBitwiseFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, dims := range [][3]int{{97, 53, 61}, {64, 64, 64}, {33, 65, 31}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := blockRandMatrix(rng, m, k)
		b := blockRandMatrix(rng, k, n)
		want := naiveMatMul(a, b)
		for _, workers := range blockWorkerGrid {
			c := exec.New(workers)
			sameBits(t, "matmul adapter", MatMul(c, a, b), want)
			for _, tiles := range blockTileGrid {
				edge := edgeForTiles(max(m, max(k, n)), tiles)
				ab := matrix.BlockOf(c, a, edge)
				bb := matrix.BlockOf(c, b, edge)
				ob, err := MatMulBlocked(c, ab, bb)
				if err != nil {
					t.Fatalf("MatMulBlocked(%v, workers=%d, tiles=%d): %v", dims, workers, tiles, err)
				}
				sameBits(t, "blocked matmul", ob.Flatten(c), want)
				ab.Free(c)
				bb.Free(c)
				ob.Free(c)
			}
		}
	}
}

// TestBlockedSYRKBitwiseFlat mirrors the MatMul test for the tiled
// cross product: aᵀ·a through the self case (upper tiles plus mirror)
// and aᵀ·b through the general case.
func TestBlockedSYRKBitwiseFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][3]int{{89, 47, 13}, {50, 17, 29}} {
		m, n, nb := dims[0], dims[1], dims[2]
		a := blockRandMatrix(rng, m, n)
		b := blockRandMatrix(rng, m, nb)
		wantSelf := naiveSYRK(a)
		wantCross := naiveMatMul(a.T(), b)
		for _, workers := range blockWorkerGrid {
			c := exec.New(workers)
			sameBits(t, "syrk adapter", SYRK(c, a), wantSelf)
			sameBits(t, "cross product adapter", CrossProduct(c, a, b), wantCross)
			for _, tiles := range blockTileGrid {
				edge := edgeForTiles(max(m, n), tiles)
				ab := matrix.BlockOf(c, a, edge)
				bb := matrix.BlockOf(c, b, edge)
				for _, leg := range []struct {
					name string
					rhs  *matrix.BlockMatrix
					want *matrix.Matrix
				}{{"self", ab, wantSelf}, {"cross", bb, wantCross}} {
					ob, err := CrossProductBlocked(c, ab, leg.rhs)
					if err != nil {
						t.Fatalf("CrossProductBlocked %s (%v, workers=%d, tiles=%d): %v", leg.name, dims, workers, tiles, err)
					}
					sameBits(t, "blocked cross product "+leg.name, ob.Flatten(c), leg.want)
					ob.Free(c)
				}
				ab.Free(c)
				bb.Free(c)
			}
		}
	}
}

// TestBlockedQRBitwiseFlat: the panel-blocked factorization must
// reproduce NewQRSerial — one panel, so the plain column-by-column
// Householder loop on one worker — bit for bit, Q and R both, at every
// panel width, tile edge and worker budget.
func TestBlockedQRBitwiseFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, dims := range [][2]int{{90, 37}, {65, 65}, {33, 9}} {
		m, n := dims[0], dims[1]
		a := blockRandMatrix(rng, m, n)
		ref, err := NewQRSerial(a)
		if err != nil {
			t.Fatal(err)
		}
		wantQ, wantR := matrix.FromColumns(ref.Q(nil)), ref.R()
		for _, workers := range blockWorkerGrid {
			c := exec.New(workers)
			for _, panel := range []int{1, 3, qrPanel, n - 1} {
				d, err := newQR(c, a, panel)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, fmt.Sprintf("QR panel %d: Q", panel), matrix.FromColumns(d.Q(c)), wantQ)
				sameBits(t, fmt.Sprintf("QR panel %d: R", panel), d.R(), wantR)
			}
			for _, tiles := range blockTileGrid {
				edge := edgeForTiles(m, tiles)
				ab := matrix.BlockOf(c, a, edge)
				d, err := QRBlocked(c, ab)
				if err != nil {
					t.Fatalf("QRBlocked(%v, workers=%d, tiles=%d): %v", dims, workers, tiles, err)
				}
				sameBits(t, "blocked QR: Q", matrix.FromColumns(d.Q(c)), wantQ)
				sameBits(t, "blocked QR: R", d.R(), wantR)
				ab.Free(c)
			}
		}
	}
}
