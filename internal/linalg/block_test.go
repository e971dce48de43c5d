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
	out := naiveMatMul(transpose(a), a)
	for i := 0; i < out.Rows; i++ {
		for j := i + 1; j < out.Cols; j++ {
			out.Set(j, i, out.At(i, j))
		}
	}
	return out
}

var blockWorkerGrid = []int{1, 2, 8}

// blockRowGrid straddles one row strip: stripRows−1, stripRows and
// stripRows+1 rows.
var blockRowGrid = []int{stripRows - 1, stripRows, stripRows + 1}

// TestBlockedMatMulBitwiseFlat: the strip-blocked column product a·b,
// and a·bᵀ through the same kernel, must be bitwise-identical to the
// naive ascending-k loop at every worker budget: row counts around one
// strip, column counts ≡ 0–3 mod 4, a 1×1 operand, and Inf/NaN in the
// right factor opposite zeros in the left one.
func TestBlockedMatMulBitwiseFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dims := [][3]int{{97, 53, 61}, {33, 65, 31}, {1, 1, 1}}
	for k, m := range blockRowGrid {
		dims = append(dims, [3]int{m, 4 + k, 5 + k})
	}
	dims = append(dims, [3]int{stripRows + 1, 7, 4})
	for _, d := range dims {
		m, k, n := d[0], d[1], d[2]
		a := blockRandMatrix(rng, m, k)
		b := blockRandMatrix(rng, k, n)
		bt := blockRandMatrix(rng, n, k)
		if m > 1 {
			// Inf and NaN in row k0 of both right factors, opposite
			// zeros in every other row of a's column k0: a kernel that
			// did not skip the zero left factor would turn those rows'
			// sums into NaN.
			k0 := k / 2
			for i := 0; i < m; i += 2 {
				a.Set(i, k0, 0)
			}
			b.Set(k0, 0, math.Inf(1))
			b.Set(k0, n-1, math.NaN())
			bt.Set(0, k0, math.Inf(-1))
			bt.Set(n-1, k0, math.NaN())
		}
		want := naiveMatMul(a, b)
		wantOuter := naiveMatMul(a, transpose(bt))
		for _, workers := range blockWorkerGrid {
			c := exec.New(workers)
			sameBits(t, fmt.Sprintf("matmul %v workers=%d", d, workers),
				matrix.FromColumns(MatMulCols(c, a.Columns(), b.Columns(), m)), want)
			sameBits(t, fmt.Sprintf("outer product %v workers=%d", d, workers),
				matrix.FromColumns(OuterProductCols(c, a.Columns(), bt.Columns(), m, n)), wantOuter)
		}
	}
}

// TestBlockedSYRKBitwiseFlat mirrors the MatMul test for the column
// cross product: aᵀ·a through the self case (j ≥ i, paired rows, then
// the mirror) and aᵀ·b through the general case.
func TestBlockedSYRKBitwiseFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dims := [][3]int{{89, 47, 13}, {50, 17, 29}, {1, 1, 1}}
	for _, m := range blockRowGrid {
		for w := 4; w < 8; w++ {
			dims = append(dims, [3]int{m, w, 11 - w})
		}
	}
	for _, d := range dims {
		m, n, nb := d[0], d[1], d[2]
		a := blockRandMatrix(rng, m, n)
		b := blockRandMatrix(rng, m, nb)
		if n > 1 {
			// Inf and NaN in the right factor (b, and a itself for the
			// self case) opposite zeros in a's column 0, the left
			// factor of output row 0.
			for r := 0; r < m; r += 2 {
				a.Set(r, 0, 0)
				a.Set(r, n-1, math.Inf(1))
				b.Set(r, 0, math.Inf(-1))
				b.Set(r, nb-1, math.NaN())
			}
		}
		wantSelf := naiveSYRK(a)
		wantCross := naiveMatMul(transpose(a), b)
		for _, workers := range blockWorkerGrid {
			c := exec.New(workers)
			sameBits(t, fmt.Sprintf("syrk %v workers=%d", d, workers),
				matrix.FromColumns(SYRKCols(c, a.Columns())), wantSelf)
			sameBits(t, fmt.Sprintf("cross product %v workers=%d", d, workers),
				matrix.FromColumns(CrossProductCols(c, a.Columns(), b.Columns())), wantCross)
		}
	}
}

// TestBlockedQRBitwiseFlat: the panel factorization of arena columns
// must reproduce one panel on one worker — the plain column-by-column
// Householder loop — bit for bit, Q and R both, at every panel width
// and worker budget.
func TestBlockedQRBitwiseFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	dims := [][2]int{{90, 37}, {65, 65}, {33, 9}, {1, 1}}
	for k, m := range blockRowGrid {
		dims = append(dims, [2]int{m, 4 + k}, [2]int{m, 7})
	}
	for _, dim := range dims {
		m, n := dim[0], dim[1]
		a := blockRandMatrix(rng, m, n)
		ref := qrPanels(nil, a.Columns(), m, n)
		wantQ, wantR := matrix.FromColumns(ref.Q(nil)), matrix.FromColumns(ref.R(nil))
		for _, workers := range blockWorkerGrid {
			c := exec.New(workers)
			work := func() [][]float64 {
				v := a.Columns()
				for j, col := range v {
					v[j] = append(c.Arena().Floats(m)[:0], col...)
				}
				return v
			}
			for _, panel := range []int{1, 3, qrPanel, max(1, n-1)} {
				d := qrPanels(c, work(), m, panel)
				sameBits(t, fmt.Sprintf("QR %v panel %d: Q", dim, panel), matrix.FromColumns(d.Q(c)), wantQ)
				sameBits(t, fmt.Sprintf("QR %v panel %d: R", dim, panel), matrix.FromColumns(d.R(c)), wantR)
				d.Free(c)
			}
			d, err := NewQRColumns(c, work(), m)
			if err != nil {
				t.Fatalf("NewQRColumns(%v, workers=%d): %v", dim, workers, err)
			}
			sameBits(t, fmt.Sprintf("column QR %v workers=%d: Q", dim, workers), matrix.FromColumns(d.Q(c)), wantQ)
			sameBits(t, fmt.Sprintf("column QR %v workers=%d: R", dim, workers), matrix.FromColumns(d.R(c)), wantR)
			d.Free(c)
		}
	}
	if _, err := NewQRColumns(nil, make([][]float64, 3), 2); err != ErrShape {
		t.Fatalf("NewQRColumns on 2 rows x 3 columns: %v, want ErrShape", err)
	}
}
