package matrix

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exec"
)

// TestTileGridShapes checks grid arithmetic on non-divisible shapes.
func TestTileGridShapes(t *testing.T) {
	b := NewBlockEdge(7, 5, 3)
	if b.TileRows() != 3 || b.TileCols() != 2 {
		t.Fatalf("grid = %dx%d, want 3x2", b.TileRows(), b.TileCols())
	}
	if h, w := b.TileDims(0, 0); h != 3 || w != 3 {
		t.Fatalf("tile(0,0) = %dx%d, want 3x3", h, w)
	}
	if h, w := b.TileDims(2, 1); h != 1 || w != 2 {
		t.Fatalf("tile(2,1) = %dx%d, want 1x2", h, w)
	}
}

// TestTileRoundTrip: BlockOf → Flatten must reproduce the flat matrix
// exactly for ragged tile grids, and At must agree element-wise.
func TestTileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := exec.New(4)
	for _, edge := range []int{1, 2, 7, 16, 64} {
		m := New(13, 29)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		b, err := BlockOf(c, m, edge)
		if err != nil {
			t.Fatal(err)
		}
		back, err := b.Flatten(c)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < m.Rows; i++ {
			for j := 0; j < m.Cols; j++ {
				if back.At(i, j) != m.At(i, j) {
					t.Fatalf("edge %d: flatten (%d,%d) = %v, want %v", edge, i, j, back.At(i, j), m.At(i, j))
				}
				v, err := b.At(c, i, j)
				if err != nil {
					t.Fatal(err)
				}
				if v != m.At(i, j) {
					t.Fatalf("edge %d: At(%d,%d) = %v, want %v", edge, i, j, v, m.At(i, j))
				}
			}
		}
		b.Free(c)
	}
}

// TestTileLazyZero: tiles never written read as zero and stay
// unmaterialized.
func TestTileLazyZero(t *testing.T) {
	c := exec.New(1)
	b := NewBlockEdge(100, 100, 10)
	if v, err := b.At(c, 57, 31); err != nil || v != 0 {
		t.Fatalf("virgin At = %v, %v", v, err)
	}
	if b.resident != 0 {
		t.Fatalf("virgin read materialized %d tiles", b.resident)
	}
	if err := b.Set(c, 57, 31, 4.5); err != nil {
		t.Fatal(err)
	}
	if b.resident != 1 {
		t.Fatalf("after one Set: %d resident tiles, want 1", b.resident)
	}
	b.Free(c)
}

// TestTileSpillEviction: with a residency cap, writes spill older
// tiles to disk, reads page them back bit-exactly, and the cap holds
// whenever no tile is pinned.
func TestTileSpillEviction(t *testing.T) {
	dir := t.TempDir()
	sp := exec.NewSpill(dir, 1)
	defer sp.Cleanup()
	c := exec.New(2).WithSpill(sp)

	const edge, n = 4, 32 // 8×8 grid, 64 tiles
	b := NewBlockEdge(n, n, edge)
	b.EnableSpill(sp, 5)
	rng := rand.New(rand.NewSource(9))
	want := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want.Set(i, j, rng.NormFloat64())
			if err := b.Set(c, i, j, want.At(i, j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if r := b.resident; r > 5 {
		t.Fatalf("%d resident tiles, cap 5", r)
	}
	// Page everything back (twice: a clean reload must not rewrite).
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v, err := b.At(c, i, j)
				if err != nil {
					t.Fatal(err)
				}
				if v != want.At(i, j) {
					t.Fatalf("round %d: At(%d,%d) = %v, want %v", round, i, j, v, want.At(i, j))
				}
			}
		}
	}
	if sp.Stats().SpilledBytes == 0 {
		t.Fatal("no bytes reported spilled despite eviction")
	}
	b.Free(c)
	spillDir, err := sp.Dir()
	if err != nil {
		t.Fatal(err)
	}
	left, err := filepath.Glob(filepath.Join(spillDir, "tile-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("Free left %d tile files behind", len(left))
	}
	if _, err := os.Stat(spillDir); err != nil {
		t.Fatalf("scratch dir gone before Cleanup: %v", err)
	}
}
