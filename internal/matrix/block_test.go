package matrix

import (
	"math/rand"
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
// exactly for ragged tile grids, and every tile must hold its block of
// the flat matrix element-wise.
func TestTileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := exec.New(4)
	for _, edge := range []int{1, 2, 7, 16, 64} {
		m := New(13, 29)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		b := BlockOf(c, m, edge)
		back := b.Flatten(c)
		for i := 0; i < m.Rows; i++ {
			for j := 0; j < m.Cols; j++ {
				if back.At(i, j) != m.At(i, j) {
					t.Fatalf("edge %d: flatten (%d,%d) = %v, want %v", edge, i, j, back.At(i, j), m.At(i, j))
				}
				ti, tj := i/edge, j/edge
				_, w := b.TileDims(ti, tj)
				if v := b.Tile(c, ti, tj)[(i-ti*edge)*w+j-tj*edge]; v != m.At(i, j) {
					t.Fatalf("edge %d: tile element (%d,%d) = %v, want %v", edge, i, j, v, m.At(i, j))
				}
			}
		}
		b.Free(c)
	}
}

// TestTileLazyZero: tiles never written read as zero and stay
// unmaterialized; the first Tile call materializes exactly one.
func TestTileLazyZero(t *testing.T) {
	c := exec.New(1)
	b := NewBlockEdge(100, 100, 10)
	if v := b.Flatten(c).At(57, 31); v != 0 {
		t.Fatalf("virgin element = %v", v)
	}
	if n := residentTiles(b); n != 0 {
		t.Fatalf("virgin read materialized %d tiles", n)
	}
	tile := b.Tile(c, 5, 3)
	for k, v := range tile {
		if v != 0 {
			t.Fatalf("fresh tile element %d = %v", k, v)
		}
	}
	tile[7*10+1] = 4.5
	if n := residentTiles(b); n != 1 {
		t.Fatalf("after one Tile: %d resident tiles, want 1", n)
	}
	if v := b.Flatten(c).At(57, 31); v != 4.5 {
		t.Fatalf("written element = %v, want 4.5", v)
	}
	b.Free(c)
	if n := residentTiles(b); n != 0 {
		t.Fatalf("Free left %d tiles", n)
	}
}

func residentTiles(b *BlockMatrix) int {
	n := 0
	for _, t := range b.tiles {
		if t != nil {
			n++
		}
	}
	return n
}
