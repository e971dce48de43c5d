package matrix

import (
	"fmt"
	"sync"

	"repro/internal/exec"
)

// TileEdge is the default tile edge of a BlockMatrix: 256 float64s
// (512 KiB per full tile). The tiled kernels add in an order that does
// not depend on the edge, so it only sets the parallel grain. Sixteen
// tile rows span one 4096-row morsel, so relations materialize into
// tiles on morsel-aligned strides.
const TileEdge = 256

// BlockMatrix is a dense Rows×Cols matrix stored as a grid of
// Edge×Edge tiles (edge tiles are cut to size, never padded). Each
// tile is one arena allocation charged individually, so a huge matrix
// never needs — and never charges — one contiguous buffer. Every tile
// stays in memory until Free.
//
// Tiles are allocated lazily: a tile that Tile never returned reads as
// zeros and occupies no memory. The tile grid is guarded by one mutex,
// so Tile is safe to call from ParallelFor workers (several strip sets
// of a cross product share one output tile).
type BlockMatrix struct {
	Rows, Cols int
	Edge       int
	tr, tc     int

	mu    sync.Mutex
	tiles [][]float64 // row-major grid; nil until first Tile
}

// NewBlock returns a zero Rows×Cols block matrix with the default
// tile edge.
func NewBlock(rows, cols int) *BlockMatrix {
	return NewBlockEdge(rows, cols, TileEdge)
}

// NewBlockEdge returns a zero block matrix with an explicit tile
// edge (tests use small edges to exercise many-tile grids on small
// inputs). The edge must be positive.
func NewBlockEdge(rows, cols, edge int) *BlockMatrix {
	if edge <= 0 {
		panic(fmt.Sprintf("matrix: block edge %d", edge))
	}
	tr := (rows + edge - 1) / edge
	tc := (cols + edge - 1) / edge
	return &BlockMatrix{
		Rows: rows, Cols: cols, Edge: edge,
		tr: tr, tc: tc,
		tiles: make([][]float64, tr*tc),
	}
}

// TileRows and TileCols return the tile-grid shape.
func (b *BlockMatrix) TileRows() int { return b.tr }

// TileCols returns the number of tile columns.
func (b *BlockMatrix) TileCols() int { return b.tc }

// TileDims returns the row and column count of tile (ti, tj); edge
// tiles are smaller than Edge.
func (b *BlockMatrix) TileDims(ti, tj int) (h, w int) {
	h = min(b.Edge, b.Rows-ti*b.Edge)
	w = min(b.Edge, b.Cols-tj*b.Edge)
	return h, w
}

// Tile returns the row-major h×w data of tile (ti, tj), drawing a
// zeroed tile from the context's arena on first use. The slice stays
// valid until Free; callers sharing a tile write disjoint elements.
func (b *BlockMatrix) Tile(c *exec.Ctx, ti, tj int) []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := &b.tiles[ti*b.tc+tj]
	if *t == nil {
		h, w := b.TileDims(ti, tj)
		*t = c.Arena().FloatsZero(h * w)
	}
	return *t
}

// BlockOf copies a flat matrix into a block matrix with the given
// tile edge (≤ 0 selects TileEdge), decomposing the tile copies over
// the context's workers.
func BlockOf(c *exec.Ctx, m *Matrix, edge int) *BlockMatrix {
	if edge <= 0 {
		edge = TileEdge
	}
	b := NewBlockEdge(m.Rows, m.Cols, edge)
	c.ParallelFor(b.tr*b.tc, 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			ti, tj := k/b.tc, k%b.tc
			h, w := b.TileDims(ti, tj)
			data := b.Tile(c, ti, tj)
			for r := 0; r < h; r++ {
				src := m.Data[(ti*edge+r)*m.Cols+tj*edge:]
				copy(data[r*w:(r+1)*w], src[:w])
			}
		}
	})
	return b
}

// Flatten copies the block matrix into one contiguous row-major heap
// matrix.
func (b *BlockMatrix) Flatten(c *exec.Ctx) *Matrix {
	out := New(b.Rows, b.Cols)
	c.ParallelFor(b.tr*b.tc, 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			b.mu.Lock()
			data := b.tiles[k]
			b.mu.Unlock()
			if data == nil {
				continue // never written: stays zero
			}
			ti, tj := k/b.tc, k%b.tc
			h, w := b.TileDims(ti, tj)
			for r := 0; r < h; r++ {
				copy(out.Data[(ti*b.Edge+r)*b.Cols+tj*b.Edge:][:w], data[r*w:(r+1)*w])
			}
		}
	})
	return out
}

// Free returns every tile's buffer to the arena. The matrix must not
// be used afterwards.
func (b *BlockMatrix) Free(c *exec.Ctx) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for k, t := range b.tiles {
		if t != nil {
			c.Arena().FreeFloats(t)
			b.tiles[k] = nil
		}
	}
}
