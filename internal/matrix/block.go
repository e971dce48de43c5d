package matrix

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sync"

	"repro/internal/exec"
)

// TileEdge is the default tile edge of a BlockMatrix: 256 float64s
// (512 KiB per full tile). The tiled kernels add in an order that does
// not depend on the edge, so it only sets the parallel grain and the
// unit of spill. Sixteen tile rows span one 4096-row morsel, so
// relations materialize into tiles on morsel-aligned strides.
const TileEdge = 256

// BlockMatrix is a dense Rows×Cols matrix stored as a grid of
// Edge×Edge tiles (edge tiles are cut to size, never padded). Each
// tile is one arena allocation charged individually, so a huge matrix
// never needs — and never charges — one contiguous buffer, and a tile
// is the unit of out-of-core residency: with EnableSpill, tiles past
// the residency cap are staged to the statement's exec.Spill scratch
// directory and re-loaded (re-charged) on demand.
//
// Tiles are allocated lazily: a tile that was never pinned for
// writing reads as zeros and occupies no memory. All tile state is
// guarded by one mutex; Pin/Unpin are safe to call from ParallelFor
// workers. The residency cap is advisory — a Pin never fails for lack
// of an evictable tile, it just overshoots the cap until pins drop.
type BlockMatrix struct {
	Rows, Cols int
	Edge       int
	tr, tc     int

	mu          sync.Mutex
	tiles       []blockTile
	sp          *exec.Spill
	maxResident int
	resident    int
	ioBuf       []byte // scratch for tile (de)serialization, reused under mu
}

type blockTile struct {
	data  []float64 // nil when not resident
	path  string    // on-disk copy, "" until first eviction
	pins  int
	dirty bool // resident copy newer than the on-disk copy
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
		tiles:       make([]blockTile, tr*tc),
		maxResident: tr * tc,
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

// EnableSpill bounds the matrix to at most maxResident resident tiles
// (clamped to ≥ 1), staging evicted tiles through the spill manager's
// scratch directory. Spilled bytes and partition counts are reported
// through Ctx.NoteSpill at eviction time.
func (b *BlockMatrix) EnableSpill(sp *exec.Spill, maxResident int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sp = sp
	b.maxResident = max(maxResident, 1)
}

// SpillConfig returns the spill manager and residency cap, so derived
// matrices (kernel outputs) can inherit the out-of-core regime.
func (b *BlockMatrix) SpillConfig() (*exec.Spill, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sp, b.maxResident
}

// Pin loads tile (ti, tj) for reading and writing and returns its
// row-major h×w data. The tile stays resident until the matching
// Unpin. Pinning may evict unpinned tiles of this matrix to honor the
// residency cap.
func (b *BlockMatrix) Pin(c *exec.Ctx, ti, tj int) ([]float64, error) {
	return b.pin(c, ti, tj, true)
}

// PinRead is Pin for read-only access: the tile is not marked dirty,
// so a later eviction can drop it without rewriting its file.
func (b *BlockMatrix) PinRead(c *exec.Ctx, ti, tj int) ([]float64, error) {
	return b.pin(c, ti, tj, false)
}

func (b *BlockMatrix) pin(c *exec.Ctx, ti, tj int, write bool) ([]float64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := &b.tiles[ti*b.tc+tj]
	if t.data == nil {
		h, w := b.TileDims(ti, tj)
		if err := b.evictLocked(c, b.maxResident-1); err != nil {
			return nil, err
		}
		t.data = c.Arena().FloatsZero(h * w)
		b.resident++
		if t.path != "" {
			if err := b.readTileLocked(t); err != nil {
				c.Arena().FreeFloats(t.data)
				t.data = nil
				b.resident--
				return nil, err
			}
		}
	}
	t.pins++
	if write {
		t.dirty = true
	}
	return t.data, nil
}

// Unpin releases one pin on tile (ti, tj).
func (b *BlockMatrix) Unpin(ti, tj int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := &b.tiles[ti*b.tc+tj]
	if t.pins <= 0 {
		panic("matrix: unpin of unpinned tile")
	}
	t.pins--
}

// evictLocked stages unpinned tiles to disk until at most target
// tiles are resident (or nothing more is evictable). No-op without a
// spill manager — unbounded residency is the in-memory regime.
func (b *BlockMatrix) evictLocked(c *exec.Ctx, target int) error {
	if b.sp == nil {
		return nil
	}
	for k := range b.tiles {
		if b.resident <= target {
			return nil
		}
		t := &b.tiles[k]
		if t.data == nil || t.pins > 0 {
			continue
		}
		if t.dirty || t.path == "" {
			if t.path == "" {
				p, err := b.sp.Path("tile")
				if err != nil {
					return err
				}
				t.path = p
				c.NoteSpill(int64(len(t.data)*8), 1)
			} else {
				c.NoteSpill(int64(len(t.data)*8), 0)
			}
			if err := b.writeTileLocked(t); err != nil {
				return err
			}
			t.dirty = false
		}
		c.Arena().FreeFloats(t.data)
		t.data = nil
		b.resident--
	}
	return nil
}

func (b *BlockMatrix) writeTileLocked(t *blockTile) error {
	n := len(t.data) * 8
	if cap(b.ioBuf) < n {
		b.ioBuf = make([]byte, n)
	}
	buf := b.ioBuf[:n]
	for i, v := range t.data {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	if err := os.WriteFile(t.path, buf, 0o600); err != nil {
		return fmt.Errorf("matrix: spill tile: %w", err)
	}
	return nil
}

func (b *BlockMatrix) readTileLocked(t *blockTile) error {
	buf, err := os.ReadFile(t.path)
	if err != nil {
		return fmt.Errorf("matrix: load tile: %w", err)
	}
	if len(buf) != len(t.data)*8 {
		return fmt.Errorf("matrix: tile %s: %d bytes, want %d", t.path, len(buf), len(t.data)*8)
	}
	for i := range t.data {
		t.data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return nil
}

// At reads element (i, j), paying a pin/unpin round trip; fine for
// tests and spot checks, wrong for kernels (pin the tile instead).
// A tile that was never written reads as zero without materializing.
func (b *BlockMatrix) At(c *exec.Ctx, i, j int) (float64, error) {
	ti, tj := i/b.Edge, j/b.Edge
	b.mu.Lock()
	t := &b.tiles[ti*b.tc+tj]
	if t.data == nil && t.path == "" {
		b.mu.Unlock()
		return 0, nil
	}
	b.mu.Unlock()
	_, w := b.TileDims(ti, tj)
	data, err := b.PinRead(c, ti, tj)
	if err != nil {
		return 0, err
	}
	v := data[(i-ti*b.Edge)*w+(j-tj*b.Edge)]
	b.Unpin(ti, tj)
	return v, nil
}

// Set writes element (i, j) through a pin/unpin round trip.
func (b *BlockMatrix) Set(c *exec.Ctx, i, j int, v float64) error {
	ti, tj := i/b.Edge, j/b.Edge
	_, w := b.TileDims(ti, tj)
	data, err := b.Pin(c, ti, tj)
	if err != nil {
		return err
	}
	data[(i-ti*b.Edge)*w+(j-tj*b.Edge)] = v
	b.Unpin(ti, tj)
	return nil
}

// BlockOf copies a flat matrix into a block matrix with the given
// tile edge (≤ 0 selects TileEdge), decomposing the tile copies over
// the context's workers.
func BlockOf(c *exec.Ctx, m *Matrix, edge int) (*BlockMatrix, error) {
	if edge <= 0 {
		edge = TileEdge
	}
	b := NewBlockEdge(m.Rows, m.Cols, edge)
	var firstErr error
	var errMu sync.Mutex
	c.ParallelFor(b.tr*b.tc, 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			ti, tj := k/b.tc, k%b.tc
			h, w := b.TileDims(ti, tj)
			data, err := b.Pin(c, ti, tj)
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				return
			}
			for r := 0; r < h; r++ {
				src := m.Data[(ti*edge+r)*m.Cols+tj*edge:]
				copy(data[r*w:(r+1)*w], src[:w])
			}
			b.Unpin(ti, tj)
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return b, nil
}

// Flatten copies the block matrix into one contiguous row-major heap
// matrix.
func (b *BlockMatrix) Flatten(c *exec.Ctx) (*Matrix, error) {
	out := New(b.Rows, b.Cols)
	var firstErr error
	var errMu sync.Mutex
	c.ParallelFor(b.tr*b.tc, 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			ti, tj := k/b.tc, k%b.tc
			b.mu.Lock()
			virgin := b.tiles[k].data == nil && b.tiles[k].path == ""
			b.mu.Unlock()
			if virgin {
				continue // never written: stays zero
			}
			h, w := b.TileDims(ti, tj)
			data, err := b.PinRead(c, ti, tj)
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				return
			}
			for r := 0; r < h; r++ {
				copy(out.Data[(ti*b.Edge+r)*b.Cols+tj*b.Edge:][:w], data[r*w:(r+1)*w])
			}
			b.Unpin(ti, tj)
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// Free returns every resident tile's buffer to the arena and deletes
// staged tile files. The matrix must not be used afterwards.
func (b *BlockMatrix) Free(c *exec.Ctx) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for k := range b.tiles {
		t := &b.tiles[k]
		if t.data != nil {
			c.Arena().FreeFloats(t.data)
			t.data = nil
			b.resident--
		}
		if t.path != "" {
			os.Remove(t.path)
			t.path = ""
		}
	}
}
