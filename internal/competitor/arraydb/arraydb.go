// Package arraydb simulates SciDB, the paper's §8.4 array-database
// competitor. Arrays are stored as coordinate-chunked two-dimensional
// objects. The property that decides Table 7 is reproduced faithfully: an
// elementwise operation over two arrays must first align their cells by
// coordinates — SciDB's array join — before any arithmetic happens,
// whereas RMA+ adds entire BATs positionally. The alignment is a real
// per-cell coordinate merge, not a constant factor.
package arraydb

import "fmt"

// Array is a chunked 2-D array. Cells are stored per chunk as explicit
// (row, col, value) coordinates in row-major order, SciDB's coordinate
// representation for its chunk payloads.
type Array struct {
	Rows, Cols int
	ChunkRows  int
	chunks     []*chunk // one per chunk-row stripe
}

type chunk struct {
	rowLo int
	rows  []int32
	cols  []int32
	vals  []float64
}

// DefaultChunkRows is the stripe height used when building arrays.
const DefaultChunkRows = 4096

// FromColumns builds an array from column-major data.
func FromColumns(cols [][]float64, chunkRows int) *Array {
	if chunkRows <= 0 {
		chunkRows = DefaultChunkRows
	}
	nCols := len(cols)
	nRows := 0
	if nCols > 0 {
		nRows = len(cols[0])
	}
	a := &Array{Rows: nRows, Cols: nCols, ChunkRows: chunkRows}
	for lo := 0; lo < nRows; lo += chunkRows {
		hi := lo + chunkRows
		if hi > nRows {
			hi = nRows
		}
		ch := &chunk{rowLo: lo}
		for i := lo; i < hi; i++ {
			for j := 0; j < nCols; j++ {
				ch.rows = append(ch.rows, int32(i))
				ch.cols = append(ch.cols, int32(j))
				ch.vals = append(ch.vals, cols[j][i])
			}
		}
		a.chunks = append(a.chunks, ch)
	}
	return a
}

// Add performs AQL's elementwise addition: an array join aligning the
// cells of both operands by (row, col) coordinates, then adding. The
// coordinate comparison per cell is the cost RMA+ avoids (Table 7).
func Add(a, b *Array) (*Array, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols || len(a.chunks) != len(b.chunks) {
		return nil, fmt.Errorf("arraydb: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := &Array{Rows: a.Rows, Cols: a.Cols, ChunkRows: a.ChunkRows}
	for c := range a.chunks {
		ca, cb := a.chunks[c], b.chunks[c]
		oc := &chunk{
			rowLo: ca.rowLo,
			rows:  make([]int32, 0, len(ca.rows)),
			cols:  make([]int32, 0, len(ca.cols)),
			vals:  make([]float64, 0, len(ca.vals)),
		}
		// Coordinate merge join over the two cell streams.
		i, j := 0, 0
		for i < len(ca.vals) && j < len(cb.vals) {
			cmp := compareCoord(ca.rows[i], ca.cols[i], cb.rows[j], cb.cols[j])
			switch {
			case cmp == 0:
				oc.rows = append(oc.rows, ca.rows[i])
				oc.cols = append(oc.cols, ca.cols[i])
				oc.vals = append(oc.vals, ca.vals[i]+cb.vals[j])
				i++
				j++
			case cmp < 0:
				oc.rows = append(oc.rows, ca.rows[i])
				oc.cols = append(oc.cols, ca.cols[i])
				oc.vals = append(oc.vals, ca.vals[i])
				i++
			default:
				oc.rows = append(oc.rows, cb.rows[j])
				oc.cols = append(oc.cols, cb.cols[j])
				oc.vals = append(oc.vals, cb.vals[j])
				j++
			}
		}
		for ; i < len(ca.vals); i++ {
			oc.rows = append(oc.rows, ca.rows[i])
			oc.cols = append(oc.cols, ca.cols[i])
			oc.vals = append(oc.vals, ca.vals[i])
		}
		for ; j < len(cb.vals); j++ {
			oc.rows = append(oc.rows, cb.rows[j])
			oc.cols = append(oc.cols, cb.cols[j])
			oc.vals = append(oc.vals, cb.vals[j])
		}
		out.chunks = append(out.chunks, oc)
	}
	return out, nil
}

func compareCoord(r1, c1, r2, c2 int32) int {
	switch {
	case r1 < r2:
		return -1
	case r1 > r2:
		return 1
	case c1 < c2:
		return -1
	case c1 > c2:
		return 1
	}
	return 0
}

// Filter implements the selection that follows the addition in the
// Table 7 workload: it scans all cells and keeps the matching ones.
func (a *Array) Filter(pred func(v float64) bool) *Array {
	out := &Array{Rows: a.Rows, Cols: a.Cols, ChunkRows: a.ChunkRows}
	for _, ch := range a.chunks {
		oc := &chunk{rowLo: ch.rowLo}
		for k, v := range ch.vals {
			if pred(v) {
				oc.rows = append(oc.rows, ch.rows[k])
				oc.cols = append(oc.cols, ch.cols[k])
				oc.vals = append(oc.vals, v)
			}
		}
		out.chunks = append(out.chunks, oc)
	}
	return out
}

// Get returns the value at (i, j), zero when absent.
func (a *Array) Get(i, j int) float64 {
	for _, ch := range a.chunks {
		if i < ch.rowLo || (len(ch.rows) > 0 && i > int(ch.rows[len(ch.rows)-1])) {
			continue
		}
		for k := range ch.vals {
			if int(ch.rows[k]) == i && int(ch.cols[k]) == j {
				return ch.vals[k]
			}
		}
	}
	return 0
}
