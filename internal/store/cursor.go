package store

import (
	"repro/internal/exec"
)

// Cursor iterates a segment file's rows sequentially in column
// lockstep, holding exactly one decoded segment per column at a time
// (arena-charged, released as the cursor advances). Spill consumers
// replay their partitions through it.
type Cursor struct {
	c    *exec.Ctx
	r    *Reader
	cols []int
	data []ColData
	seg  int
	off  int // row offset inside the current segment
	segN int
}

// NewCursor opens a cursor over the given columns (nil means all).
func NewCursor(c *exec.Ctx, r *Reader, cols []int) *Cursor {
	if cols == nil {
		cols = make([]int, len(r.cols))
		for k := range cols {
			cols[k] = k
		}
	}
	return &Cursor{c: c, r: r, cols: cols, data: make([]ColData, len(cols)), seg: -1}
}

// Next returns views of up to limit rows across the cursor's columns,
// never crossing a segment boundary. n == 0 signals end of data.
func (cu *Cursor) Next(limit int) ([]ColData, int, error) {
	for {
		if cu.seg >= 0 && cu.off < cu.segN {
			n := cu.segN - cu.off
			if limit > 0 && n > limit {
				n = limit
			}
			out := make([]ColData, len(cu.cols))
			for k := range cu.cols {
				out[k] = cu.data[k].Slice(cu.off, cu.off+n)
			}
			cu.off += n
			return out, n, nil
		}
		if cu.seg+1 >= cu.r.NumSegs() {
			return nil, 0, nil
		}
		cu.releaseSeg()
		cu.seg++
		cu.off = 0
		cu.segN = cu.r.Seg(cu.cols[0], cu.seg).Rows
		for k, col := range cu.cols {
			d, err := cu.r.ReadSeg(cu.c, col, cu.seg)
			if err != nil {
				cu.Close()
				return nil, 0, err
			}
			cu.data[k] = d
		}
	}
}

func (cu *Cursor) releaseSeg() {
	for k := range cu.data {
		if cu.data[k].Len() > 0 || cu.data[k].F != nil || cu.data[k].I != nil || cu.data[k].S != nil {
			ReleaseColData(cu.c, cu.data[k])
			cu.data[k] = ColData{}
		}
	}
}

// Close releases the cursor's resident segment.
func (cu *Cursor) Close() { cu.releaseSeg() }
