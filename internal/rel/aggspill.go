package rel

import (
	"fmt"
	"os"
	"sort"

	"repro/internal/bat"
	"repro/internal/store"
)

// Out-of-core grouped aggregation. When the resident group table
// freezes (StreamAgg.groupOf), rows of keys unseen at freeze time are
// staged to aggParts hash-partitioned segment files, each record
// carrying its global row number, its key cells, and its aggregate
// inputs. A group is therefore either resident at freeze time, and
// folds all its rows in memory, or staged in full. Finish replays one
// partition at a time; a key's rows all land in one partition in global
// row order, so every group folds exactly its own rows in row order
// either way — bitwise the same states. Every resident group was
// created before every spilled key's first row, so appending the
// recovered groups sorted by first global row restores global
// first-seen order.
const (
	aggPartBits = 3
	aggParts    = 1 << aggPartBits
)

// aggSpillState is the staging side of a frozen StreamAgg.
type aggSpillState struct {
	hasIn   []bool          // which aggregates carry an input column
	specs   []store.ColSpec // g, then key cells, then inputs
	paths   [aggParts]string
	writers [aggParts]*store.Writer
	bufs    [aggParts]*aggPartBuf
	bytes   int64
	rows    int64
}

// aggPartBuf buffers one partition's pending records.
type aggPartBuf struct {
	grow []int64
	keys keyCols
	in   [][]float64
}

// spillRow stages row i of the current morsel (key hash h) to its
// partition.
func (a *StreamAgg) spillRow(aggIn [][]float64, i int, h uint64) error {
	if a.spill == nil {
		st := &aggSpillState{hasIn: make([]bool, len(a.aggs))}
		st.specs = append(st.specs, store.ColSpec{Name: "g", Kind: store.KInt})
		for k := range a.keys {
			kind := store.KFloat
			switch a.kt[k] {
			case bat.Int:
				kind = store.KInt
			case bat.String:
				kind = store.KString
			}
			st.specs = append(st.specs, store.ColSpec{Name: fmt.Sprintf("k%d", k), Kind: kind})
		}
		for k := range a.aggs {
			if aggIn[k] != nil {
				st.hasIn[k] = true
				st.specs = append(st.specs, store.ColSpec{Name: fmt.Sprintf("a%d", k), Kind: store.KFloat})
			}
		}
		a.spill = st
	}
	st := a.spill
	// The partition is the hash's top bits; the group table's buckets
	// use the low ones.
	pt := int(h >> (64 - aggPartBits))
	b := st.bufs[pt]
	if b == nil {
		b = &aggPartBuf{keys: keyColsOfTypes(a.kt), in: make([][]float64, len(a.aggs))}
		st.bufs[pt] = b
	}
	b.grow = append(b.grow, a.seen)
	b.keys.appendRow(&a.mk, i)
	for k := range a.aggs {
		if st.hasIn[k] {
			b.in[k] = append(b.in[k], aggIn[k][i])
		}
	}
	st.rows++
	if b.keys.n == bat.MorselSize {
		return a.flushPart(pt)
	}
	return nil
}

// flushPart appends one partition's buffered records to its writer,
// creating the file lazily.
func (a *StreamAgg) flushPart(pt int) error {
	st := a.spill
	b := st.bufs[pt]
	if b == nil || b.keys.n == 0 {
		return nil
	}
	if st.writers[pt] == nil {
		path, err := a.c.Spill().Path("aggpart")
		if err != nil {
			return err
		}
		w, err := store.Create(path, "aggpart", st.specs)
		if err != nil {
			return err
		}
		st.paths[pt], st.writers[pt] = path, w
	}
	cols := make([]store.ColData, 0, len(st.specs))
	cols = append(cols, store.ColData{I: b.grow})
	for k := range a.kt {
		cols = append(cols, store.ColData{F: b.keys.f[k], I: b.keys.i[k], S: b.keys.s[k]})
	}
	for k := range a.aggs {
		if st.hasIn[k] {
			cols = append(cols, store.ColData{F: b.in[k]})
		}
	}
	st.bufs[pt] = nil
	return st.writers[pt].Append(b.keys.n, cols)
}

// replaySpilled folds the staged partitions back into the group table
// (see the file comment for why the result is bitwise-identical).
func (a *StreamAgg) replaySpilled() error {
	st := a.spill
	var parts int64
	for pt := range st.writers {
		if err := a.flushPart(pt); err != nil {
			return err
		}
		if st.writers[pt] != nil {
			if err := st.writers[pt].Close(); err != nil {
				return err
			}
			st.bytes += st.writers[pt].BytesWritten()
			parts++
		}
	}
	a.c.NoteSpill(st.bytes, parts)
	defer func() {
		for _, p := range st.paths {
			if p != "" {
				os.Remove(p)
			}
		}
	}()

	// Recovered groups, in a group table of their own.
	var (
		rfirst  []int64
		rstates [][]aggState
	)
	rt := newKeyTable(a.c, a.kt)
	defer rt.index.release(a.c)
	inCol := make([]int, len(a.aggs))
	ci := 1 + len(a.keys)
	for k := range a.aggs {
		if st.hasIn[k] {
			inCol[k] = ci
			ci++
		} else {
			inCol[k] = -1
		}
	}

	kc := keyColsOfTypes(a.kt)
	var hs []uint64
	for pt := range st.paths {
		if st.paths[pt] == "" {
			continue
		}
		rd, err := store.Open(st.paths[pt])
		if err != nil {
			return err
		}
		cu := store.NewCursor(a.c, rd, nil)
		for {
			cols, n, err := cu.Next(bat.MorselSize)
			if err != nil {
				cu.Close()
				rd.Close()
				return err
			}
			if n == 0 {
				break
			}
			kc.n = n
			for k := range a.kt {
				d := cols[1+k]
				kc.f[k], kc.i[k], kc.s[k] = d.F, d.I, d.S
			}
			if cap(hs) < n {
				hs = make([]uint64, n)
			}
			kc.hashInto(hs[:n], 0)
			for j := 0; j < n; j++ {
				h := hs[j]
				g := rt.find(h, &kc, j)
				if g < 0 {
					g = rt.add(a.c, h, &kc, j)
					rfirst = append(rfirst, cols[0].I[j])
					rstates = append(rstates, newAggStates(len(a.aggs)))
				}
				st := rstates[g]
				for k := range st {
					if inCol[k] >= 0 {
						st[k].accumulate(cols[inCol[k]].F, j)
					} else {
						st[k].accumulate(nil, 0)
					}
				}
			}
		}
		cu.Close()
		rd.Close()
	}

	// Append in global first-seen order (first rows are unique).
	ord := make([]int, len(rstates))
	for g := range ord {
		ord[g] = g
	}
	sort.Slice(ord, func(x, y int) bool { return rfirst[ord[x]] < rfirst[ord[y]] })
	for _, g := range ord {
		a.states = append(a.states, rstates[g])
		a.table.keys.appendRow(&rt.keys, g)
	}
	a.spill = nil
	return nil
}
