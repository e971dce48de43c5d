package rel

import (
	"fmt"
	"os"

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

// aggSpillState is the staging side of a frozen StreamAgg. The
// partition writers buffer their records up to a segment.
type aggSpillState struct {
	hasIn   []bool          // which aggregates carry an input column
	specs   []store.ColSpec // g, then key cells, then inputs
	paths   [aggParts]string
	writers [aggParts]*store.Writer
	rows    [aggParts][]int // the current block's rows, by partition
}

// spillBlock stages the rows of the current block (rows lo.. of the
// morsel) whose group is gs[j] < 0, each to the partition its key hash
// picks.
func (a *StreamAgg) spillBlock(aggIn [][]float64, lo int, gs []int) error {
	st := a.spill
	if st == nil {
		st = &aggSpillState{hasIn: make([]bool, len(a.aggs))}
		st.specs = append(st.specs, store.ColSpec{Name: "g", Kind: store.KInt})
		for k, t := range a.kt {
			kind := map[bat.Type]store.ColKind{bat.Int: store.KInt, bat.String: store.KString}[t] // else KFloat
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
	for pt := range st.rows {
		st.rows[pt] = st.rows[pt][:0]
	}
	for j, g := range gs {
		if g < 0 {
			// The partition is the hash's top bits; the group table's
			// buckets use the low ones.
			pt := a.mh[j] >> (64 - aggPartBits)
			st.rows[pt] = append(st.rows[pt], lo+j)
		}
	}
	for pt, rows := range st.rows {
		if len(rows) == 0 {
			continue
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
		g := make([]int64, len(rows))
		for x, i := range rows {
			g[x] = a.seen + int64(i-lo)
		}
		cols := []store.ColData{{I: g}}
		for k := range a.kt {
			cols = append(cols, store.ColData{F: pick(a.mk.f[k], rows), I: pick(a.mk.i[k], rows), S: pick(a.mk.s[k], rows)})
		}
		for k := range a.aggs {
			if st.hasIn[k] {
				cols = append(cols, store.ColData{F: pick(aggIn[k], rows)})
			}
		}
		if err := st.writers[pt].Append(len(rows), cols); err != nil {
			return err
		}
	}
	return nil
}

// pick returns the elements of s at rows, or nil for a nil s.
func pick[T any](s []T, rows []int) []T {
	if s == nil {
		return nil
	}
	out := make([]T, len(rows))
	for x, i := range rows {
		out[x] = s[i]
	}
	return out
}

// replaySpilled folds the staged partitions back into the group table
// (see the file comment for why the result is bitwise-identical).
func (a *StreamAgg) replaySpilled() error {
	st := a.spill
	var bytes, parts int64
	for _, w := range st.writers {
		if w != nil {
			if err := w.Close(); err != nil {
				return err
			}
			bytes += w.BytesWritten()
			parts++
		}
	}
	a.c.NoteSpill(bytes, parts)
	defer func() {
		for _, p := range st.paths {
			if p != "" {
				os.Remove(p)
			}
		}
	}()

	// Recovered groups fold in an accumulator of their own, without a
	// spill manager. Its extra last aggregate takes the minimum of the
	// rows' global numbers: each group's first row.
	first := len(a.aggs)
	rt := newStreamAgg(a.c.WithSpill(nil), "", a.keys, a.kt, append(a.aggs[:first:first], AggSpec{Func: Min}))
	defer rt.free()
	kc, keys := keyColsOfTypes(a.kt), make([]*bat.Vector, len(a.kt))
	in := make([][]float64, first+1)
	for _, path := range st.paths {
		if path == "" {
			continue
		}
		rd, err := store.Open(path)
		if err != nil {
			return err
		}
		cu := store.NewCursor(a.c, rd, nil)
		for err == nil {
			var cols []store.ColData
			var n int
			if cols, n, err = cu.Next(bat.MorselSize); err != nil || n == 0 {
				break
			}
			kc.n = n
			for k := range a.kt {
				d := cols[1+k]
				kc.f[k], kc.i[k], kc.s[k] = d.F, d.I, d.S
				keys[k] = kc.vector(k)
			}
			ci := 1 + len(a.kt)
			for k, has := range st.hasIn {
				if in[k] = nil; has {
					in[k], ci = cols[ci].F, ci+1
				}
			}
			in[first] = make([]float64, n)
			for j, g := range cols[0].I {
				in[first][j] = float64(g)
			}
			err = rt.Consume(keys, in, n)
		}
		cu.Close()
		rd.Close()
		if err != nil {
			return err
		}
	}

	// Append in global first-seen order (first rows are unique).
	ord := bat.SortKeys(a.c, []*bat.Vector{bat.NewFloatVector(rt.val[first][:rt.gk.n])}, []bool{false})
	defer a.c.Arena().FreeInts(ord)
	for _, g := range ord {
		d := a.newGroup()
		a.gk.set(d, &rt.gk, g)
		for k := range a.aggs {
			if a.cnt[k] != nil {
				a.cnt[k][d] = rt.cnt[k][g]
			}
			if a.val[k] != nil {
				a.val[k][d] = rt.val[k][g]
			}
		}
	}
	a.spill = nil
	return nil
}
