package rel

import (
	"fmt"
	"os"
	"sort"

	"repro/internal/bat"
	"repro/internal/exec"
	"repro/internal/store"
)

// Out-of-core grouped aggregation. When the resident group table
// freezes (StreamAgg.groupOf), rows of keys unseen at freeze time are
// staged to aggParts hash-partitioned segment files, each record
// carrying its global row number, its key cells, and its aggregate
// inputs. Finish replays one partition at a time: a key's rows all land
// in one partition in global row order, so per-group chunk partials
// rebuild on the exact bat.SerialCutoff boundaries the in-memory fold
// uses and combine in the same ascending chunk order — bitwise the same
// states. Every resident group was created before every spilled key's
// first row, so appending the recovered groups sorted by first global
// row restores global first-seen order.
const aggParts = 8

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
	n    int
	grow []int64
	keyF [][]float64
	keyI [][]int64
	keyS [][]string
	in   [][]float64
}

func newAggPartBuf(keys, aggs int) *aggPartBuf {
	return &aggPartBuf{
		keyF: make([][]float64, keys),
		keyI: make([][]int64, keys),
		keyS: make([][]string, keys),
		in:   make([][]float64, aggs),
	}
}

func (b *aggPartBuf) reset() {
	b.n = 0
	b.grow = b.grow[:0]
	for k := range b.keyF {
		if b.keyF[k] != nil {
			b.keyF[k] = b.keyF[k][:0]
		}
		if b.keyI[k] != nil {
			b.keyI[k] = b.keyI[k][:0]
		}
		if b.keyS[k] != nil {
			b.keyS[k] = b.keyS[k][:0]
		}
	}
	for k := range b.in {
		if b.in[k] != nil {
			b.in[k] = b.in[k][:0]
		}
	}
}

// spillRow stages row i of the morsel (key hash h) to its partition.
func (a *StreamAgg) spillRow(keys []*bat.Vector, aggIn [][]float64, i int, h uint64) error {
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
	pt := int(h & (aggParts - 1))
	b := st.bufs[pt]
	if b == nil {
		b = newAggPartBuf(len(a.keys), len(a.aggs))
		st.bufs[pt] = b
	}
	b.grow = append(b.grow, a.seen)
	for k := range a.kt {
		switch a.kt[k] {
		case bat.Int:
			b.keyI[k] = append(b.keyI[k], keys[k].Ints()[i])
		case bat.String:
			b.keyS[k] = append(b.keyS[k], keys[k].Strings()[i])
		default:
			b.keyF[k] = append(b.keyF[k], keys[k].Floats()[i])
		}
	}
	for k := range a.aggs {
		if st.hasIn[k] {
			b.in[k] = append(b.in[k], aggIn[k][i])
		}
	}
	b.n++
	st.rows++
	if b.n == bat.MorselSize {
		return a.flushPart(pt)
	}
	return nil
}

// flushPart appends one partition's buffered records to its writer,
// creating the file lazily.
func (a *StreamAgg) flushPart(pt int) error {
	st := a.spill
	b := st.bufs[pt]
	if b == nil || b.n == 0 {
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
		switch a.kt[k] {
		case bat.Int:
			cols = append(cols, store.ColData{I: b.keyI[k]})
		case bat.String:
			cols = append(cols, store.ColData{S: b.keyS[k]})
		default:
			cols = append(cols, store.ColData{F: b.keyF[k]})
		}
	}
	for k := range a.aggs {
		if st.hasIn[k] {
			cols = append(cols, store.ColData{F: b.in[k]})
		}
	}
	if err := st.writers[pt].Append(b.n, cols); err != nil {
		return err
	}
	b.reset()
	return nil
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

	// Recovered groups, keyed like the resident table.
	var (
		rfirst  []int64
		rhash   []uint64
		rstates [][]aggState
		rcur    [][]aggState
		rchunk  []int64
	)
	rkf := make([][]float64, len(a.keys))
	rki := make([][]int64, len(a.keys))
	rks := make([][]string, len(a.keys))
	rby := make(map[uint64][]int)
	equalAt := func(kvecs []*bat.Vector, i, g int) bool {
		for k := range a.kt {
			switch a.kt[k] {
			case bat.Int:
				if kvecs[k].Ints()[i] != rki[k][g] {
					return false
				}
			case bat.String:
				if kvecs[k].Strings()[i] != rks[k][g] {
					return false
				}
			default:
				if canonBits(kvecs[k].Floats()[i]) != canonBits(rkf[k][g]) {
					return false
				}
			}
		}
		return true
	}
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

	for pt := range st.paths {
		if st.paths[pt] == "" {
			continue
		}
		rd, err := store.Open(st.paths[pt])
		if err != nil {
			return err
		}
		cu := store.NewCursor(a.c, rd, nil)
		g0 := len(rstates)
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
			kvecs := make([]*bat.Vector, len(a.keys))
			for k := range a.keys {
				d := cols[1+k]
				switch a.kt[k] {
				case bat.Int:
					kvecs[k] = bat.FromInts(d.I).Vector()
				case bat.String:
					kvecs[k] = bat.FromStrings(d.S).Vector()
				default:
					kvecs[k] = bat.FromFloats(d.F).Vector()
				}
			}
			for j := 0; j < n; j++ {
				h := a.hashKeyRow(kvecs, j)
				chunk := cols[0].I[j] / int64(bat.SerialCutoff)
				g := -1
				for _, cand := range rby[h] {
					if equalAt(kvecs, j, cand) {
						g = cand
						break
					}
				}
				if g < 0 {
					g = len(rstates)
					rby[h] = append(rby[h], g)
					rfirst = append(rfirst, cols[0].I[j])
					rhash = append(rhash, h)
					rstates = append(rstates, newAggStates(len(a.aggs)))
					rcur = append(rcur, newAggStates(len(a.aggs)))
					rchunk = append(rchunk, chunk)
					for k := range a.kt {
						switch a.kt[k] {
						case bat.Int:
							rki[k] = append(rki[k], kvecs[k].Ints()[j])
						case bat.String:
							rks[k] = append(rks[k], kvecs[k].Strings()[j])
						default:
							rkf[k] = append(rkf[k], kvecs[k].Floats()[j])
						}
					}
				} else if rchunk[g] != chunk {
					// Crossing a global chunk boundary: fold the chunk
					// partial in, ascending order as ever.
					for k := range a.aggs {
						rstates[g][k].combine(&rcur[g][k])
					}
					rcur[g] = newAggStates(len(a.aggs))
					rchunk[g] = chunk
				}
				for k := range a.aggs {
					if inCol[k] >= 0 {
						rcur[g][k].accumulate(cols[inCol[k]].F, j)
					} else {
						rcur[g][k].accumulate(nil, 0)
					}
				}
			}
		}
		cu.Close()
		rd.Close()
		for g := g0; g < len(rstates); g++ {
			for k := range a.aggs {
				rstates[g][k].combine(&rcur[g][k])
			}
			rcur[g] = nil
		}
	}

	// Append in global first-seen order (first rows are unique).
	ord := make([]int, len(rstates))
	for g := range ord {
		ord[g] = g
	}
	sort.Slice(ord, func(x, y int) bool { return rfirst[ord[x]] < rfirst[ord[y]] })
	for _, g := range ord {
		a.ghash = append(a.ghash, rhash[g])
		a.states = append(a.states, rstates[g])
		for k := range a.kt {
			switch a.kt[k] {
			case bat.Int:
				a.ki[k] = append(a.ki[k], rki[k][g])
			case bat.String:
				a.ks[k] = append(a.ks[k], rks[k][g])
			default:
				a.kf[k] = append(a.kf[k], rkf[k][g])
			}
		}
	}
	a.spill = nil
	return nil
}

// groupSpillEst is the rough per-input-row footprint the materializing
// GroupBy would take for its chunk partials and merged table, assuming
// the pessimistic half-distinct default.
func groupSpillEst(n, keys, aggs int) int64 {
	return int64(n) * int64(16+8*keys+16*aggs) / 2
}

// groupBySpilled routes a materialized GroupBy through a spilling
// StreamAgg: one serial pass over the input (the accumulator's chunking
// reproduces the parallel fold bitwise), with the tail of the key space
// staged to disk.
func groupBySpilled(c *exec.Ctx, r *Relation, keys []string, aggs []AggSpec, inCols [][]float64) (*Relation, error) {
	kt := make([]bat.Type, len(keys))
	kvecs := make([]*bat.Vector, len(keys))
	for k, name := range keys {
		col, err := r.Col(name)
		if err != nil {
			return nil, err
		}
		kvecs[k] = col.VectorCtx(c)
		kt[k] = kvecs[k].Type()
	}
	sa, err := NewStreamAgg(c, r.Name, keys, kt, aggs)
	if err != nil {
		return nil, err
	}
	if err := sa.Consume(kvecs, inCols, r.NumRows()); err != nil {
		return nil, err
	}
	return sa.Finish()
}
