package rel

import (
	"fmt"
	"os"

	"repro/internal/bat"
	"repro/internal/exec"
	"repro/internal/store"
)

// This file holds the out-of-core equi-join: instead of materializing
// the (probe, build) pair arrays — 16 bytes per match, the dominant
// allocation of a fan-out join — the pairs are staged to per-partition
// segment files and streamed back in canonical order, so the only
// full-size in-memory structures left are the result columns
// themselves. Partitioning by key hash also shrinks the transient build
// table to one partition's share. The pair order on disk is exactly the
// in-memory order (probe rows ascending, matches per probe row in build
// order), so the streamed join is bitwise-identical to HashJoin.

// pairParts is the partition fan-out of the spilled join. Each probe
// row's matches land wholly in one partition (selected by key hash), so
// a front-merge over the partition streams restores global probe order.
const pairParts = 16

// SpilledPairs is the on-disk result of a spilled equi-join pair
// computation: per-partition segment files of (probe, build) row pairs,
// with -1 build rows marking left-outer non-matches.
type SpilledPairs struct {
	paths [pairParts]string
	rows  [pairParts]int64
	total int
	any   bool // any unmatched probe row (left outer)
}

// Total returns the number of pairs (including left-outer non-matches).
func (sp *SpilledPairs) Total() int { return sp.total }

// AnyUnmatched reports whether any left-outer non-match was emitted.
func (sp *SpilledPairs) AnyUnmatched() bool { return sp.any }

// Close removes the staged partition files. Idempotent.
func (sp *SpilledPairs) Close() {
	for pt := range sp.paths {
		if sp.paths[pt] != "" {
			os.Remove(sp.paths[pt])
			sp.paths[pt] = ""
		}
	}
}

var pairSpecs = []store.ColSpec{
	{Name: "l", Kind: store.KInt},
	{Name: "r", Kind: store.KInt},
}

// spilledJoinPairs computes the equi-join pairs of rkc (probe) against
// skc (build) partition by partition, staging the pairs to disk. The
// build table only ever holds one partition's rows, and the pair arrays
// never exist in memory.
func spilledJoinPairs(c *exec.Ctx, rkc, skc *keyCols, leftOuter bool) (*SpilledPairs, error) {
	sh := skc.hashes(c)
	rh := rkc.hashes(c)
	sp := &SpilledPairs{}
	var spilledBytes int64
	parts := int64(0)

	bufL := make([]int64, 0, bat.MorselSize)
	bufR := make([]int64, 0, bat.MorselSize)
	for pt := uint64(0); pt < pairParts; pt++ {
		// Build this partition's table: build rows in ascending order,
		// so per-key match lists replay in build order.
		mp := make(map[uint64][]int, len(sh)/pairParts+1)
		for j, hv := range sh {
			if hv&(pairParts-1) == pt {
				mp[hv] = append(mp[hv], j)
			}
		}
		var w *store.Writer
		flush := func() error {
			if len(bufL) == 0 {
				return nil
			}
			if w == nil {
				path, err := c.Spill().Path("joinpairs")
				if err != nil {
					sp.Close()
					return err
				}
				sp.paths[pt] = path
				w, err = store.Create(path, "joinpairs", pairSpecs)
				if err != nil {
					sp.Close()
					return err
				}
			}
			err := w.Append(len(bufL), []store.ColData{{I: bufL}, {I: bufR}})
			bufL, bufR = bufL[:0], bufR[:0]
			return err
		}
		emit := func(i, j int) error {
			bufL = append(bufL, int64(i))
			bufR = append(bufR, int64(j))
			sp.rows[pt]++
			sp.total++
			if len(bufL) == bat.MorselSize {
				return flush()
			}
			return nil
		}
		for i, hv := range rh {
			if hv&(pairParts-1) != pt {
				continue
			}
			wrote := false
			for _, j := range mp[hv] {
				if rkc.equal(i, skc, j) {
					if err := emit(i, j); err != nil {
						sp.Close()
						return nil, err
					}
					wrote = true
				}
			}
			if !wrote && leftOuter {
				sp.any = true
				if err := emit(i, -1); err != nil {
					sp.Close()
					return nil, err
				}
			}
		}
		if err := flush(); err != nil {
			sp.Close()
			return nil, err
		}
		if w != nil {
			if err := w.Close(); err != nil {
				sp.Close()
				return nil, err
			}
			spilledBytes += w.BytesWritten()
			parts++
		}
	}
	c.NoteSpill(spilledBytes, parts)
	return sp, nil
}

// Each streams the pairs back in canonical join order — probe rows
// ascending, matches per probe row in build order — in blocks of at
// most bat.MorselSize, calling fn with borrowed slices (valid only for
// the duration of the call).
func (sp *SpilledPairs) Each(c *exec.Ctx, fn func(li, ri []int) error) error {
	type partCur struct {
		reader *store.Reader
		cur    *store.Cursor
		l, r   []int64
		pos    int
		done   bool
	}
	var curs []*partCur
	defer func() {
		for _, pc := range curs {
			if pc.cur != nil {
				pc.cur.Close()
			}
			if pc.reader != nil {
				pc.reader.Close()
			}
		}
	}()
	advance := func(pc *partCur) error {
		pc.pos++
		if pc.pos < len(pc.l) {
			return nil
		}
		cols, n, err := pc.cur.Next(bat.MorselSize)
		if err != nil {
			return err
		}
		if n == 0 {
			pc.done = true
			pc.l, pc.r = nil, nil
			return nil
		}
		pc.l, pc.r, pc.pos = cols[0].I, cols[1].I, 0
		return nil
	}
	for pt := 0; pt < pairParts; pt++ {
		if sp.paths[pt] == "" {
			continue
		}
		rd, err := store.Open(sp.paths[pt])
		if err != nil {
			return err
		}
		pc := &partCur{reader: rd, cur: store.NewCursor(c, rd, nil), pos: -1}
		curs = append(curs, pc)
		if err := advance(pc); err != nil {
			return err
		}
	}
	liB := make([]int, 0, bat.MorselSize)
	riB := make([]int, 0, bat.MorselSize)
	emitted := 0
	for emitted < sp.total {
		// The next pair in global order sits at the front holding the
		// smallest probe row; fronts never tie (a probe row's matches
		// live in exactly one partition).
		var best *partCur
		for _, pc := range curs {
			if pc.done {
				continue
			}
			if best == nil || pc.l[pc.pos] < best.l[best.pos] {
				best = pc
			}
		}
		if best == nil {
			return fmt.Errorf("rel: spilled join truncated at %d of %d pairs", emitted, sp.total)
		}
		liB = append(liB, int(best.l[best.pos]))
		riB = append(riB, int(best.r[best.pos]))
		if err := advance(best); err != nil {
			return err
		}
		emitted++
		if len(liB) == bat.MorselSize {
			if err := fn(liB, riB); err != nil {
				return err
			}
			liB, riB = liB[:0], riB[:0]
		}
	}
	if len(liB) > 0 {
		return fn(liB, riB)
	}
	return nil
}

// stagedFill assembles the output columns of a spilled join without
// ever holding all of them in flight at once. One pass over the staged
// pair stream appends every column's gathered values block-wise to a
// shared segment file — the gathered column intermediates spill exactly
// like the pair arrays do — and the arena-backed result columns are
// then materialized from that file one at a time. The in-flight
// footprint is one morsel-sized block buffer per column during the
// pass, and the finished columns plus a single decoded segment during
// assembly. The previous scheme allocated every destination up-front
// and held them through the whole pass; on wide tables the destinations
// — not the pairs — dominate the join's footprint, and a spilled wide
// join could peak above the in-memory path it was supposed to undercut.
//
// rightSide[k] selects which half of each pair indexes cols[k] (false =
// probe row, true = build row); build rows of -1 (left-outer
// non-matches) produce the column type's zero value, matching
// gatherWithNulls. The returned columns are in cols order.
func stagedFill(c *exec.Ctx, sp *SpilledPairs, cols []*bat.BAT, rightSide []bool) ([]*bat.BAT, error) {
	total := sp.Total()
	w := len(cols)

	// Typed source views (densified sparse tails are the only charged
	// ones, handed back right after the staging pass) and one reusable
	// block buffer per column.
	fsrc := make([][]float64, w)
	isrc := make([][]int64, w)
	ssrc := make([][]string, w)
	specs := make([]store.ColSpec, w)
	bufs := make([]store.ColData, w)
	releaseViews := func() {
		for k := range fsrc {
			if fsrc[k] != nil {
				cols[k].ReleaseFloats(c, fsrc[k])
				fsrc[k] = nil
			}
		}
	}
	for k, col := range cols {
		specs[k] = store.ColSpec{Name: fmt.Sprintf("c%d", k)}
		switch col.Type() {
		case bat.Float:
			f, err := col.FloatsCtx(c)
			if err != nil {
				releaseViews()
				return nil, err
			}
			fsrc[k] = f
			specs[k].Kind = store.KFloat
			bufs[k].F = make([]float64, bat.MorselSize)
		case bat.Int:
			isrc[k] = col.VectorCtx(c).Ints()
			specs[k].Kind = store.KInt
			bufs[k].I = make([]int64, bat.MorselSize)
		default:
			ssrc[k] = col.VectorCtx(c).Strings()
			specs[k].Kind = store.KString
			bufs[k].S = make([]string, bat.MorselSize)
		}
	}

	path, err := c.Spill().Path("joincols")
	if err != nil {
		releaseViews()
		return nil, err
	}
	defer os.Remove(path)
	wr, err := store.Create(path, "joincols", specs)
	if err != nil {
		releaseViews()
		return nil, err
	}
	err = sp.Each(c, func(li, ri []int) error {
		n := len(li)
		data := make([]store.ColData, w)
		for k := range cols {
			idx := li
			if rightSide[k] {
				idx = ri
			}
			switch specs[k].Kind {
			case store.KFloat:
				buf := bufs[k].F[:n]
				for t, j := range idx {
					if j >= 0 {
						buf[t] = fsrc[k][j]
					} else {
						buf[t] = 0
					}
				}
				data[k] = store.ColData{F: buf}
			case store.KInt:
				buf := bufs[k].I[:n]
				for t, j := range idx {
					if j >= 0 {
						buf[t] = isrc[k][j]
					} else {
						buf[t] = 0
					}
				}
				data[k] = store.ColData{I: buf}
			default:
				buf := bufs[k].S[:n]
				for t, j := range idx {
					if j >= 0 {
						buf[t] = ssrc[k][j]
					} else {
						buf[t] = ""
					}
				}
				data[k] = store.ColData{S: buf}
			}
		}
		return wr.Append(n, data)
	})
	releaseViews()
	if err != nil {
		wr.Close()
		return nil, err
	}
	if err := wr.Close(); err != nil {
		return nil, err
	}
	c.NoteSpill(wr.BytesWritten(), 1)

	// Assembly: materialize one column at a time from the staged file.
	rd, err := store.Open(path)
	if err != nil {
		return nil, err
	}
	outs := make([]*bat.BAT, w)
	fail := func(err error) ([]*bat.BAT, error) {
		for _, b := range outs {
			if b != nil {
				bat.Release(c, b)
			}
		}
		rd.Close()
		return nil, err
	}
	for k := range cols {
		cur := store.NewCursor(c, rd, []int{k})
		at := 0
		switch specs[k].Kind {
		case store.KFloat:
			dst := c.Arena().Floats(total)
			for {
				data, n, err := cur.Next(0)
				if err != nil {
					c.Arena().FreeFloats(dst)
					return fail(err)
				}
				if n == 0 {
					break
				}
				copy(dst[at:], data[0].F)
				at += n
			}
			outs[k] = bat.FromFloats(dst)
		case store.KInt:
			dst := c.Arena().Int64s(total)
			for {
				data, n, err := cur.Next(0)
				if err != nil {
					c.Arena().FreeInt64s(dst)
					return fail(err)
				}
				if n == 0 {
					break
				}
				copy(dst[at:], data[0].I)
				at += n
			}
			outs[k] = bat.FromInts(dst)
		default:
			dst := c.Arena().Strings(total)
			for {
				data, n, err := cur.Next(0)
				if err != nil {
					c.Arena().FreeStrings(dst)
					return fail(err)
				}
				if n == 0 {
					break
				}
				copy(dst[at:], data[0].S)
				at += n
			}
			outs[k] = bat.FromStrings(dst)
		}
		cur.Close()
		if at != total {
			return fail(fmt.Errorf("rel: staged join column %d truncated at %d of %d rows", k, at, total))
		}
	}
	rd.Close()
	return outs, nil
}

// joinSpillEst is the rough in-memory footprint the materializing join
// would take beyond its inputs: the build table (~48 bytes per build
// row between map headers and row lists) plus the pair arrays and probe
// counts (~24 bytes per probe row before fan-out).
func joinSpillEst(probeRows, buildRows int) int64 {
	return int64(buildRows)*48 + int64(probeRows)*24
}

// JoinSpillEst exposes the estimate to callers that drive their own
// join assembly over EquiJoinPairsSpilled (the SQL executor), so the
// spill decision is made with the same arithmetic everywhere.
func JoinSpillEst(probeRows, buildRows int) int64 {
	return joinSpillEst(probeRows, buildRows)
}

// EquiJoinPairsSpilled is the out-of-core form of EquiJoinPairs: the
// pair arrays are staged to per-partition segment files instead of
// materializing 16 bytes per match in memory. Callers stream them back
// with Each or fill result columns directly with Fill, then Close.
func EquiJoinPairsSpilled(c *exec.Ctx, probeKeys, buildKeys []*bat.BAT, leftOuter bool) (sp *SpilledPairs, err error) {
	defer exec.CatchBudget(&err)
	if len(probeKeys) != len(buildKeys) || len(probeKeys) == 0 {
		return nil, fmt.Errorf("rel: equi-join needs matching non-empty key lists")
	}
	rkc := keyColsOf(c, probeKeys[0].Len(), probeKeys)
	skc := keyColsOf(c, buildKeys[0].Len(), buildKeys)
	sp, err = spilledJoinPairs(c, rkc, skc, leftOuter)
	rkc.release(c)
	skc.release(c)
	return sp, err
}

// Fill gathers result columns through the staged pair stream block by
// block: leftCols index by probe row, rightCols by build row, with -1
// build rows (left-outer non-matches) producing the column type's zero
// value. The gathered column intermediates themselves are staged to a
// segment file and the result columns materialized from it one at a
// time, so neither the full pair index nor all destinations at once
// ever exist in memory. The returned columns are leftCols followed by
// rightCols.
func (sp *SpilledPairs) Fill(c *exec.Ctx, leftCols, rightCols []*bat.BAT) ([]*bat.BAT, error) {
	cols := make([]*bat.BAT, 0, len(leftCols)+len(rightCols))
	cols = append(cols, leftCols...)
	cols = append(cols, rightCols...)
	sides := make([]bool, len(cols)) // true = right side (uses ri)
	for k := len(leftCols); k < len(cols); k++ {
		sides[k] = true
	}
	return stagedFill(c, sp, cols, sides)
}

// hashJoinSpilled is HashJoin's out-of-core path: pairs staged to
// disk, gathered column intermediates staged likewise, result columns
// materialized one at a time. The result is bitwise-identical to the
// in-memory join.
func hashJoinSpilled(c *exec.Ctx, r, s *Relation, rkc, skc *keyCols, sAttrs []string, jt JoinType) (*Relation, error) {
	sp, err := spilledJoinPairs(c, rkc, skc, jt == Left)
	if err != nil {
		return nil, err
	}
	defer sp.Close()
	rkc.release(c)
	skc.release(c)

	schema := make(Schema, 0, len(r.Schema)+len(sAttrs))
	srcCols := make([]*bat.BAT, 0, cap(schema))
	sides := make([]bool, 0, cap(schema)) // true = right side (uses ri)
	for j, a := range r.Schema {
		schema = append(schema, a)
		srcCols = append(srcCols, r.Cols[j])
		sides = append(sides, false)
	}
	for _, name := range sAttrs {
		j := s.Schema.Index(name)
		schema = append(schema, s.Schema[j])
		srcCols = append(srcCols, s.Cols[j])
		sides = append(sides, true)
	}
	cols, err := stagedFill(c, sp, srcCols, sides)
	if err != nil {
		return nil, err
	}
	return New(r.Name, schema, cols)
}
