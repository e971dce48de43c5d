package rel

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/exec"
)

// This file holds the one join. JoinBuild indexes the build side once;
// a probe input then runs two passes against it. The count pass records
// every probe row's first match and its output offset; the scatter pass
// writes the (probe, build) row pairs from there, at most a
// caller-sized buffer at a time, and resumes where it stopped. HashJoin
// runs both passes over a whole relation and gathers each block of
// pairs straight into the result columns at its offset; the SQL layer's
// streamed join runs them over one probe morsel at a time. No pair list
// of a whole join ever exists — MonetDB's leftfetchjoin (b↓G in the
// paper's Algorithm 1) fetching by position. Pairs come in one
// canonical order at any worker budget and any morsel slicing: probe
// rows in probe order, matches per probe row in build order. With no
// key columns every row matches every row, so the same two passes
// enumerate the cross product in that order — a product is the join on
// the empty attribute set.

// JoinType selects the join semantics.
type JoinType uint8

const (
	// Inner keeps matching pairs only.
	Inner JoinType = iota
	// Left keeps all left rows; unmatched right attributes get zero values.
	Left
)

// JoinBuild is the build side of the join: the build rows indexed by key
// hash in the flat hash index, ascending along every chain, so a probe
// visits its matches in build order. It is built once and probed by any
// number of inputs; probing is stateless per row, so the pairs of
// consecutive morsels concatenate to the pairs of the whole input.
type JoinBuild struct {
	skc   *keyCols
	h     []uint64 // build key hashes, checked before key equality
	table *hashIndex
}

// NewJoinBuild indexes n build rows by their key columns. Without key
// columns every row hashes alike and sits on one chain in build order,
// so every probe row matches every build row: the cross product. The
// index is charged to the context's arena until Release.
func NewJoinBuild(c *exec.Ctx, n int, buildKeys []*bat.BAT) (jb *JoinBuild, err error) {
	defer exec.CatchBudget(&err)
	skc := keyColsOf(c, n, buildKeys)
	h := skc.hashes(c)
	return &JoinBuild{skc: skc, h: h, table: indexRows(c, h)}, nil
}

// Release hands back the build side's hash index and densified key
// buffers. The JoinBuild must not be probed afterwards. Nil-safe.
func (b *JoinBuild) Release(c *exec.Ctx) {
	if b == nil {
		return
	}
	b.skc.release(c)
	b.table.release(c)
	b.table, b.h = nil, nil
}

// JoinProbe is a probe input after the count pass: its key views and
// hashes, and per row the output position of its first pair (off) and
// its first match (first, -1 for none). An unmatched row owns one pair
// (i, -1) in a left-outer join and none otherwise.
type JoinProbe struct {
	b          *JoinBuild
	kc         *keyCols
	h          []uint64
	off, first []int
	total      int
	leftOuter  bool
}

// Release hands back the probe's arena buffers. Nil-safe on every
// field, so it also cleans up a count pass a budget panic cut short.
func (p *JoinProbe) Release(c *exec.Ctx) {
	if p == nil {
		return
	}
	p.kc.release(c)
	c.Arena().FreeInts(p.off)
	c.Arena().FreeInts(p.first)
	p.kc, p.off, p.first = nil, nil, nil
}

// Count is the first probe pass over n probe rows, whose key columns
// pair with the build keys: it records each row's match count, in
// parallel, and its first match; then a serial prefix sum turns the
// counts into output offsets. leftOuter gives an unmatched row the pair
// (i, -1). The probe's buffers come from the context's arena; the
// caller hands them back with Release.
func (b *JoinBuild) Count(c *exec.Ctx, n int, probeKeys []*bat.BAT, leftOuter bool) (p *JoinProbe, err error) {
	if len(probeKeys) != len(b.skc.f) {
		return nil, fmt.Errorf("rel: join probe with %d keys against %d build keys", len(probeKeys), len(b.skc.f))
	}
	p = &JoinProbe{b: b, leftOuter: leftOuter}
	defer func() {
		if err != nil {
			p.Release(c)
			p = nil
		}
	}()
	defer exec.CatchBudget(&err)
	// Buffers land in p as they are drawn, so Release frees them however
	// the pass ends.
	p.kc = keyColsOf(c, n, probeKeys)
	p.h = p.kc.hashes(c)
	p.off = c.Arena().Ints(n)
	p.first = c.Arena().Ints(n)
	// Locals, not fields of p, keep the loops' slices in registers.
	kc, hs, off, first, bh, next := p.kc, p.h, p.off, p.first, b.h, b.table.next
	c.ParallelFor(n, bat.SerialCutoff, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cnt, fst := 0, -1
			h := hs[i]
			for j := b.table.head[h&b.table.mask]; j >= 0; j = next[j] {
				if bh[j] == h && kc.equal(i, b.skc, j) {
					if cnt == 0 {
						fst = j
					}
					cnt++
				}
			}
			off[i], first[i] = cnt, fst
		}
	})
	total := 0
	for i, cnt := range off {
		if cnt == 0 && leftOuter {
			cnt = 1
		}
		off[i] = total
		total += cnt
	}
	p.total = total
	return p, nil
}

// PairCursor is a position in a probe's pair sequence: probe row i,
// output position pos, and j, the build row of the pair before pos when
// that pair belongs to row i. The zero PairCursor is the first pair.
type PairCursor struct{ i, pos, j int }

// Scatter is the second probe pass: it writes the pairs from cur onward
// into li and ri — at most len(li) of them, none of a probe row at or
// beyond hi — advances cur past them, and returns how many it wrote; it
// writes fewer than len(li) only once it reaches hi. Every row's pairs
// go to its recorded offset, so rows do not depend on each other; a
// row's first pair comes from the count pass, so a single match is never
// probed again, and a chain walk stops at the row's last match.
func (p *JoinProbe) Scatter(cur *PairCursor, hi int, li, ri []int) int {
	b := p.b
	off, first, hs, kc, leftOuter := p.off, p.first, p.h, p.kc, p.leftOuter
	bh, next := b.h, b.table.next
	base, lim := cur.pos, cur.pos+len(li)
	for i := cur.i; i < hi; i++ {
		pos, j := off[i], first[i]
		if pos < base {
			// Only the first row can start before the window: it was
			// cut mid-chain, so resume it after its last pair.
			pos, j = base, cur.j
		} else {
			if j < 0 && !leftOuter {
				continue
			}
			if pos == lim {
				*cur = PairCursor{i: i, pos: lim}
				return len(li)
			}
			li[pos-base], ri[pos-base] = i, j
			pos++
			if j < 0 {
				continue
			}
		}
		end := p.total
		if i+1 < len(off) {
			end = off[i+1]
		}
		if pos == end {
			continue
		}
		for h := hs[i]; pos < end; pos++ {
			if pos == lim {
				*cur = PairCursor{i: i, pos: lim, j: j}
				return len(li)
			}
			for j = next[j]; bh[j] != h || !kc.equal(i, b.skc, j); j = next[j] {
			}
			li[pos-base], ri[pos-base] = i, j
		}
	}
	pos := p.total
	if hi < len(off) {
		pos = off[hi]
	}
	*cur = PairCursor{i: hi, pos: pos}
	return pos - base
}

// joinCol is one result column of HashJoin: its source, which half of
// each pair indexes it, and its destination arena vector.
type joinCol struct {
	right bool
	src   *bat.Vector
	own   []float64 // densified sparse source, handed back at the end
	dst   *bat.Vector
}

// HashJoin computes r ⋈ s on equality of the paired key attributes. The
// result schema is r's schema followed by s's non-key attributes (key
// attributes of s would duplicate r's and are dropped, matching the
// natural-join convention the paper's examples use). For Left joins,
// unmatched rows carry zero values in the right-hand attributes.
//
// HashJoin drives the join core over whole relations: s is the build
// side, the count pass over r fixes every probe morsel's output offset,
// the result columns are drawn once at their exact length, and the
// scatter runs over the context's workers by probe morsel, each worker
// gathering at most bat.MorselSize pairs at a time straight into the
// result. Its footprint beyond the inputs is the build index, the
// per-row offsets and the result. The result is dense: a zero-suppressed
// payload is read densified, like a sparse key.
func HashJoin(c *exec.Ctx, r, s *Relation, rKeys, sKeys []string, jt JoinType) (res *Relation, err error) {
	defer exec.CatchBudget(&err)
	if len(rKeys) != len(sKeys) || len(rKeys) == 0 {
		return nil, fmt.Errorf("rel: join needs matching non-empty key lists")
	}
	rCols, err := r.colsOf(rKeys)
	if err != nil {
		return nil, err
	}
	sCols, err := s.colsOf(sKeys)
	if err != nil {
		return nil, err
	}
	dropped := make(map[string]bool, len(sKeys))
	for _, a := range sKeys {
		dropped[a] = true
	}
	schema := r.Schema.Clone()
	srcs := append([]*bat.BAT(nil), r.Cols...)
	for j, a := range s.Schema {
		if !dropped[a.Name] {
			if r.Schema.Index(a.Name) >= 0 {
				return nil, fmt.Errorf("rel: join: attribute %q appears on both sides; rename first", a.Name)
			}
			schema = append(schema, a)
			srcs = append(srcs, s.Cols[j])
		}
	}

	n := r.NumRows()
	jb, err := NewJoinBuild(c, s.NumRows(), sCols)
	if err != nil {
		return nil, err
	}
	defer jb.Release(c)
	p, err := jb.Count(c, n, rCols, jt == Left)
	if err != nil {
		return nil, err
	}
	defer p.Release(c)

	morsels := (n + bat.MorselSize - 1) / bat.MorselSize
	cols := make([]joinCol, len(srcs))
	defer func() {
		for k := range cols {
			if cols[k].own != nil {
				c.Arena().FreeFloats(cols[k].own)
			}
			if res == nil && cols[k].dst != nil {
				bat.Release(c, bat.FromVector(cols[k].dst))
			}
		}
	}()
	for k, col := range srcs {
		jc := &cols[k]
		jc.right = k >= len(r.Cols)
		if col.IsSparse() {
			jc.own, _ = col.FloatsCtx(c)
			jc.src = bat.NewFloatVector(jc.own)
		} else {
			jc.src = col.Vector()
		}
		jc.dst = bat.NewVectorCtx(c, col.Type(), p.total)
	}

	c.ParallelFor(morsels, bat.SerialCutoff/bat.MorselSize, func(lo, hi int) {
		li := c.Arena().Ints(bat.MorselSize)
		defer c.Arena().FreeInts(li)
		ri := c.Arena().Ints(bat.MorselSize)
		defer c.Arena().FreeInts(ri)
		first := lo * bat.MorselSize
		cur := PairCursor{i: first, pos: p.off[first]}
		for {
			m := p.Scatter(&cur, min(hi*bat.MorselSize, n), li, ri)
			if m == 0 {
				return
			}
			at := cur.pos - m
			for k := range cols {
				jc := &cols[k]
				idx := li[:m]
				if jc.right {
					idx = ri[:m]
				}
				jc.src.GatherPadded(jc.dst.View(at, at+m), idx)
			}
		}
	})

	out := make([]*bat.BAT, len(cols))
	for k := range cols {
		out[k] = bat.FromVector(cols[k].dst)
	}
	return New(r.Name, schema, out)
}
