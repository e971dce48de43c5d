package rel

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/exec"
)

// JoinType selects the join semantics.
type JoinType uint8

const (
	// Inner keeps matching pairs only.
	Inner JoinType = iota
	// Left keeps all left rows; unmatched right attributes get zero values.
	Left
)

// probePairs probes an already-built index over skc with rkc, emitting
// the matching (probe, build) row index pairs in two parallel passes
// (match counting, then a scatter through per-row output offsets) whose
// output order is canonical at any worker budget — probe rows in probe
// order, matches per probe row in build order. The count pass remembers each row's first match, so the scatter
// writes single matches without probing again and stops a chain walk at
// the row's last match. leftOuter emits (i, -1) for unmatched probe
// rows. Probing is stateless per row, so morsel-probe pair sequences
// concatenate to exactly the all-at-once sequence.
func probePairs(c *exec.Ctx, table *hashIndex, rkc, skc *keyCols, leftOuter bool) (li, ri []int, anyUnmatched bool) {
	rh := rkc.hashes(c)
	n := rkc.n

	// Probe pass 1: matches per probe row, and the first of them.
	off := c.Arena().Ints(n)
	first := c.Arena().Ints(n)
	c.ParallelFor(n, bat.SerialCutoff, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cnt, fst := 0, -1
			h := rh[i]
			for j := table.find(h); j >= 0; j = table.findNext(j, h) {
				if rkc.equal(i, skc, j) {
					if cnt == 0 {
						fst = j
					}
					cnt++
				}
			}
			off[i], first[i] = cnt, fst
		}
	})

	// Prefix sum into output offsets (fixed serial combine).
	total := 0
	for i := 0; i < n; i++ {
		cnt := off[i]
		if cnt == 0 && leftOuter {
			cnt = 1
			anyUnmatched = true
		}
		off[i] = total
		total += cnt
	}

	// Probe pass 2: scatter the match pairs; rows write disjoint ranges.
	li = c.Arena().Ints(total)
	ri = c.Arena().Ints(total)
	c.ParallelFor(n, bat.SerialCutoff, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			k, j := off[i], first[i]
			if j < 0 {
				if leftOuter {
					li[k], ri[k] = i, -1
				}
				continue
			}
			end := total
			if i+1 < n {
				end = off[i+1]
			}
			li[k], ri[k] = i, j
			h := rh[i]
			for k++; k < end; k++ {
				for j = table.findNext(j, h); !rkc.equal(i, skc, j); j = table.findNext(j, h) {
				}
				li[k], ri[k] = i, j
			}
		}
	})
	c.Arena().FreeInts(off)
	c.Arena().FreeInts(first)
	return li, ri, anyUnmatched
}

// HashJoin computes r ⋈ s on equality of the paired key attributes. The
// result schema is r's schema followed by s's non-key attributes (key
// attributes of s would duplicate r's and are dropped, matching the
// natural-join convention the paper's examples use). For Left joins,
// unmatched rows carry zero values in the right-hand attributes.
//
// HashJoin runs the streaming join core once: s is the build side
// (NewJoinBuild), r is probed as a single morsel, and the pairs gather
// the result. Output order is canonical at any worker budget: probe rows
// in r order, matches per probe row in s order. When the spill policy
// says the join is too large, the pairs are staged to disk instead
// (hashJoinSpilled). Same result, bit for bit.
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
	var sAttrs []string
	for _, a := range s.Schema {
		if !dropped[a.Name] {
			if r.Schema.Index(a.Name) >= 0 {
				return nil, fmt.Errorf("rel: join: attribute %q appears on both sides; rename first", a.Name)
			}
			sAttrs = append(sAttrs, a.Name)
		}
	}

	if c.ShouldSpill(joinSpillEst(r.NumRows(), s.NumRows())) {
		return hashJoinSpilled(c, r, s, rCols, sCols, sAttrs, jt)
	}
	jb, err := NewJoinBuild(c, sCols)
	if err != nil {
		return nil, err
	}
	li, ri, anyUnmatched, err := jb.Probe(c, rCols, jt == Left)
	// The index and key views are done once the pairs exist; hand them
	// back to the per-query arena before the gathers below allocate the
	// result columns.
	jb.Release(c)
	if err != nil {
		return nil, err
	}

	left := r.Gather(c, li)
	schema := left.Schema.Clone()
	cols := append([]*bat.BAT(nil), left.Cols...)
	for _, name := range sAttrs {
		j := s.Schema.Index(name)
		schema = append(schema, s.Schema[j])
		cols = append(cols, gatherWithNulls(c, s.Cols[j], ri, jt == Left && anyUnmatched))
	}
	c.Arena().FreeInts(li)
	c.Arena().FreeInts(ri)
	return New(r.Name, schema, cols)
}

// gatherWithNulls gathers col by idx; positions with idx < 0 (left-join
// non-matches) produce the zero value of the column type. The fill is
// decomposed over the context's workers with one typed loop per tail
// domain; all three domains draw their output from the context's arena.
func gatherWithNulls(c *exec.Ctx, col *bat.BAT, idx []int, anyUnmatched bool) *bat.BAT {
	if !anyUnmatched {
		return col.Gather(c, idx)
	}
	switch col.Type() {
	case bat.Float:
		f, _ := col.FloatsCtx(c)
		out := c.Arena().Floats(len(idx))
		c.ParallelFor(len(idx), bat.SerialCutoff, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				if j := idx[k]; j >= 0 {
					out[k] = f[j]
				} else {
					out[k] = 0
				}
			}
		})
		col.ReleaseFloats(c, f)
		return bat.FromFloats(out)
	case bat.Int:
		xs := col.VectorCtx(c).Ints()
		out := c.Arena().Int64s(len(idx))
		c.ParallelFor(len(idx), bat.SerialCutoff, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				if j := idx[k]; j >= 0 {
					out[k] = xs[j]
				} else {
					out[k] = 0
				}
			}
		})
		return bat.FromInts(out)
	default:
		ss := col.VectorCtx(c).Strings()
		out := c.Arena().Strings(len(idx))
		c.ParallelFor(len(idx), bat.SerialCutoff, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				if j := idx[k]; j >= 0 {
					out[k] = ss[j]
				} else {
					out[k] = ""
				}
			}
		})
		return bat.FromStrings(out)
	}
}
