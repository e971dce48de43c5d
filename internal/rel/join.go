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

// joinPairs computes the matching (probe, build) row index pairs of an
// equi-join between two typed key views: index skc's rows in one flat
// hash index, probe it with rkc in two parallel passes — match counting,
// then a scatter through per-row output offsets — and release the index.
// leftOuter emits (i, -1) for unmatched probe rows. Output order is
// canonical at any worker budget: probe rows in probe order, matches per
// probe row in build order. The returned index slices come from the
// context's arena; callers done with them hand them back with FreeInts.
func joinPairs(c *exec.Ctx, rkc, skc *keyCols, leftOuter bool) (li, ri []int, anyUnmatched bool) {
	table := indexRows(c, skc.hashes(c))
	li, ri, anyUnmatched = probePairs(c, table, rkc, skc, leftOuter)
	table.release(c)
	return li, ri, anyUnmatched
}

// probePairs is the probe phase of joinPairs over an already-built
// index: two parallel passes (match counting, then a scatter through
// per-row output offsets) whose output order is canonical at any worker
// budget — probe rows in probe order, matches per probe row in build
// order. The count pass remembers each row's first match, so the scatter
// writes single matches without probing again and stops a chain walk at
// the row's last match. The streaming join probes the same index once
// per morsel through this path, so morsel-probe pair sequences
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
// Typed 64-bit key hashes (no per-row string materialization) index the
// build side s in one flat arena-charged hash index, and the probe over r
// runs in two parallel passes — match counting, then a scatter through
// per-row output offsets. Output order is canonical at any worker budget:
// probe rows in r order, matches per probe row in s order.
func HashJoin(c *exec.Ctx, r, s *Relation, rKeys, sKeys []string, jt JoinType) (res *Relation, err error) {
	defer exec.CatchBudget(&err)
	if len(rKeys) != len(sKeys) || len(rKeys) == 0 {
		return nil, fmt.Errorf("rel: join needs matching non-empty key lists")
	}
	rkc, err := newKeyCols(c, r, rKeys)
	if err != nil {
		return nil, err
	}
	defer rkc.release(c) // idempotent: a no-op after the early release below
	skc, err := newKeyCols(c, s, sKeys)
	if err != nil {
		return nil, err
	}
	defer skc.release(c)
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

	// Out-of-core path: stage the pair arrays to disk instead of
	// materializing them (and shrink the build index to one partition at
	// a time). Same result, bit for bit.
	if c.ShouldSpill(joinSpillEst(rkc.n, skc.n)) {
		return hashJoinSpilled(c, r, s, rkc, skc, sAttrs, jt)
	}

	// Build on s, probe with r.
	li, ri, anyUnmatched := joinPairs(c, rkc, skc, jt == Left)
	// The key views are done once the pairs exist; hand any densified
	// sparse tails back to the per-query arena before the gathers below
	// allocate the result columns.
	rkc.release(c)
	skc.release(c)

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
