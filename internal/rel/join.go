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

// joinTable is the hash-partitioned build-side index of HashJoin: rows of
// the build relation grouped by key hash, split over 2^k partitions
// selected by the low hash bits. Row lists are ascending, so probing
// reproduces the canonical (build-order) match order no matter how the
// table was built.
type joinTable struct {
	mask  uint64
	parts []map[uint64][]int
}

func (t *joinTable) lookup(h uint64) []int {
	return t.parts[h&t.mask][h]
}

// buildJoinTable indexes the build side from its row hashes. Small
// inputs (or a single-worker budget) build one partition serially; larger
// ones are radix-partitioned in two parallel passes — per-chunk histograms,
// then a scatter through chunk-major offsets — and the per-partition hash
// tables are built in parallel. Chunk-major offsets keep every partition's
// row list ascending regardless of the chunk decomposition, which is what
// makes the join output independent of the worker budget.
//
// hint is the expected number of distinct keys (≤ 0 for the default of
// half the rows distinct): the hash maps are pre-sized to it instead of
// growing incrementally. The partitioning staging (histograms, offsets,
// the scattered row list) is charged to the invocation's arena and
// released before return.
func buildJoinTable(c *exec.Ctx, h []uint64, hint int) *joinTable {
	m := len(h)
	if hint <= 0 {
		hint = m/2 + 1
	}
	if m <= bat.SerialCutoff || c.Workers() <= 1 {
		part := make(map[uint64][]int, hint)
		for j, hv := range h {
			part[hv] = append(part[hv], j)
		}
		return &joinTable{mask: 0, parts: []map[uint64][]int{part}}
	}
	p := 1
	for p < c.Workers() && p < 64 {
		p <<= 1
	}
	mask := uint64(p - 1)
	chunks, size := c.ParallelRuns(m)

	hist := c.Arena().Ints(chunks * p)
	clear(hist)
	c.ParallelFor(chunks, 1, func(clo, chi int) {
		for ch := clo; ch < chi; ch++ {
			row := hist[ch*p : (ch+1)*p]
			for j := ch * size; j < min((ch+1)*size, m); j++ {
				row[h[j]&mask]++
			}
		}
	})
	// Chunk-major prefix sums: partition pt holds chunk 0's rows, then
	// chunk 1's, …, each ascending — so the whole partition is ascending.
	partStart := make([]int, p+1)
	pos := c.Arena().Ints(chunks * p)
	off := 0
	for pt := 0; pt < p; pt++ {
		partStart[pt] = off
		for ch := 0; ch < chunks; ch++ {
			pos[ch*p+pt] = off
			off += hist[ch*p+pt]
		}
	}
	partStart[p] = off

	rows := c.Arena().Ints(m)
	c.ParallelFor(chunks, 1, func(clo, chi int) {
		for ch := clo; ch < chi; ch++ {
			cursor := pos[ch*p : (ch+1)*p]
			for j := ch * size; j < min((ch+1)*size, m); j++ {
				pt := h[j] & mask
				rows[cursor[pt]] = j
				cursor[pt]++
			}
		}
	})

	parts := make([]map[uint64][]int, p)
	c.ParallelFor(p, 1, func(plo, phi int) {
		for pt := plo; pt < phi; pt++ {
			span := rows[partStart[pt]:partStart[pt+1]]
			szHint := len(span) / 2
			if est := hint / p; est < szHint {
				szHint = est
			}
			mp := make(map[uint64][]int, szHint+1)
			for _, j := range span {
				mp[h[j]] = append(mp[h[j]], j)
			}
			parts[pt] = mp
		}
	})
	c.Arena().FreeInts(hist)
	c.Arena().FreeInts(pos)
	c.Arena().FreeInts(rows)
	return &joinTable{mask: mask, parts: parts}
}

// joinPairs computes the matching (probe, build) row index pairs of an
// equi-join between two typed key views: build a hash table on skc, probe
// with rkc in two parallel passes — match counting, then a scatter through
// per-row output offsets. leftOuter emits (i, -1) for unmatched probe
// rows. Output order is canonical at any worker budget: probe rows in
// probe order, matches per probe row in build order. The returned index
// slices come from the context's arena; callers done with them hand them
// back with FreeInts.
func joinPairs(c *exec.Ctx, rkc, skc *keyCols, leftOuter bool) (li, ri []int, anyUnmatched bool) {
	table := buildJoinTable(c, skc.hashes(c), 0)
	return probePairs(c, table, rkc, skc, leftOuter)
}

// probePairs is the probe phase of joinPairs over an already-built table:
// two parallel passes (match counting, then a scatter through per-row
// output offsets) whose output order is canonical at any worker budget —
// probe rows in probe order, matches per probe row in build order. The
// streaming join probes the same table once per morsel through this
// path, so morsel-probe pair sequences concatenate to exactly the
// all-at-once sequence.
func probePairs(c *exec.Ctx, table *joinTable, rkc, skc *keyCols, leftOuter bool) (li, ri []int, anyUnmatched bool) {
	rh := rkc.hashes(c)
	n := rkc.n

	// Probe pass 1: matches per probe row.
	counts := c.Arena().Ints(n)
	c.ParallelFor(n, bat.SerialCutoff, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cnt := 0
			for _, j := range table.lookup(rh[i]) {
				if rkc.equal(i, skc, j) {
					cnt++
				}
			}
			counts[i] = cnt
		}
	})

	// Prefix sum into output offsets (fixed serial combine).
	total := 0
	for i := 0; i < n; i++ {
		cnt := counts[i]
		if cnt == 0 && leftOuter {
			cnt = 1
			anyUnmatched = true
		}
		counts[i] = total
		total += cnt
	}

	// Probe pass 2: scatter the match pairs; rows write disjoint ranges.
	li = c.Arena().Ints(total)
	ri = c.Arena().Ints(total)
	c.ParallelFor(n, bat.SerialCutoff, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			k := counts[i]
			wrote := false
			for _, j := range table.lookup(rh[i]) {
				if rkc.equal(i, skc, j) {
					li[k] = i
					ri[k] = j
					k++
					wrote = true
				}
			}
			if !wrote && leftOuter {
				li[k] = i
				ri[k] = -1
			}
		}
	})
	c.Arena().FreeInts(counts)
	return li, ri, anyUnmatched
}

// EquiJoinPairs computes the matching (probe, build) row index pairs of an
// equi-join keyed by two already-materialized column lists of equal arity
// (probeKeys[k] pairs with buildKeys[k]). It is the entry point the SQL
// layer uses for expression-keyed joins: the key expressions are
// materialized into typed columns once, and the join runs over typed
// 64-bit hashes — no per-row string keys. leftOuter emits (i, -1) for
// unmatched probe rows. The returned slices come from the context's arena;
// callers done with them may hand them back with bat.FreeInts.
func EquiJoinPairs(c *exec.Ctx, probeKeys, buildKeys []*bat.BAT, leftOuter bool) (li, ri []int, err error) {
	defer exec.CatchBudget(&err)
	if len(probeKeys) != len(buildKeys) || len(probeKeys) == 0 {
		return nil, nil, fmt.Errorf("rel: equi-join needs matching non-empty key lists")
	}
	pn, bn := probeKeys[0].Len(), buildKeys[0].Len()
	rkc := keyColsOf(c, pn, probeKeys)
	skc := keyColsOf(c, bn, buildKeys)
	li, ri, _ = joinPairs(c, rkc, skc, leftOuter)
	rkc.release(c)
	skc.release(c)
	return li, ri, nil
}

// HashJoin computes r ⋈ s on equality of the paired key attributes. The
// result schema is r's schema followed by s's non-key attributes (key
// attributes of s would duplicate r's and are dropped, matching the
// natural-join convention the paper's examples use). For Left joins,
// unmatched rows carry zero values in the right-hand attributes.
//
// The join is hash-partitioned: typed 64-bit key hashes (no per-row string
// materialization) index the build side s, and the probe over r runs in two
// parallel passes — match counting, then a scatter through per-row output
// offsets. Output order is canonical at any worker budget: probe rows in r
// order, matches per probe row in s order.
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
	// materializing them (and shrink the build table to one partition at
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
