package rel

import (
	"fmt"
	"strings"

	"repro/internal/bat"
	"repro/internal/exec"
)

// This file holds the streaming (morsel-driven) counterparts of the
// pipeline breakers: a reusable join build side probed one morsel at a
// time, and a group-by accumulator fed one morsel at a time. Both
// preserve the determinism contract of their materializing originals —
// the streamed result is bitwise-identical to HashJoin/GroupBy over the
// concatenated input at any worker count — because probing is stateless
// per row and aggregation folds rows into the same SerialCutoff-aligned
// chunks regardless of how the morsels slice the input.

// JoinBuild is the hash-partitioned build side of a streaming equi-join:
// constructed once from the materialized build keys, then probed once
// per morsel. A build side above bat.SerialCutoff under a parallel budget
// is radix-partitioned exactly as HashJoin's, over min(next power of two
// ≥ workers, 64) partitions built in parallel. Probe emits pairs in probe
// order with matches in build order — the same canonical order as
// HashJoin — so concatenating the per-morsel pair lists reproduces the
// all-at-once join exactly.
type JoinBuild struct {
	skc   *keyCols
	table *joinTable
}

// NewJoinBuild indexes the build-side key columns. hint is the expected
// number of distinct build keys (≤ 0 for the default sizing).
func NewJoinBuild(c *exec.Ctx, buildKeys []*bat.BAT, hint int) (*JoinBuild, error) {
	if len(buildKeys) == 0 {
		return nil, fmt.Errorf("rel: join build needs a non-empty key list")
	}
	bn := buildKeys[0].Len()
	skc := keyColsOf(c, bn, buildKeys)
	return &JoinBuild{skc: skc, table: buildJoinTable(c, skc.hashes(c), hint)}, nil
}

// Rows returns the build-side row count.
func (b *JoinBuild) Rows() int { return b.skc.n }

// Probe joins one probe morsel against the build side. probeKeys are the
// morsel's key columns (same arity and pairing as the build keys).
// leftOuter emits (i, -1) for unmatched probe rows. The returned index
// slices come from the context's arena; callers hand them back with
// FreeInts when the morsel's output has been gathered.
func (b *JoinBuild) Probe(c *exec.Ctx, probeKeys []*bat.BAT, leftOuter bool) (li, ri []int, anyUnmatched bool, err error) {
	defer exec.CatchBudget(&err)
	if len(probeKeys) == 0 {
		return nil, nil, false, fmt.Errorf("rel: join probe needs a non-empty key list")
	}
	rkc := keyColsOf(c, probeKeys[0].Len(), probeKeys)
	li, ri, anyUnmatched = probePairs(c, b.table, rkc, b.skc, leftOuter)
	rkc.release(c)
	return li, ri, anyUnmatched, nil
}

// Release hands back the build side's densified key buffers. The
// JoinBuild must not be probed afterwards.
func (b *JoinBuild) Release(c *exec.Ctx) {
	if b == nil {
		return
	}
	b.skc.release(c)
	b.table = nil
}

// StreamAgg folds a stream of morsels into the same grouped result
// GroupBy computes over the materialized input. Bitwise identity holds
// because rows are folded into the same fixed chunks of bat.SerialCutoff
// global rows regardless of morsel boundaries: each chunk accumulates
// into fresh per-chunk states, and chunk partials are combined into the
// merged states in ascending chunk order — the exact association
// GroupBy uses. (Flushing every chunk, including the first, is safe:
// combining a chunk partial into a zero-initialized merged state
// reproduces the partial bitwise, since accumulated sums starting at +0
// can never be -0 and min/max copy through the ±Inf sentinels.)
//
// Group identity and order also match: groups are created in global
// first-seen order, keys compare with the same semantics as the
// materializing key columns (ints exactly, floats by canonical bits,
// strings by bytes), and the first-seen row's key values are stored as
// the group's representative — the value GroupBy gathers.
type StreamAgg struct {
	name string
	keys []string
	aggs []AggSpec
	kt   []bat.Type

	// Persistent per-group storage, in global first-seen order: one
	// typed column per key (kf/ki/ks selected by kt), the group's key
	// hash, and the merged aggregate states.
	kf     [][]float64
	ki     [][]int64
	ks     [][]string
	ghash  []uint64
	states [][]aggState
	byHash map[uint64][]int // hash -> group ids

	// Current chunk: per-group partial states, keyed by merged group id,
	// touched ids in chunk-local first-seen order.
	chunkStates  [][]aggState
	chunkTouched []int
	chunkSlot    map[int]int
	rowsInChunk  int

	// Out-of-core state (nil ctx disables spilling): once the resident
	// group table crosses the spill policy's threshold it freezes — rows
	// of resident groups keep folding in memory, rows of unseen keys are
	// staged to hash-partitioned disk files and replayed at Finish.
	c      *exec.Ctx
	seen   int64 // global rows consumed, spilled rows included
	frozen bool
	spill  *aggSpillState
}

// NewStreamAgg returns an accumulator for the given grouping keys (with
// their column types) and aggregates; an empty key list aggregates into
// a single global group. name names the result relation. When c carries
// a spill manager, a group table crossing the spill threshold degrades
// to disk (see the StreamAgg doc) instead of growing without bound; a
// nil context keeps the purely in-memory behavior.
func NewStreamAgg(c *exec.Ctx, name string, keys []string, keyTypes []bat.Type, aggs []AggSpec) (*StreamAgg, error) {
	if len(aggs) == 0 {
		return nil, fmt.Errorf("rel: group by without aggregates")
	}
	if len(keys) != len(keyTypes) {
		return nil, fmt.Errorf("rel: %d grouping keys with %d types", len(keys), len(keyTypes))
	}
	return &StreamAgg{
		name:      name,
		keys:      keys,
		aggs:      aggs,
		kt:        keyTypes,
		c:         c,
		kf:        make([][]float64, len(keys)),
		ki:        make([][]int64, len(keys)),
		ks:        make([][]string, len(keys)),
		byHash:    make(map[uint64][]int),
		chunkSlot: make(map[int]int),
	}, nil
}

// hashKeyRow computes the composite key hash of row i of the morsel's
// key vectors — the same canonical FNV-then-mix scheme as the
// materializing keyCols, so equal keys always share a hash.
func (a *StreamAgg) hashKeyRow(keys []*bat.Vector, i int) uint64 {
	h := uint64(fnvOffset64)
	for k, v := range keys {
		switch a.kt[k] {
		case bat.String:
			s := v.Strings()[i]
			for b := 0; b < len(s); b++ {
				h = (h ^ uint64(s[b])) * fnvPrime64
			}
			w := uint64(len(s))
			for b := 0; b < 64; b += 8 {
				h = (h ^ (w >> b & 0xff)) * fnvPrime64
			}
		default:
			var f float64
			if a.kt[k] == bat.Int {
				f = float64(v.Ints()[i])
			} else {
				f = v.Floats()[i]
			}
			w := bat.CanonBits(f)
			for b := 0; b < 64; b += 8 {
				h = (h ^ (w >> b & 0xff)) * fnvPrime64
			}
		}
	}
	return mix64(h)
}

// equalKeyRow reports whether row i of the morsel's key vectors matches
// stored group g, with the materializing equality semantics.
func (a *StreamAgg) equalKeyRow(keys []*bat.Vector, i, g int) bool {
	for k := range a.kt {
		switch a.kt[k] {
		case bat.Int:
			if keys[k].Ints()[i] != a.ki[k][g] {
				return false
			}
		case bat.String:
			if keys[k].Strings()[i] != a.ks[k][g] {
				return false
			}
		default:
			if bat.CanonBits(keys[k].Floats()[i]) != bat.CanonBits(a.kf[k][g]) {
				return false
			}
		}
	}
	return true
}

// groupOfHash returns the merged group id of row i (whose key hash is
// h), creating the group (and storing the row's key values as its
// representative) when absent. Once the table is frozen, rows of unseen
// keys return ok == false and must be spilled; resident groups keep
// folding in memory.
func (a *StreamAgg) groupOfHash(h uint64, keys []*bat.Vector, i int) (id int, ok bool) {
	for _, g := range a.byHash[h] {
		if a.equalKeyRow(keys, i, g) {
			return g, true
		}
	}
	if a.frozen {
		return 0, false
	}
	// The resident table is about to grow: freeze it when the spill
	// policy says its footprint is large enough to stage the tail of the
	// key space on disk instead.
	if !a.frozen && a.c.ShouldSpill(a.residentEst()) {
		a.frozen = true
		return 0, false
	}
	g := len(a.states)
	a.byHash[h] = append(a.byHash[h], g)
	a.ghash = append(a.ghash, h)
	a.states = append(a.states, newAggStates(len(a.aggs)))
	for k := range a.kt {
		switch a.kt[k] {
		case bat.Int:
			a.ki[k] = append(a.ki[k], keys[k].Ints()[i])
		case bat.String:
			a.ks[k] = append(a.ks[k], keys[k].Strings()[i])
		default:
			a.kf[k] = append(a.kf[k], keys[k].Floats()[i])
		}
	}
	return g, true
}

// residentEst is the rough in-memory footprint of the resident group
// table: states, key representatives, and hash-map overhead per group.
func (a *StreamAgg) residentEst() int64 {
	per := int64(64 + 32*len(a.aggs) + 24*len(a.keys))
	return int64(len(a.states)) * per
}

// chunkStateOf returns the current chunk's partial states for merged
// group g, creating them on the group's first row in this chunk.
func (a *StreamAgg) chunkStateOf(g int) []aggState {
	if slot, ok := a.chunkSlot[g]; ok {
		return a.chunkStates[slot]
	}
	st := newAggStates(len(a.aggs))
	a.chunkSlot[g] = len(a.chunkTouched)
	a.chunkTouched = append(a.chunkTouched, g)
	a.chunkStates = append(a.chunkStates, st)
	return st
}

// flushChunk combines the chunk partials into the merged states in
// chunk-local first-seen order and resets the chunk.
func (a *StreamAgg) flushChunk() {
	for slot, g := range a.chunkTouched {
		for k := range a.aggs {
			a.states[g][k].combine(&a.chunkStates[slot][k])
		}
	}
	a.chunkStates = a.chunkStates[:0]
	a.chunkTouched = a.chunkTouched[:0]
	clear(a.chunkSlot)
	a.rowsInChunk = 0
}

// Consume folds one morsel: keys holds the grouping key vectors (nil or
// empty for the global group), aggIn one float view per aggregate (nil
// for COUNT(*)), n the morsel's row count. Morsels must arrive in
// stream order; rows are folded serially — at MorselSize ≤ SerialCutoff
// the materializing path's chunks are serial too. The error is always
// nil unless the accumulator is spilling and disk I/O fails.
func (a *StreamAgg) Consume(keys []*bat.Vector, aggIn [][]float64, n int) error {
	for i := 0; i < n; i++ {
		if a.rowsInChunk == bat.SerialCutoff {
			a.flushChunk()
		}
		g := 0
		if len(a.keys) > 0 {
			h := a.hashKeyRow(keys, i)
			gg, ok := a.groupOfHash(h, keys, i)
			if !ok {
				// Unseen key after the freeze: stage the row to disk. It
				// still occupies its global chunk position.
				if err := a.spillRow(keys, aggIn, i, h); err != nil {
					return err
				}
				a.rowsInChunk++
				a.seen++
				continue
			}
			g = gg
		} else if len(a.states) == 0 {
			a.ghash = append(a.ghash, 0)
			a.states = append(a.states, newAggStates(len(a.aggs)))
		}
		st := a.chunkStateOf(g)
		for k := range a.aggs {
			var col []float64
			if aggIn[k] != nil {
				col = aggIn[k][i : i+1]
			}
			st[k].accumulate(col, 0)
		}
		a.rowsInChunk++
		a.seen++
	}
	return nil
}

// NumGroups returns the number of groups seen so far.
func (a *StreamAgg) NumGroups() int { return len(a.states) }

// Finish flushes the last partial chunk and assembles the grouped
// relation: key columns first (the stored representatives, in global
// first-seen order), then one column per aggregate — Count as BIGINT,
// the rest as DOUBLE — exactly GroupBy's output shape.
func (a *StreamAgg) Finish() (*Relation, error) {
	a.flushChunk()
	if a.spill != nil {
		// Replay the staged partitions: every spilled key's rows fold on
		// their original chunk boundaries and the recovered groups are
		// appended in global first-seen order, so the result below is
		// bitwise what the unfrozen accumulator would have produced.
		if err := a.replaySpilled(); err != nil {
			return nil, err
		}
	}
	nGroups := len(a.states)
	schema := make(Schema, 0, len(a.keys)+len(a.aggs))
	cols := make([]*bat.BAT, 0, len(a.keys)+len(a.aggs))
	for k, name := range a.keys {
		schema = append(schema, Attr{Name: name, Type: a.kt[k]})
		switch a.kt[k] {
		case bat.Int:
			cols = append(cols, bat.FromInts(a.ki[k][:nGroups:nGroups]))
		case bat.String:
			cols = append(cols, bat.FromStrings(a.ks[k][:nGroups:nGroups]))
		default:
			cols = append(cols, bat.FromFloats(a.kf[k][:nGroups:nGroups]))
		}
	}
	for k, sp := range a.aggs {
		name := sp.As
		if name == "" {
			name = fmt.Sprintf("%s_%s", strings.ToLower(sp.Func.String()), sp.Attr)
		}
		switch sp.Func {
		case Count:
			out := make([]int64, nGroups)
			for g := range out {
				out[g] = a.states[g][k].count
			}
			schema = append(schema, Attr{Name: name, Type: bat.Int})
			cols = append(cols, bat.FromInts(out))
		default:
			out := make([]float64, nGroups)
			for g := range out {
				st := &a.states[g][k]
				switch sp.Func {
				case Sum:
					out[g] = st.sum
				case Avg:
					out[g] = st.sum / float64(st.count)
				case Min:
					out[g] = st.min
				case Max:
					out[g] = st.max
				}
			}
			schema = append(schema, Attr{Name: name, Type: bat.Float})
			cols = append(cols, bat.FromFloats(out))
		}
	}
	return New(a.name, schema, cols)
}
