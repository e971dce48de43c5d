package rel

import (
	"fmt"
	"strings"

	"repro/internal/bat"
	"repro/internal/exec"
)

// This file holds the grouped aggregation accumulator, the pipeline
// breaker that SQL feeds one morsel at a time and GroupBy feeds the
// whole relation at once. Its result does not depend on how the morsels
// slice the input: every group folds its own rows in row order. The
// join's build side, the other breaker, is JoinBuild (join.go).

// StreamAgg is the one grouped aggregation: it folds a stream of morsels
// into a grouped relation, and GroupBy is this accumulator fed the whole
// relation at once. Each row folds straight into its group's states, so
// every group accumulates exactly its own rows in row order and the
// result does not depend on morsel boundaries or worker counts. Groups
// are created in global first-seen order, keys hash and compare through
// keyCols (ints exactly, floats by canonical bits, strings by bytes),
// and the first-seen row's key values are stored as the group's
// representative.
type StreamAgg struct {
	name string
	keys []string
	aggs []AggSpec
	kt   []bat.Type

	// Per-group storage, in global first-seen order: the group table
	// (key representatives and their hash index) and the aggregate
	// states.
	table  *keyTable
	states [][]aggState

	// Current morsel: its key views and their hashes, one block of at
	// most bat.MorselSize rows at a time.
	mk keyCols
	mh []uint64

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
// nil context keeps the purely in-memory behavior. The group table's
// index is charged to c's arena until Finish.
func NewStreamAgg(c *exec.Ctx, name string, keys []string, keyTypes []bat.Type, aggs []AggSpec) (sa *StreamAgg, err error) {
	defer exec.CatchBudget(&err)
	if len(aggs) == 0 {
		return nil, fmt.Errorf("rel: group by without aggregates")
	}
	if len(keys) != len(keyTypes) {
		return nil, fmt.Errorf("rel: %d grouping keys with %d types", len(keys), len(keyTypes))
	}
	sa = &StreamAgg{name: name, keys: keys, aggs: aggs, kt: keyTypes, c: c, mk: keyColsOfTypes(keyTypes)}
	if len(keys) > 0 {
		sa.table = newKeyTable(c, keyTypes)
	}
	return sa, nil
}

// groupOf returns the group id of morsel row i (whose key hash is
// h), creating the group (and storing the row's key values as its
// representative) when absent. Once the table is frozen, rows of unseen
// keys return ok == false and must be spilled; resident groups keep
// folding in memory.
func (a *StreamAgg) groupOf(h uint64, i int) (id int, ok bool) {
	if g := a.table.find(h, &a.mk, i); g >= 0 {
		return g, true
	}
	if a.frozen {
		return 0, false
	}
	// The resident table is about to grow: freeze it when the spill
	// policy says its footprint is large enough to stage the tail of the
	// key space on disk instead.
	if a.c.ShouldSpill(a.residentEst()) {
		a.frozen = true
		return 0, false
	}
	a.states = append(a.states, newAggStates(len(a.aggs)))
	return a.table.add(a.c, h, &a.mk, i), true
}

// residentEst is the in-memory footprint of the resident group table:
// per group its states (a 24-byte slice header plus 32 bytes per
// aggregate) and its key representatives (at most 16 bytes per key, a
// string header), plus the hash index's real bytes: buckets, links and
// stored hashes.
func (a *StreamAgg) residentEst() int64 {
	per := int64(24 + 32*len(a.aggs) + 16*len(a.keys))
	ix := a.table.index
	return int64(len(a.states))*per + 8*int64(len(ix.head)+len(ix.next)+cap(ix.hash))
}

// Consume folds one morsel: keys holds the grouping key vectors (nil or
// empty for the global group), aggIn one float view per aggregate (nil
// for COUNT(*)), n the morsel's row count. Morsels must arrive in
// stream order; rows are folded serially, after the keys of each block
// of at most bat.MorselSize rows are hashed column at a time.
// The error is nil unless the accumulator is spilling and disk I/O
// fails, or the group table outgrows the tenant's budget.
func (a *StreamAgg) Consume(keys []*bat.Vector, aggIn [][]float64, n int) (err error) {
	defer exec.CatchBudget(&err)
	if len(a.keys) > 0 {
		a.mk.bind(n, keys, a.kt)
		if cap(a.mh) < min(n, bat.MorselSize) {
			a.mh = make([]uint64, min(n, bat.MorselSize))
		}
	} else if len(a.states) == 0 && n > 0 {
		a.states = append(a.states, newAggStates(len(a.aggs)))
	}
	for lo := 0; lo < n; lo += bat.MorselSize {
		hi := min(lo+bat.MorselSize, n)
		if len(a.keys) > 0 {
			a.mk.hashInto(a.mh[:hi-lo], lo)
		}
		for i := lo; i < hi; i++ {
			g := 0
			if len(a.keys) > 0 {
				h := a.mh[i-lo]
				gg, ok := a.groupOf(h, i)
				if !ok {
					// Unseen key after the freeze: stage the row to disk.
					if err := a.spillRow(aggIn, i, h); err != nil {
						return err
					}
					a.seen++
					continue
				}
				g = gg
			}
			st := a.states[g]
			for k := range st {
				st[k].accumulate(aggIn[k], i)
			}
			a.seen++
		}
	}
	return nil
}

// releaseIndex hands the group table's hash index back to the arena once
// no further row can join a resident group; the key representatives stay
// for the result.
func (a *StreamAgg) releaseIndex() {
	if a.table != nil {
		a.table.index.release(a.c)
	}
}

// Finish assembles the grouped relation: key columns first (the stored
// representatives, in global first-seen order), then one column per
// aggregate — Count as BIGINT, the rest as DOUBLE.
func (a *StreamAgg) Finish() (res *Relation, err error) {
	defer exec.CatchBudget(&err)
	a.releaseIndex()
	if a.spill != nil {
		// Replay the staged partitions: every spilled key's rows fold in
		// row order and the recovered groups are appended in global
		// first-seen order, so the result below is bitwise what the
		// unfrozen accumulator would have produced.
		if err := a.replaySpilled(); err != nil {
			return nil, err
		}
	}
	nGroups := len(a.states)
	schema := make(Schema, 0, len(a.keys)+len(a.aggs))
	cols := make([]*bat.BAT, 0, len(a.keys)+len(a.aggs))
	for k, name := range a.keys {
		schema = append(schema, Attr{Name: name, Type: a.kt[k]})
		rep := &a.table.keys
		switch a.kt[k] {
		case bat.Int:
			cols = append(cols, bat.FromInts(rep.i[k][:nGroups:nGroups]))
		case bat.String:
			cols = append(cols, bat.FromStrings(rep.s[k][:nGroups:nGroups]))
		default:
			cols = append(cols, bat.FromFloats(rep.f[k][:nGroups:nGroups]))
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
