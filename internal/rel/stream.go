package rel

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/bat"
	"repro/internal/exec"
)

// StreamAgg is the one grouped aggregation and the one group table: the
// pipeline breaker that SQL feeds one morsel at a time and GroupBy feeds
// the whole relation at once (the join's is JoinBuild). Each row folds
// straight into its group's state, so every group accumulates exactly
// its own rows in row order and the result does not depend on morsel
// boundaries or worker counts. Groups are created in global first-seen
// order, keys hash and compare through keyCols (ints exactly, floats by
// canonical bits, strings by bytes), and the first-seen row's key
// values are stored as the group's representative. Without aggregates
// it computes the distinct keys.
//
// The table is columnar: the representatives are typed key columns, and
// each aggregate keeps only the state columns its function reads —
// Count a count, Sum, Min and Max one float (Min and Max start at +Inf
// and -Inf), Avg a sum and a count. Every column and the hash index are
// drawn from the arena and double together (draw, copy, free; the index
// is redrawn and the keys relinked), so the tenant is charged for what
// the table holds, and Finish hands the columns to the result as they
// are.
type StreamAgg struct {
	c    *exec.Ctx
	name string
	keys []string
	aggs []AggSpec
	kt   []bat.Type

	// The group table: gk.n groups, room for size, width bytes a group.
	gk    keyCols
	cnt   [][]int64   // per aggregate: rows folded (Count, Avg), else nil
	val   [][]float64 // per aggregate: sum (Sum, Avg) or extreme (Min, Max), else nil
	index *hashIndex  // nil without keys (the one global group) and after Finish
	size  int
	width int64

	// The current block of at most bat.MorselSize morsel rows: its key
	// views, their hashes and the rows' groups.
	mk keyCols
	mh []uint64
	gs []int

	// Out-of-core state (nil ctx disables spilling): once the table
	// holds more bytes than the spill threshold it freezes — rows of
	// resident groups keep folding in memory, rows of unseen keys are
	// staged to hash-partitioned disk files and replayed at Finish.
	seen   int64 // global rows consumed, spilled rows included
	frozen bool
	spill  *aggSpillState
}

// NewStreamAgg returns an accumulator for the given grouping keys (with
// their column types) and aggregates; an empty key list aggregates into
// a single global group, and no aggregates yields the distinct keys.
// name names the result relation. When c carries a spill manager, a
// group table holding more bytes than the spill threshold degrades to
// disk (see the StreamAgg doc) instead of growing without bound; a nil
// context keeps the purely in-memory behavior. The table is charged to
// c's arena: its index until Finish, its columns as the result's.
func NewStreamAgg(c *exec.Ctx, name string, keys []string, keyTypes []bat.Type, aggs []AggSpec) (*StreamAgg, error) {
	if len(keys) == 0 && len(aggs) == 0 {
		return nil, fmt.Errorf("rel: group by without keys or aggregates")
	}
	if len(keys) != len(keyTypes) {
		return nil, fmt.Errorf("rel: %d grouping keys with %d types", len(keys), len(keyTypes))
	}
	return newStreamAgg(c, name, keys, keyTypes, aggs), nil
}

func newStreamAgg(c *exec.Ctx, name string, keys []string, kt []bat.Type, aggs []AggSpec) *StreamAgg {
	a := &StreamAgg{c: c, name: name, keys: keys, aggs: aggs, kt: kt, gk: keyColsOfTypes(kt),
		cnt: make([][]int64, len(aggs)), val: make([][]float64, len(aggs)), mk: keyColsOfTypes(kt)}
	for _, t := range kt {
		a.width += 8
		if t == bat.String {
			a.width += 8 // a string header is two words
		}
	}
	for k, sp := range aggs {
		if sp.Func == Count || sp.Func == Avg {
			a.cnt[k], a.width = []int64{}, a.width+8
		}
		if sp.Func != Count {
			a.val[k], a.width = []float64{}, a.width+8
		}
	}
	if len(kt) > 0 {
		a.index, a.width = &hashIndex{}, a.width+8*3 // two buckets and a link
	}
	return a
}

// newGroup appends a group with fresh state and returns its id, doubling
// the table when it is full. The caller sets its key.
func (a *StreamAgg) newGroup() int {
	g := a.gk.n
	if g == a.size {
		size, ar := max(2*a.size, 64), a.c.Arena()
		a.gk.grow(a.c, size)
		for k := range a.aggs {
			if a.cnt[k] != nil {
				a.cnt[k] = regrow(a.cnt[k], g, size, ar.Int64s, ar.FreeInt64s)
			}
			if a.val[k] != nil {
				a.val[k] = regrow(a.val[k], g, size, ar.Floats, ar.FreeFloats)
			}
		}
		if a.index != nil {
			a.relink(size)
		}
		a.size = size
	}
	for k, sp := range a.aggs {
		if a.cnt[k] != nil {
			a.cnt[k][g] = 0
		}
		switch sp.Func {
		case Sum, Avg:
			a.val[k][g] = 0
		case Min:
			a.val[k][g] = math.Inf(1)
		case Max:
			a.val[k][g] = math.Inf(-1)
		}
	}
	a.gk.n++
	return g
}

// relink redraws the index with room for size groups and links the
// stored keys again, hashed a block at a time.
func (a *StreamAgg) relink(size int) {
	a.index.release(a.c)
	a.index.alloc(a.c, size)
	var h [256]uint64
	for lo := 0; lo < a.gk.n; lo += len(h) {
		hs := h[:min(len(h), a.gk.n-lo)]
		a.gk.hashInto(hs, lo)
		for j, x := range hs {
			a.index.link(lo+j, x)
		}
	}
}

// groupOf returns the group of morsel row i, whose key hash is h,
// creating it (with the row's key values as its representative) when
// absent. Once the table is frozen, a row of an unseen key returns -1
// and must be spilled; resident groups keep folding in memory.
func (a *StreamAgg) groupOf(h uint64, i int) int {
	if a.size > 0 {
		g := a.index.head[h&a.index.mask]
		for g >= 0 && !a.mk.equal(i, &a.gk, g) {
			g = a.index.next[g]
		}
		if g >= 0 || a.frozen {
			return g
		}
	}
	// The table is about to grow: freeze it when the spill policy says
	// the bytes it holds are enough to stage the tail of the key space
	// on disk instead.
	if a.c.ShouldSpill(int64(a.size) * a.width) {
		a.frozen = true
		return -1
	}
	g := a.newGroup()
	a.gk.set(g, &a.mk, i)
	a.index.link(g, h)
	return g
}

// Consume folds one morsel: keys holds the grouping key vectors (nil or
// empty for the global group), aggIn one float view per aggregate (nil
// for COUNT(*)), n the morsel's row count. Morsels must arrive in
// stream order. The keys of each block of at most bat.MorselSize rows
// are hashed column at a time and resolved to groups row by row, then
// the block folds one aggregate at a time.
// The error is nil unless the accumulator is spilling and disk I/O
// fails, or the group table outgrows the tenant's budget.
func (a *StreamAgg) Consume(keys []*bat.Vector, aggIn [][]float64, n int) (err error) {
	defer exec.CatchBudget(&err)
	if cap(a.gs) < min(n, bat.MorselSize) {
		a.gs = make([]int, min(n, bat.MorselSize))
		a.mh = make([]uint64, len(a.gs))
	}
	if len(a.keys) > 0 {
		a.mk.bind(n, keys, a.kt)
	} else if a.gk.n == 0 && n > 0 {
		a.newGroup()
	}
	for lo := 0; lo < n; lo += bat.MorselSize {
		gs := a.gs[:min(n-lo, bat.MorselSize)]
		if len(a.keys) == 0 {
			clear(gs)
		} else {
			a.mk.hashInto(a.mh[:len(gs)], lo)
			for j := range gs {
				gs[j] = a.groupOf(a.mh[j], lo+j)
			}
			if a.frozen {
				// Rows of keys unseen after the freeze go to disk.
				if err := a.spillBlock(aggIn, lo, gs); err != nil {
					return err
				}
			}
		}
		a.fold(gs, aggIn, lo)
		a.seen += int64(len(gs))
	}
	return nil
}

// fold folds rows lo..lo+len(gs)-1 into their groups: row lo+j into
// group gs[j], skipped when gs[j] < 0. Aggregate by aggregate, every
// group folds its rows in row order.
func (a *StreamAgg) fold(gs []int, in [][]float64, lo int) {
	for k, sp := range a.aggs {
		if cnt := a.cnt[k]; cnt != nil {
			for _, g := range gs {
				if g >= 0 {
					cnt[g]++
				}
			}
		}
		val := a.val[k]
		if val == nil || in[k] == nil {
			continue
		}
		v := in[k][lo : lo+len(gs)]
		switch sp.Func {
		case Sum, Avg:
			for j, g := range gs {
				if g >= 0 {
					val[g] += v[j]
				}
			}
		case Min:
			for j, g := range gs {
				if g >= 0 && v[j] < val[g] {
					val[g] = v[j]
				}
			}
		case Max:
			for j, g := range gs {
				if g >= 0 && v[j] > val[g] {
					val[g] = v[j]
				}
			}
		}
	}
}

// Finish assembles the grouped relation: key columns first (the stored
// representatives, in global first-seen order), then one column per
// aggregate — Count as BIGINT, the rest as DOUBLE. The table's columns
// become the result's: Avg divides its sums in place and frees its
// counts.
func (a *StreamAgg) Finish() (res *Relation, err error) {
	defer exec.CatchBudget(&err)
	// No row joins a resident group any more.
	a.dropIndex()
	if a.spill != nil {
		// Replay the staged partitions: every spilled key's rows fold in
		// row order and the recovered groups are appended in global
		// first-seen order, so the result below is bitwise what the
		// unfrozen accumulator would have produced.
		if err := a.replaySpilled(); err != nil {
			return nil, err
		}
	}
	schema := make(Schema, 0, len(a.keys)+len(a.aggs))
	cols := make([]*bat.BAT, 0, len(a.keys)+len(a.aggs))
	for k, name := range a.keys {
		schema = append(schema, Attr{Name: name, Type: a.kt[k]})
		cols = append(cols, bat.FromVector(a.gk.vector(k)))
	}
	for k, sp := range a.aggs {
		name := sp.As
		if name == "" {
			name = fmt.Sprintf("%s_%s", strings.ToLower(sp.Func.String()), sp.Attr)
		}
		col := a.aggColumn(k)
		schema = append(schema, Attr{Name: name, Type: col.Type()})
		cols = append(cols, col)
	}
	return New(a.name, schema, cols)
}

// aggColumn hands aggregate k's state over as its result column: the
// counts of Count, the floats of the rest, Avg's sums divided in place
// by its counts, which go back to the arena.
func (a *StreamAgg) aggColumn(k int) *bat.BAT {
	n := a.gk.n
	switch a.aggs[k].Func {
	case Count:
		return bat.FromInts(a.cnt[k][:n])
	case Avg:
		for g, cnt := range a.cnt[k][:n] {
			a.val[k][g] /= float64(cnt)
		}
		a.c.Arena().FreeInt64s(a.cnt[k])
		a.cnt[k] = nil
	}
	return bat.FromFloats(a.val[k][:n])
}

// dropIndex hands the index back to the arena.
func (a *StreamAgg) dropIndex() {
	a.index.release(a.c)
	a.index = nil
}

// free hands the whole table back to the arena.
func (a *StreamAgg) free() {
	a.dropIndex()
	a.gk.free(a.c)
	for k := range a.aggs {
		a.c.Arena().FreeInt64s(a.cnt[k])
		a.c.Arena().FreeFloats(a.val[k])
	}
}
