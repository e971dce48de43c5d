package sql

import (
	"repro/internal/bat"
	"repro/internal/exec"
	"repro/internal/rel"
	"repro/internal/store"
)

// This file executes a planned streaming SELECT. Operators pull morsels
// of up to bat.MorselSize rows through rowStream.next, batch buffers
// come from the statement's accounted arena, and every morsel is
// released as soon as its consumer is done with it — so the statement's
// peak arena footprint tracks the widest pipeline stage instead of the
// sum of its materialized intermediates. Pipeline breakers (join build
// sides, the grouping accumulator, the ORDER BY ... LIMIT fold) consume
// their input fully, then stream or hand off materialized output. Every
// join kind runs through one operator, joinStream, whose batches never
// exceed bat.MorselSize rows whatever a probe row's fan-out.
//
// Determinism: morsels are emitted in row order, every per-morsel kernel
// runs serially (MorselSize never exceeds exec.SerialCutoff), and the
// breakers delegate to rel.JoinBuild / rel.StreamAgg — the cores under
// rel.HashJoin / rel.GroupBy — whose results do not depend on morsel
// boundaries or the worker count.

// rowStream is the morsel iterator: next returns the next non-empty
// batch, or nil at end of stream. The caller owns the returned batch and
// must Release it; close releases the operator's own held buffers and
// propagates to its input. Both are safe to call during error unwinds.
type rowStream interface {
	next(c *exec.Ctx) (*bat.Batch, error)
	close(c *exec.Ctx)
}

// --- scan ------------------------------------------------------------------

// scanStream emits a leaf source one morsel at a time, fusing the
// pushed-down predicate conjuncts and the column pruning into a single
// pass: without a predicate, or where every row of a morsel matches,
// morsels are zero-copy views; otherwise only the matching rows of the
// needed columns are gathered (arena-drawn).
type scanStream struct {
	vecs     []*bat.Vector // emitted columns
	predCols []*bat.Vector // columns the predicate reads, by source position
	preds    []*compiled   // the planner's compiled conjuncts
	skip     []bool        // per-segment zone-map prune flags (persisted tables)
	n, pos   int
	tr       *exec.StageTracker
	prev     int64 // bytes of the last emitted batch, unheld on the next call
}

func newScanStream(c *exec.Ctx, n *streamNode, ps *exec.PipelineStats) (*scanStream, error) {
	src := n.leaf
	s := &scanStream{n: src.rel.NumRows(), preds: n.predProg, tr: ps.Stage("scan(" + src.rel.Name + ")")}
	if src.stored != nil && len(n.pred) > 0 {
		s.skip = segSkips(src.stored, src, n.pred, s.n)
	}

	cols := src.rel.Cols
	for _, k := range n.needed {
		s.vecs = append(s.vecs, cols[k].Vector())
	}
	if len(s.preds) > 0 {
		s.predCols = make([]*bat.Vector, len(cols))
		for _, p := range n.pred {
			for _, cr := range collectCols(p, nil) {
				if k, err := src.resolve(cr.Qualifier, cr.Name); err == nil {
					s.predCols[k] = cols[k].Vector()
				}
			}
		}
	}
	return s, nil
}

func (s *scanStream) next(c *exec.Ctx) (*bat.Batch, error) {
	s.tr.Unhold(s.prev)
	s.prev = 0
	for s.pos < s.n {
		if s.skip != nil {
			seg := s.pos / store.SegRows
			if seg < len(s.skip) && s.skip[seg] {
				s.pos = min((seg+1)*store.SegRows, s.n)
				continue
			}
		}
		lo := s.pos
		hi := min(lo+bat.MorselSize, s.n)
		s.pos = hi
		var idx []int
		if len(s.preds) > 0 {
			f := &frame{c: c, n: hi - lo, cols: make([]*bat.Vector, len(s.predCols))}
			for k, v := range s.predCols {
				if v != nil {
					f.cols[k] = v.View(lo, hi)
				}
			}
			var err error
			idx, err = f.filter(s.preds)
			f.release()
			if err != nil {
				return nil, err
			}
			if len(idx) == hi-lo {
				f.freeRows(idx)
				idx = nil
			} else if len(idx) == 0 {
				f.freeRows(idx)
				continue
			}
		}
		rows := hi - lo
		if idx != nil {
			rows = len(idx)
		}
		b := bat.NewBatch(rows)
		for _, v := range s.vecs {
			if idx != nil {
				b.AddCol(v.View(lo, hi).Gather(c, idx), true)
			} else {
				b.AddCol(v.View(lo, hi), false)
			}
		}
		if idx != nil {
			c.Arena().FreeInts(idx)
		}
		s.prev = b.Bytes()
		s.tr.Batch(b.Len(), s.prev)
		return b, nil
	}
	return nil, nil
}

func (s *scanStream) close(c *exec.Ctx) {
	s.tr.Unhold(s.prev)
	s.prev = 0
}

// --- filter ----------------------------------------------------------------

// filterStream keeps the rows of each input morsel on which every
// predicate is truthy. A morsel where all rows survive passes through
// untouched (zero copy); otherwise the survivors are gathered into a
// fresh arena-backed batch.
type filterStream struct {
	in    rowStream
	preds []*compiled
	tr    *exec.StageTracker
	prev  int64
}

func newFilterStream(in rowStream, preds []*compiled, ps *exec.PipelineStats) *filterStream {
	return &filterStream{in: in, preds: preds, tr: ps.Stage("filter")}
}

func (f *filterStream) next(c *exec.Ctx) (*bat.Batch, error) {
	f.tr.Unhold(f.prev)
	f.prev = 0
	for {
		mb, err := f.in.next(c)
		if err != nil || mb == nil {
			return nil, err
		}
		fr := batchFrame(c, mb)
		idx, err := fr.filter(f.preds)
		fr.release()
		if err != nil {
			mb.Release(c)
			return nil, err
		}
		switch len(idx) {
		case 0:
			fr.freeRows(idx)
			mb.Release(c)
			continue
		case mb.Len():
			fr.freeRows(idx)
			f.tr.Batch(mb.Len(), 0)
			return mb, nil
		}
		out := bat.NewBatch(len(idx))
		for k := 0; k < mb.NumCols(); k++ {
			out.AddCol(mb.Col(k).Gather(c, idx), true)
		}
		fr.freeRows(idx)
		mb.Release(c)
		f.prev = out.Bytes()
		f.tr.Batch(out.Len(), f.prev)
		return out, nil
	}
}

func (f *filterStream) close(c *exec.Ctx) {
	f.tr.Unhold(f.prev)
	f.prev = 0
	f.in.close(c)
}

// --- join ------------------------------------------------------------------

// joinStream is the one join operator: equi, LEFT, CROSS and non-equi
// ON (a cross product under the residual filter) alike. It probes each
// left morsel against a build side materialized and indexed at open; a
// join without equi keys indexes no key columns, and rel.JoinBuild then
// pairs every left row with every build row. Pushed-down build filters
// run before indexing. A morsel's pairs leave in blocks of at most
// bat.MorselSize, scattered into scratch drawn at open, so one batch
// never outgrows a morsel however far a probe row fans out.
type joinStream struct {
	in        rowStream
	node      *streamNode
	jb        *rel.JoinBuild
	build     *frame        // the build side the key programs ran over
	buildKeys []*bat.Vector // evaluated build keys, indexed by jb until close
	buildVecs []*bat.Vector // needed build columns
	filtered  *rel.Relation // pushed-down-filter intermediate, freed at close
	leftOuter bool
	cur       *bat.Batch     // left morsel whose pairs are being scattered
	curFrame  *frame         // cur's frame, which its key programs ran over
	curKeys   []*bat.Vector  // cur's evaluated keys, read until drop
	probe     *rel.JoinProbe // cur after the count pass
	pc        rel.PairCursor
	li, ri    []int // arena pair scratch
	tr        *exec.StageTracker
	prev      int64
}

func newJoinStream(c *exec.Ctx, n *streamNode, in rowStream, ps *exec.PipelineStats) (*joinStream, error) {
	right, filtered, err := filterBuild(c, n)
	if err != nil {
		return nil, err
	}
	j := &joinStream{in: in, node: n, filtered: filtered, build: relFrame(c, right), leftOuter: n.kind == JoinLeft, tr: ps.Stage("join")}
	keys := make([]*bat.BAT, len(n.rkProg))
	for k, p := range n.rkProg {
		v, err := p.val(j.build, nil)
		if err != nil {
			j.freeBuild(c)
			return nil, err
		}
		j.buildKeys = append(j.buildKeys, v)
		keys[k] = bat.FromVector(v)
	}
	if j.jb, err = rel.NewJoinBuild(c, right.NumRows(), keys); err != nil {
		j.freeBuild(c)
		return nil, err
	}
	for _, k := range n.needed {
		j.buildVecs = append(j.buildVecs, right.Cols[k].Vector())
	}
	j.li, j.ri = c.Arena().Ints(bat.MorselSize), c.Arena().Ints(bat.MorselSize)
	return j, nil
}

// pull pulls the next left morsel, evaluates its join keys and runs the
// count pass over it. It reports false at the end of the input.
func (j *joinStream) pull(c *exec.Ctx) (bool, error) {
	mb, err := j.in.next(c)
	if err != nil || mb == nil {
		return false, err
	}
	j.cur, j.curFrame, j.pc = mb, batchFrame(c, mb), rel.PairCursor{}
	keys := make([]*bat.BAT, len(j.node.lkProg))
	for k, p := range j.node.lkProg {
		v, err := p.val(j.curFrame, nil)
		if err != nil {
			j.drop(c)
			return false, err
		}
		j.curKeys = append(j.curKeys, v)
		keys[k] = bat.FromVector(v)
	}
	if j.probe, err = j.jb.Count(c, mb.Len(), keys, j.leftOuter); err != nil {
		j.drop(c)
		return false, err
	}
	return true, nil
}

// drop releases the current left morsel: its count pass, then the keys
// the pass reads, then the morsel itself. Nil-safe.
func (j *joinStream) drop(c *exec.Ctx) {
	j.probe.Release(c)
	j.probe = nil
	if j.cur == nil {
		return
	}
	for _, v := range j.curKeys {
		j.curFrame.free(v)
	}
	j.curFrame.release()
	j.cur.Release(c)
	j.cur, j.curFrame, j.curKeys = nil, nil, nil
}

func (j *joinStream) next(c *exec.Ctx) (*bat.Batch, error) {
	j.tr.Unhold(j.prev)
	j.prev = 0
	for {
		if j.cur == nil {
			if ok, err := j.pull(c); !ok {
				return nil, err
			}
		}
		m := j.probe.Scatter(&j.pc, j.cur.Len(), j.li, j.ri)
		if m == 0 {
			j.drop(c)
			continue
		}
		li, ri := j.li[:m], j.ri[:m]
		out := bat.NewBatch(m)
		for k := 0; k < j.cur.NumCols(); k++ {
			out.AddCol(j.cur.Col(k).Gather(c, li), true)
		}
		// Unmatched left-outer rows (ri = -1) take the zero value of each
		// build column's domain: the same gather rel.HashJoin writes its
		// results with.
		for _, v := range j.buildVecs {
			dst := bat.NewVectorCtx(c, v.Type(), m)
			v.GatherPadded(dst, ri)
			out.AddCol(dst, true)
		}
		if m < len(j.li) {
			j.drop(c)
		}
		j.prev = out.Bytes()
		j.tr.Batch(out.Len(), j.prev)
		return out, nil
	}
}

// freeBuild hands back the build side: the hash index, then the
// evaluated keys it indexed, then the filtered relation they may alias.
func (j *joinStream) freeBuild(c *exec.Ctx) {
	if j.jb != nil {
		j.jb.Release(c)
		j.jb = nil
	}
	for _, v := range j.buildKeys {
		j.build.free(v)
	}
	j.buildKeys = nil
	j.build.release()
	freeFiltered(c, j.filtered)
	j.filtered = nil
}

func (j *joinStream) close(c *exec.Ctx) {
	j.tr.Unhold(j.prev)
	j.prev = 0
	j.in.close(c)
	j.drop(c)
	if j.li != nil {
		c.Arena().FreeInts(j.li)
		c.Arena().FreeInts(j.ri)
		j.li, j.ri = nil, nil
	}
	j.freeBuild(c)
	j.buildVecs = nil
}

// --- helpers ---------------------------------------------------------------

// filterBuild applies a join node's pushed-down build filters. It
// returns the build relation and, when filtering gathered a new one, that
// intermediate for freeFiltered.
func filterBuild(c *exec.Ctx, n *streamNode) (right, filtered *rel.Relation, err error) {
	if len(n.rightProg) == 0 {
		return n.right.rel, nil, nil
	}
	if filtered, err = filterRel(c, n.right.rel, n.rightProg); err != nil {
		return nil, nil, err
	}
	return filtered, filtered, nil
}

// freeFiltered hands back a build-side relation a pushed-down filter
// gathered into arena buffers. It is freed at close: its columns
// are aliased by buildVecs (and by evaluated build keys) until the last
// probe. Nil-safe.
func freeFiltered(c *exec.Ctx, r *rel.Relation) {
	if r == nil {
		return
	}
	for _, col := range r.Cols {
		freeVec(c, col.Vector())
	}
}

// freeVec hands an arena-drawn vector back to the arena.
func freeVec(c *exec.Ctx, v *bat.Vector) {
	switch v.Type() {
	case bat.Int:
		c.Arena().FreeInt64s(v.Ints())
	case bat.String:
		c.Arena().FreeStrings(v.Strings())
	default:
		c.Arena().FreeFloats(v.Floats())
	}
}

// --- driver ----------------------------------------------------------------

// openStream instantiates the operator chain for a plan node.
func (db *DB) openStream(c *exec.Ctx, n *streamNode, ps *exec.PipelineStats) (rowStream, error) {
	if n.leaf != nil {
		return newScanStream(c, n, ps)
	}
	in, err := db.openStream(c, n.left, ps)
	if err != nil {
		return nil, err
	}
	j, err := newJoinStream(c, n, in, ps)
	if err != nil {
		in.close(c)
		return nil, err
	}
	var out rowStream = j
	if len(n.filterProg) > 0 {
		out = newFilterStream(out, n.filterProg, ps)
	}
	return out, nil
}

// execPlanned runs a planned streaming SELECT. The plan may be shared —
// cached plans execute concurrently — so execution treats it as
// strictly read-only: per-morsel state lives in the operators and the
// statement's context, never on the plan.
func (db *DB) execPlanned(c *exec.Ctx, sel *SelectStmt, plan *selectPlan) (*rel.Relation, error) {
	ps := exec.NewPipelineStats()
	defer func() { db.storePipelineStats(ps.Snapshot()) }()
	st, err := db.openStream(c, plan.root, ps)
	if err != nil {
		return nil, err
	}
	defer st.close(c)
	if plan.group != nil {
		return db.runStreamGrouped(c, sel, plan, st, ps)
	}
	return runStreamProject(c, sel, plan, st, ps)
}

// colBuf collects one output column across morsels as a list of parts
// and concatenates them once, at the exact final length, into a column
// drawn from the statement's arena. A part that views storage outliving
// the statement is kept as is, and consecutive views of one stored
// column merge, so a column that streams unfiltered out of one stored
// column is returned as that view, without a copy. Any other part is an
// arena vector, handed back after the concatenation.
type colBuf struct {
	typ   bat.Type
	parts []*bat.Vector
	owned []bool
}

// add appends one morsel's column. stable marks a view of storage that
// outlives the statement; owned an arena vector the buffer takes over.
// Anything else is copied into the arena, since it dies with its morsel.
func (b *colBuf) add(c *exec.Ctx, v *bat.Vector, stable, owned bool) {
	if stable {
		if k := len(b.parts) - 1; k >= 0 && !b.owned[k] {
			if w, ok := adjoin(b.parts[k], v); ok {
				b.parts[k] = w
				return
			}
		}
		b.parts, b.owned = append(b.parts, v), append(b.owned, false)
		return
	}
	if !owned {
		v = cloneVec(c, v)
	}
	b.parts, b.owned = append(b.parts, v), append(b.owned, true)
}

// vector concatenates the parts into the final column of rows values.
// owned reports whether the column is the statement's arena column
// rather than a view of stored data.
func (b *colBuf) vector(c *exec.Ctx, rows int) (out *bat.Vector, owned bool) {
	owned = len(b.parts) != 1 || b.owned[0]
	a := c.Arena()
	switch b.typ {
	case bat.Int:
		out = bat.NewIntVector(concat(b, rows, (*bat.Vector).Ints, a.Int64s))
	case bat.String:
		out = bat.NewStringVector(concat(b, rows, (*bat.Vector).Strings, a.Strings))
	default:
		out = bat.NewFloatVector(concat(b, rows, (*bat.Vector).Floats, a.Floats))
	}
	for k, p := range b.parts {
		if b.owned[k] {
			freeVec(c, p)
		}
	}
	b.parts, b.owned = nil, nil
	return out, owned
}

func concat[T any](b *colBuf, rows int, data func(*bat.Vector) []T, alloc func(int) []T) []T {
	if len(b.parts) == 1 && !b.owned[0] {
		return data(b.parts[0])[:rows:rows]
	}
	out := alloc(rows)
	at := 0
	for _, p := range b.parts {
		at += copy(out[at:], data(p))
	}
	return out
}

// adjoin extends view a by view w when w starts right where a ends in
// a's backing array.
func adjoin(a, w *bat.Vector) (*bat.Vector, bool) {
	switch a.Type() {
	case bat.Int:
		if s, ok := adjoinSlice(a.Ints(), w.Ints()); ok {
			return bat.NewIntVector(s), true
		}
	case bat.String:
		if s, ok := adjoinSlice(a.Strings(), w.Strings()); ok {
			return bat.NewStringVector(s), true
		}
	default:
		if s, ok := adjoinSlice(a.Floats(), w.Floats()); ok {
			return bat.NewFloatVector(s), true
		}
	}
	return nil, false
}

func adjoinSlice[T any](a, w []T) ([]T, bool) {
	if len(a) == 0 || len(w) == 0 || cap(a)-len(a) < len(w) {
		return nil, false
	}
	ext := a[:len(a)+len(w)]
	return ext, &ext[len(a)] == &w[0]
}

// cloneVec copies v into an arena vector.
func cloneVec(c *exec.Ctx, v *bat.Vector) *bat.Vector {
	switch v.Type() {
	case bat.Int:
		out := c.Arena().Int64s(v.Len())
		copy(out, v.Ints())
		return bat.NewIntVector(out)
	case bat.String:
		out := c.Arena().Strings(v.Len())
		copy(out, v.Strings())
		return bat.NewStringVector(out)
	}
	out := c.Arena().Floats(v.Len())
	copy(out, v.Floats())
	return bat.NewFloatVector(out)
}

// runStreamProject drains the stream through the per-morsel projection:
// every select item's program evaluates over each morsel, and its vector
// is appended to a plain output column. When an ORDER BY key needs
// unselected input columns, the morsels' (pruned) input columns are kept
// alongside for finishOutput. Without DISTINCT or ORDER BY, a LIMIT
// stops the pull as soon as enough rows have been produced; a bounded
// ORDER BY ... LIMIT without DISTINCT folds the morsels into its k rows
// instead (runStreamTopK).
func runStreamProject(c *exec.Ctx, sel *SelectStmt, plan *selectPlan, st rowStream, ps *exec.PipelineStats) (*rel.Relation, error) {
	if topK(sel) && !sel.Distinct {
		return runStreamTopK(c, sel.Limit, plan, st, ps)
	}
	out := make([]colBuf, len(plan.proj))
	for k := range out {
		out[k].typ = plan.outSchema[k].Type
	}
	var in []colBuf
	if plan.sortInput {
		in = make([]colBuf, len(plan.root.outTypes))
		for k := range in {
			in[k].typ = plan.root.outTypes[k]
		}
	}
	tr := ps.Stage("project")
	rows := 0
	earlyStop := sel.Limit >= 0 && !sel.Distinct && len(sel.OrderBy) == 0
	for !(earlyStop && rows >= sel.Limit) {
		mb, err := st.next(c)
		if err != nil {
			return nil, err
		}
		if mb == nil {
			break
		}
		f := batchFrame(c, mb)
		for k, p := range plan.proj {
			v, err := p.val(f, nil)
			if err != nil {
				f.release()
				mb.Release(c)
				return nil, err
			}
			col := f.input(v)
			out[k].add(c, v, col >= 0 && !mb.Owned(col), col < 0)
		}
		f.release()
		for k := range in {
			in[k].add(c, mb.Col(k), !mb.Owned(k), false)
		}
		rows += mb.Len()
		tr.Batch(mb.Len(), 0)
		mb.Release(c)
	}
	outCols := make([]*bat.BAT, len(out))
	owned := make([]bool, len(out))
	for k := range out {
		v, own := out[k].vector(c, rows)
		outCols[k], owned[k] = bat.FromVector(v), own
	}
	res, err := rel.New("", plan.outSchema, outCols)
	if err != nil {
		return nil, err
	}
	var inFrame *frame
	if in != nil {
		inFrame = &frame{c: c, n: rows, cols: make([]*bat.Vector, len(in))}
		inOwned := make([]bool, len(in))
		for k := range in {
			inFrame.cols[k], inOwned[k] = in[k].vector(c, rows)
		}
		defer func() {
			inFrame.release()
			for k, v := range inFrame.cols {
				if inOwned[k] {
					freeVec(c, v)
				}
			}
		}()
	}
	return finishOutput(c, sel, res, owned, plan.order, inFrame)
}

// runStreamTopK is runStreamProject for ORDER BY ... LIMIT k: it folds
// each projected morsel into the rows kept so far, kept = the first k of
// (kept ++ morsel) under bat.TopKeys. The kept rows are held in order and
// all come from earlier morsels, so among equal keys their order in the
// concatenation is their global row order, and the fold ends with the
// first k rows of the stable sort of every row: bitwise the result of
// sorting, gathering and limiting. Keys marked input evaluate over the
// morsel's own frame, so no input column is kept, and the statement holds
// O(k + bat.MorselSize) rows whatever its input's length. Every morsel is
// projected and keyed in full, so an expression that fails on a row the
// fold drops fails the statement as the full sort would.
func runStreamTopK(c *exec.Ctx, k int, plan *selectPlan, st rowStream, ps *exec.PipelineStats) (*rel.Relation, error) {
	pt, tr := ps.Stage("project"), ps.Stage("topk")
	// kept holds the projected columns, then the ORDER BY keys.
	kept := bat.NewBatch(0)
	for _, a := range plan.outSchema {
		kept.AddCol(bat.NewEmptyVector(a.Type, 0), false)
	}
	for _, ok := range plan.order {
		kept.AddCol(bat.NewEmptyVector(ok.prog.typ, 0), false)
	}
	defer func() { kept.Release(c) }()
	desc := orderDesc(plan.order)
	var held int64
	for {
		mb, err := st.next(c)
		if err != nil {
			return nil, err
		}
		if mb == nil {
			break
		}
		next, scratch, err := foldTopK(c, k, plan, desc, kept, mb)
		rows := mb.Len()
		mb.Release(c)
		if err != nil {
			return nil, err
		}
		pt.Batch(rows, 0)
		tr.Batch(0, scratch+next.Bytes())
		tr.Unhold(held + scratch)
		held = next.Bytes()
		kept.Release(c)
		kept = next
	}
	tr.Unhold(held)
	tr.Emit(kept.Len())
	cols := make([]*bat.BAT, len(plan.proj))
	for j := range cols {
		cols[j] = bat.FromVector(kept.Col(j))
	}
	res, err := rel.New("", plan.outSchema, cols)
	if err != nil {
		return nil, err
	}
	// The result owns the projected columns; the keys go back.
	for j := len(cols); j < kept.NumCols(); j++ {
		if kept.Owned(j) {
			freeVec(c, kept.Col(j))
		}
	}
	kept = nil
	return res, nil
}

// foldTopK projects and keys one morsel and returns the first k rows of
// kept ++ morsel as a batch of arena columns laid out like kept, with the
// bytes of the concatenated keys it selected them by.
func foldTopK(c *exec.Ctx, k int, plan *selectPlan, desc []bool, kept, mb *bat.Batch) (*bat.Batch, int64, error) {
	f := batchFrame(c, mb)
	p := len(plan.proj)
	cols := make([]*bat.Vector, p, kept.NumCols()) // the morsel's projected columns, then its keys
	of := &frame{c: c, n: mb.Len(), cols: cols}
	defer func() {
		for _, v := range cols[:p] {
			if v != nil {
				f.free(v)
			}
		}
		of.release()
		f.release()
	}()
	for j, prog := range plan.proj {
		v, err := prog.val(f, nil)
		if err != nil {
			return nil, 0, err
		}
		cols[j] = v
	}
	keys, err := orderKeys(plan.order, of, f)
	if err != nil {
		return nil, 0, err
	}
	defer freeOrderKeys(plan.order, keys, of, f)
	cols = append(cols, keys...)

	// The keys of kept's rows, then of the morsel's.
	cat := keys
	scratch := bat.NewBatch(kept.Len() + mb.Len())
	if kept.Len() > 0 {
		cat = make([]*bat.Vector, len(keys))
		for j, v := range keys {
			cat[j] = pickRows(c, kept.Col(p+j), v, nil)
			scratch.AddCol(cat[j], true)
		}
	}
	defer scratch.Release(c)
	idx := bat.TopKeys(c, cat, desc, k)
	defer c.Arena().FreeInts(idx)
	next := bat.NewBatch(len(idx))
	for j, v := range cols {
		next.AddCol(pickRows(c, kept.Col(j), v, idx), true)
	}
	return next, scratch.Bytes(), nil
}

// pickRows gathers the rows idx of a ++ b (nil: every row, in order) into
// an arena vector.
func pickRows(c *exec.Ctx, a, b *bat.Vector, idx []int) *bat.Vector {
	n := len(idx)
	if idx == nil {
		n = a.Len() + b.Len()
	}
	out := bat.NewVectorCtx(c, b.Type(), n)
	switch b.Type() {
	case bat.Int:
		pick(out.Ints(), a.Ints(), b.Ints(), idx)
	case bat.String:
		pick(out.Strings(), a.Strings(), b.Strings(), idx)
	default:
		pick(out.Floats(), a.Floats(), b.Floats(), idx)
	}
	return out
}

func pick[T any](dst, a, b []T, idx []int) {
	if idx == nil {
		copy(dst[copy(dst, a):], b)
		return
	}
	for j, i := range idx {
		if i < len(a) {
			dst[j] = a[i]
		} else {
			dst[j] = b[i-len(a)]
		}
	}
}

// runStreamGrouped drains the stream into the grouped aggregation
// accumulator — the one rel.GroupBy runs over a whole relation — then
// finishes over the grouped relation: HAVING, the projection, and
// the ORDER BY/LIMIT tail, all compiled by the planner against the
// grouped schema. The accumulator is bound to the statement context, so
// a group table that outgrows the spill threshold degrades to disk.
func (db *DB) runStreamGrouped(c *exec.Ctx, sel *SelectStmt, plan *selectPlan, st rowStream, ps *exec.PipelineStats) (*rel.Relation, error) {
	gp := plan.group
	sa, err := rel.NewStreamAgg(c, "", gp.keyNames, gp.keyTypes, gp.specs)
	if err != nil {
		return nil, err
	}
	tr := ps.Stage("group")
	keyVecs := make([]*bat.Vector, len(gp.keyProg))
	aggVecs := make([]*bat.Vector, len(gp.argProg))
	aggIn := make([][]float64, len(gp.argProg))
	for {
		mb, err := st.next(c)
		if err != nil {
			return nil, err
		}
		if mb == nil {
			break
		}
		f := batchFrame(c, mb)
		err = groupInputs(f, gp, keyVecs, aggVecs)
		if err == nil {
			for k, v := range aggVecs {
				aggIn[k] = nil
				if v != nil {
					aggIn[k] = v.Floats()
				}
			}
			err = sa.Consume(keyVecs, aggIn, mb.Len())
		}
		for _, vs := range [][]*bat.Vector{keyVecs, aggVecs} {
			for k, v := range vs {
				if v != nil {
					f.free(v)
					vs[k] = nil
				}
			}
		}
		f.release()
		if err != nil {
			mb.Release(c)
			return nil, err
		}
		tr.Batch(mb.Len(), 0)
		mb.Release(c)
	}
	grouped, err := sa.Finish()
	if err != nil {
		return nil, err
	}
	// Global aggregation over an empty input yields one row of zeros
	// (COUNT(*) = 0), matching SQL semantics.
	if len(gp.keyNames) == 0 && grouped.NumRows() == 0 {
		grouped = zeroAggRow(grouped)
	}
	if gp.having != nil {
		if grouped, err = filterRel(c, grouped, []*compiled{gp.having}); err != nil {
			return nil, err
		}
	}
	f := relFrame(c, grouped)
	defer f.release()
	cols := make([]*bat.BAT, len(plan.proj))
	for k, p := range plan.proj {
		v, err := p.val(f, nil)
		if err != nil {
			return nil, err
		}
		cols[k] = bat.FromVector(v)
	}
	out, err := rel.New("", plan.outSchema, cols)
	if err != nil {
		return nil, err
	}
	return finishOutput(c, sel, out, nil, plan.order, f)
}

// groupInputs evaluates one morsel's grouping keys and aggregate inputs,
// the latter converted to float64 exactly as BAT.FloatsCtx converts an
// int column for rel.GroupBy. Entries stay nil for COUNT(*), and for
// everything after a failing program.
func groupInputs(f *frame, gp *groupPlan, keyVecs, aggVecs []*bat.Vector) error {
	for k, p := range gp.keyProg {
		v, err := p.val(f, nil)
		if err != nil {
			return err
		}
		keyVecs[k] = v
	}
	for k, p := range gp.argProg {
		if p == nil {
			continue
		}
		v, err := p.val(f, nil)
		if err != nil {
			return err
		}
		aggVecs[k] = f.asFloats(v, nil)
	}
	return nil
}
