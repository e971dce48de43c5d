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
// sides, the grouping accumulator) consume their input fully, then
// stream or hand off materialized output.
//
// Determinism: morsels are emitted in row order, every per-morsel kernel
// runs serially (MorselSize never exceeds exec.SerialCutoff), and the
// breakers delegate to rel.JoinBuild / rel.StreamAgg, whose results are
// bitwise-identical to rel.HashJoin / rel.GroupBy over the whole input
// at any worker count.

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
// pass: without a predicate morsels are zero-copy views; with one, only
// the matching rows of the needed columns are gathered (arena-drawn).
type scanStream struct {
	vecs     []*bat.Vector // emitted columns, sparse ones densified at open
	owned    [][]float64   // densified buffers handed back at close
	preds    []*compiled   // fused predicate, bound to global row indexes
	idx      []int         // arena scratch for matching rows (nil when no preds)
	skip     []bool        // per-segment zone-map prune flags (persisted tables)
	n, pos   int
	tr       *exec.StageTracker
	prev     int64 // bytes of the last emitted batch, unheld on the next call
	heldOpen int64 // bytes of the densified columns, unheld at close
}

func newScanStream(c *exec.Ctx, n *streamNode, ps *exec.PipelineStats) (*scanStream, error) {
	src := n.leaf
	s := &scanStream{n: src.rel.NumRows(), tr: ps.Stage("scan(" + src.rel.Name + ")")}
	if src.stored != nil && len(n.pred) > 0 {
		s.skip = segSkips(src.stored, src, n.pred, s.n)
	}

	// Columns the scan touches: emitted ones plus predicate inputs.
	// Sparse ones densify once into arena buffers so the per-morsel pass
	// (and the compiled predicate) reads dense storage.
	touched := make(map[int]bool, len(n.needed))
	for _, k := range n.needed {
		touched[k] = true
	}
	for _, p := range n.pred {
		for _, cr := range collectCols(p, nil) {
			if k, err := src.resolve(cr.Qualifier, cr.Name); err == nil {
				touched[k] = true
			}
		}
	}
	// Iterate columns by position, not by ranging the touched map: the
	// densified vectors land in s.owned, and a deterministic order keeps
	// the arena's buffer reuse (and therefore allocation stats) stable
	// across runs.
	var repl []*bat.BAT
	for k := range src.rel.Cols {
		if !touched[k] || !src.rel.Cols[k].IsSparse() {
			continue
		}
		if repl == nil {
			repl = append([]*bat.BAT(nil), src.rel.Cols...)
		}
		v := src.rel.Cols[k].VectorCtx(c)
		s.owned = append(s.owned, v.Floats())
		s.heldOpen += int64(cap(v.Floats())) * 8
		repl[k] = bat.FromVector(v)
	}
	if repl != nil {
		src = &source{
			rel:  &rel.Relation{Name: src.rel.Name, Schema: src.rel.Schema, Cols: repl},
			syms: src.syms,
		}
	}
	s.tr.Hold(s.heldOpen)

	for _, k := range n.needed {
		s.vecs = append(s.vecs, src.rel.Cols[k].Vector())
	}
	for _, p := range n.pred {
		comp, err := compileExpr(p, src) // cannot fail: the planner dry-compiled it
		if err != nil {
			return nil, err
		}
		s.preds = append(s.preds, comp)
	}
	if len(s.preds) > 0 {
		s.idx = c.Arena().Ints(bat.MorselSize)
	}
	return s, nil
}

func (s *scanStream) match(i int) bool {
	for _, p := range s.preds {
		if !truthy(p.fn(i)) {
			return false
		}
	}
	return true
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
		if s.preds == nil {
			b := bat.NewBatch(hi - lo)
			for _, v := range s.vecs {
				b.AddCol(v.View(lo, hi), false)
			}
			s.tr.Batch(b.Len(), 0)
			return b, nil
		}
		idx := s.idx[:0]
		for i := lo; i < hi; i++ {
			if s.match(i) {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			continue
		}
		b := bat.NewBatch(len(idx))
		for _, v := range s.vecs {
			b.AddCol(v.Gather(c, idx), true)
		}
		s.prev = b.Bytes()
		s.tr.Batch(b.Len(), s.prev)
		return b, nil
	}
	return nil, nil
}

func (s *scanStream) close(c *exec.Ctx) {
	s.tr.Unhold(s.prev + s.heldOpen)
	s.prev, s.heldOpen = 0, 0
	for _, f := range s.owned {
		c.Arena().FreeFloats(f)
	}
	s.owned = nil
	if s.idx != nil {
		c.Arena().FreeInts(s.idx)
		s.idx = nil
	}
}

// --- filter ----------------------------------------------------------------

// filterStream keeps the rows of each input morsel on which every
// predicate is truthy. A morsel where all rows survive passes through
// untouched (zero copy); otherwise the survivors are gathered into a
// fresh arena-backed batch.
type filterStream struct {
	in    rowStream
	node  *streamNode
	preds []Expr
	idx   []int
	tr    *exec.StageTracker
	prev  int64
}

func newFilterStream(c *exec.Ctx, in rowStream, n *streamNode, preds []Expr, ps *exec.PipelineStats) *filterStream {
	return &filterStream{in: in, node: n, preds: preds, idx: c.Arena().Ints(bat.MorselSize), tr: ps.Stage("filter")}
}

func (f *filterStream) next(c *exec.Ctx) (*bat.Batch, error) {
	f.tr.Unhold(f.prev)
	f.prev = 0
	for {
		mb, err := f.in.next(c)
		if err != nil || mb == nil {
			return nil, err
		}
		msrc := f.node.batchSource(mb)
		comps := make([]*compiled, len(f.preds))
		for k, p := range f.preds {
			if comps[k], err = compileExpr(p, msrc); err != nil {
				mb.Release(c)
				return nil, err
			}
		}
		idx := f.idx[:0]
	rows:
		for i := 0; i < mb.Len(); i++ {
			for _, comp := range comps {
				if !truthy(comp.fn(i)) {
					continue rows
				}
			}
			idx = append(idx, i)
		}
		switch {
		case len(idx) == 0:
			mb.Release(c)
			continue
		case len(idx) == mb.Len():
			f.tr.Batch(mb.Len(), 0)
			return mb, nil
		}
		out := bat.NewBatch(len(idx))
		for k := 0; k < mb.NumCols(); k++ {
			out.AddCol(mb.Col(k).Gather(c, idx), true)
		}
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
	if f.idx != nil {
		c.Arena().FreeInts(f.idx)
		f.idx = nil
	}
}

// --- equi-join -------------------------------------------------------------

// joinStream probes each left morsel against a build side materialized
// and indexed at open. Pushed-down build filters run before indexing,
// and the hash table is pre-sized with the exact post-filter row count.
type joinStream struct {
	in        rowStream
	node      *streamNode
	jb        *rel.JoinBuild
	buildVecs []*bat.Vector // needed build columns, sparse ones densified
	buildOwn  [][]float64
	filtered  []*rel.Relation // pushed-down-filter intermediates, freed at close
	leftOuter bool
	tr        *exec.StageTracker
	prev      int64
	heldOpen  int64
}

func newJoinStream(c *exec.Ctx, n *streamNode, in rowStream, ps *exec.PipelineStats) (*joinStream, error) {
	right := n.right
	var filtered []*rel.Relation
	var err error
	for _, p := range n.rightPred {
		if right, err = filterSource(c, right, p); err != nil {
			freeFiltered(c, filtered)
			return nil, err
		}
		filtered = append(filtered, right.rel)
	}
	keys, err := keyCols(right, n.rk)
	if err != nil {
		freeFiltered(c, filtered)
		return nil, err
	}
	jb, err := rel.NewJoinBuild(c, keys, right.rel.NumRows())
	if err != nil {
		freeFiltered(c, filtered)
		return nil, err
	}
	j := &joinStream{in: in, node: n, jb: jb, filtered: filtered, leftOuter: n.kind == JoinLeft, tr: ps.Stage("join")}
	for _, k := range n.needed {
		col := right.rel.Cols[k]
		v := col.VectorCtx(c)
		if col.IsSparse() {
			j.buildOwn = append(j.buildOwn, v.Floats())
			j.heldOpen += int64(cap(v.Floats())) * 8
		}
		j.buildVecs = append(j.buildVecs, v)
	}
	j.tr.Hold(j.heldOpen)
	return j, nil
}

func (j *joinStream) next(c *exec.Ctx) (*bat.Batch, error) {
	j.tr.Unhold(j.prev)
	j.prev = 0
	for {
		mb, err := j.in.next(c)
		if err != nil || mb == nil {
			return nil, err
		}
		msrc := j.node.left.batchSource(mb)
		keys := make([]*bat.BAT, len(j.node.lk))
		for k, e := range j.node.lk {
			comp, err := compileExpr(e, msrc)
			if err != nil {
				mb.Release(c)
				return nil, err
			}
			keys[k] = bat.FromVector(materializeVec(c, comp, mb.Len()))
		}
		li, ri, anyUnmatched, err := j.jb.Probe(c, keys, j.leftOuter)
		for _, kb := range keys {
			freeVec(c, kb.Vector())
		}
		if err != nil {
			mb.Release(c)
			return nil, err
		}
		if len(li) == 0 {
			c.Arena().FreeInts(li)
			c.Arena().FreeInts(ri)
			mb.Release(c)
			continue
		}
		out := bat.NewBatch(len(li))
		for k := 0; k < mb.NumCols(); k++ {
			out.AddCol(mb.Col(k).Gather(c, li), true)
		}
		pad := j.leftOuter && anyUnmatched
		for _, v := range j.buildVecs {
			out.AddCol(gatherVecPadded(c, v, ri, pad), true)
		}
		mb.Release(c)
		c.Arena().FreeInts(li)
		c.Arena().FreeInts(ri)
		j.prev = out.Bytes()
		j.tr.Batch(out.Len(), j.prev)
		return out, nil
	}
}

func (j *joinStream) close(c *exec.Ctx) {
	j.tr.Unhold(j.prev + j.heldOpen)
	j.prev, j.heldOpen = 0, 0
	j.in.close(c)
	if j.jb != nil {
		j.jb.Release(c)
		j.jb = nil
	}
	for _, f := range j.buildOwn {
		c.Arena().FreeFloats(f)
	}
	j.buildOwn = nil
	freeFiltered(c, j.filtered)
	j.filtered, j.buildVecs = nil, nil
}

// --- cross join ------------------------------------------------------------

// crossStream pairs every left-morsel row with every build-side row, in
// i-major order (left rows outer, build rows inner), emitting
// pair chunks of at most MorselSize rows.
type crossStream struct {
	in        rowStream
	rightVecs []*bat.Vector
	rightOwn  [][]float64
	filtered  []*rel.Relation // pushed-down-filter intermediates, freed at close
	nr        int
	cur       *bat.Batch // left morsel currently being expanded
	i, j      int        // cursor into cur × right
	li, ri    []int      // arena pair scratch
	tr        *exec.StageTracker
	prev      int64
	heldOpen  int64
}

func newCrossStream(c *exec.Ctx, n *streamNode, in rowStream, ps *exec.PipelineStats) (*crossStream, error) {
	right := n.right
	var filtered []*rel.Relation
	var err error
	for _, p := range n.rightPred {
		if right, err = filterSource(c, right, p); err != nil {
			freeFiltered(c, filtered)
			return nil, err
		}
		filtered = append(filtered, right.rel)
	}
	x := &crossStream{
		in: in, nr: right.rel.NumRows(), filtered: filtered,
		li: c.Arena().Ints(bat.MorselSize), ri: c.Arena().Ints(bat.MorselSize),
		tr: ps.Stage("cross"),
	}
	for _, k := range n.needed {
		col := right.rel.Cols[k]
		v := col.VectorCtx(c)
		if col.IsSparse() {
			x.rightOwn = append(x.rightOwn, v.Floats())
			x.heldOpen += int64(cap(v.Floats())) * 8
		}
		x.rightVecs = append(x.rightVecs, v)
	}
	x.tr.Hold(x.heldOpen)
	return x, nil
}

func (x *crossStream) next(c *exec.Ctx) (*bat.Batch, error) {
	x.tr.Unhold(x.prev)
	x.prev = 0
	if x.nr == 0 {
		return nil, nil
	}
	for {
		if x.cur == nil {
			mb, err := x.in.next(c)
			if err != nil || mb == nil {
				return nil, err
			}
			x.cur, x.i, x.j = mb, 0, 0
		}
		li, ri := x.li[:0], x.ri[:0]
		for len(li) < bat.MorselSize && x.i < x.cur.Len() {
			li = append(li, x.i)
			ri = append(ri, x.j)
			x.j++
			if x.j == x.nr {
				x.j = 0
				x.i++
			}
		}
		out := bat.NewBatch(len(li))
		for k := 0; k < x.cur.NumCols(); k++ {
			out.AddCol(x.cur.Col(k).Gather(c, li), true)
		}
		for _, v := range x.rightVecs {
			out.AddCol(v.Gather(c, ri), true)
		}
		if x.i >= x.cur.Len() {
			x.cur.Release(c)
			x.cur = nil
		}
		x.prev = out.Bytes()
		x.tr.Batch(out.Len(), x.prev)
		return out, nil
	}
}

func (x *crossStream) close(c *exec.Ctx) {
	x.tr.Unhold(x.prev + x.heldOpen)
	x.prev, x.heldOpen = 0, 0
	x.in.close(c)
	x.cur.Release(c)
	x.cur = nil
	if x.li != nil {
		c.Arena().FreeInts(x.li)
		c.Arena().FreeInts(x.ri)
		x.li, x.ri = nil, nil
	}
	for _, f := range x.rightOwn {
		c.Arena().FreeFloats(f)
	}
	x.rightOwn = nil
	freeFiltered(c, x.filtered)
	x.filtered, x.rightVecs = nil, nil
}

// --- helpers ---------------------------------------------------------------

// materializeVec evaluates a compiled expression over one morsel into an
// arena-drawn vector of the expression's type.
func materializeVec(c *exec.Ctx, comp *compiled, n int) *bat.Vector {
	switch comp.typ {
	case bat.Int:
		out := c.Arena().Int64s(n)
		for i := 0; i < n; i++ {
			out[i] = comp.fn(i).I
		}
		return bat.NewIntVector(out)
	case bat.String:
		out := c.Arena().Strings(n)
		for i := 0; i < n; i++ {
			out[i] = comp.fn(i).S
		}
		return bat.NewStringVector(out)
	default:
		out := c.Arena().Floats(n)
		for i := 0; i < n; i++ {
			out[i] = comp.fn(i).F
		}
		return bat.NewFloatVector(out)
	}
}

// freeFiltered hands back the build-side relations a pushed-down filter
// materialized (rel.Select gathers every column into arena buffers).
// The whole chain of intermediates is freed together at close: a later
// filter gathers from the previous relation, and the final relation's
// dense columns are aliased by buildVecs/rightVecs until the last probe.
// Sparse gather results are plain heap slices and have nothing to return.
func freeFiltered(c *exec.Ctx, rels []*rel.Relation) {
	for _, r := range rels {
		for _, col := range r.Cols {
			if !col.IsSparse() {
				freeVec(c, col.Vector())
			}
		}
	}
}

// freeVec hands a materializeVec (or Gather) buffer back to the arena.
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

// aggInput evaluates one aggregate argument over a morsel into an
// arena-drawn float column, converting ints with the exact float64(int)
// conversion rel.GroupBy's FloatsCtx applies.
func aggInput(c *exec.Ctx, comp *compiled, n int) []float64 {
	out := c.Arena().Floats(n)
	if comp.typ == bat.Int {
		for i := 0; i < n; i++ {
			out[i] = float64(comp.fn(i).I)
		}
		return out
	}
	for i := 0; i < n; i++ {
		out[i] = comp.fn(i).F
	}
	return out
}

// gatherVecPadded gathers v at idx into an arena buffer; pad marks that
// idx may contain -1 (unmatched left-outer probe rows), which produce
// the zero value of the column's domain — the same padding rel.HashJoin
// applies.
func gatherVecPadded(c *exec.Ctx, v *bat.Vector, idx []int, pad bool) *bat.Vector {
	if !pad {
		return v.Gather(c, idx)
	}
	n := len(idx)
	switch v.Type() {
	case bat.Int:
		src := v.Ints()
		out := c.Arena().Int64s(n)
		for k, j := range idx {
			if j < 0 {
				out[k] = 0
			} else {
				out[k] = src[j]
			}
		}
		return bat.NewIntVector(out)
	case bat.String:
		src := v.Strings()
		out := c.Arena().Strings(n)
		for k, j := range idx {
			if j < 0 {
				out[k] = ""
			} else {
				out[k] = src[j]
			}
		}
		return bat.NewStringVector(out)
	default:
		src := v.Floats()
		out := c.Arena().Floats(n)
		for k, j := range idx {
			if j < 0 {
				out[k] = 0
			} else {
				out[k] = src[j]
			}
		}
		return bat.NewFloatVector(out)
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
	var out rowStream
	if len(n.lk) > 0 {
		out, err = newJoinStream(c, n, in, ps)
	} else {
		out, err = newCrossStream(c, n, in, ps)
	}
	if err != nil {
		in.close(c)
		return nil, err
	}
	if filters := append(append([]Expr(nil), n.residual...), n.post...); len(filters) > 0 {
		out = newFilterStream(c, out, n, filters, ps)
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

// colBuf grows one plain heap column across morsels.
type colBuf struct {
	typ bat.Type
	f   []float64
	i   []int64
	s   []string
}

// addCompiled appends a compiled expression's values over n morsel rows.
func (b *colBuf) addCompiled(comp *compiled, n int) {
	switch b.typ {
	case bat.Int:
		for r := 0; r < n; r++ {
			b.i = append(b.i, comp.fn(r).I)
		}
	case bat.String:
		for r := 0; r < n; r++ {
			b.s = append(b.s, comp.fn(r).S)
		}
	default:
		for r := 0; r < n; r++ {
			b.f = append(b.f, comp.fn(r).F)
		}
	}
}

// addVector appends a morsel column.
func (b *colBuf) addVector(v *bat.Vector) {
	switch b.typ {
	case bat.Int:
		b.i = append(b.i, v.Ints()...)
	case bat.String:
		b.s = append(b.s, v.Strings()...)
	default:
		b.f = append(b.f, v.Floats()...)
	}
}

func (b *colBuf) bat(rows int) *bat.BAT {
	switch b.typ {
	case bat.Int:
		return bat.FromInts(b.i[:rows:rows])
	case bat.String:
		return bat.FromStrings(b.s[:rows:rows])
	}
	return bat.FromFloats(b.f[:rows:rows])
}

// runStreamProject drains the stream through the per-morsel projection:
// every select item is compiled against each morsel and appended to
// plain output columns. When an ORDER BY key needs unselected input
// columns, the morsels' (pruned) input columns are kept alongside and
// handed to finishOutput as its fallback source. Without DISTINCT or
// ORDER BY, a LIMIT stops the pull as soon as enough rows have been
// produced.
func runStreamProject(c *exec.Ctx, sel *SelectStmt, plan *selectPlan, st rowStream, ps *exec.PipelineStats) (*rel.Relation, error) {
	out := make([]colBuf, len(plan.items))
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
		msrc := plan.root.batchSource(mb)
		mn := mb.Len()
		for k, it := range plan.items {
			comp, err := compileExpr(it.Expr, msrc)
			if err != nil {
				mb.Release(c)
				return nil, err
			}
			out[k].addCompiled(comp, mn)
		}
		for k := range in {
			in[k].addVector(mb.Col(k))
		}
		rows += mn
		tr.Batch(mn, 0)
		mb.Release(c)
	}
	outCols := make([]*bat.BAT, len(out))
	for k := range out {
		outCols[k] = out[k].bat(rows)
	}
	res, err := rel.New("", plan.outSchema, outCols)
	if err != nil {
		return nil, err
	}
	var inSrc *source
	if in != nil {
		inCols := make([]*bat.BAT, len(in))
		for k := range in {
			inCols[k] = in[k].bat(rows)
		}
		inSrc = &source{rel: &rel.Relation{Schema: plan.root.batchSchema(), Cols: inCols}, syms: plan.root.outSyms}
	}
	return finishOutput(c, sel, res, plan.outSyms, inSrc)
}

// runStreamGrouped drains the stream into the streaming aggregation
// accumulator — bitwise-identical to rel.GroupBy over the whole input —
// then finishes over the grouped relation: rewrite aggregate and key
// expressions into grouped-column references, apply HAVING, and run the
// projection/ORDER BY/LIMIT tail. The accumulator is bound to the
// statement context, so a group table that outgrows the spill threshold
// degrades to disk.
func (db *DB) runStreamGrouped(c *exec.Ctx, sel *SelectStmt, plan *selectPlan, st rowStream, ps *exec.PipelineStats) (*rel.Relation, error) {
	gp := plan.group
	sa, err := rel.NewStreamAgg(c, "", gp.keyNames, gp.keyTypes, gp.specs)
	if err != nil {
		return nil, err
	}
	tr := ps.Stage("group")
	keyVecs := make([]*bat.Vector, len(gp.keyNames))
	aggIn := make([][]float64, len(gp.specs))
	for {
		mb, err := st.next(c)
		if err != nil {
			return nil, err
		}
		if mb == nil {
			break
		}
		msrc := plan.root.batchSource(mb)
		mn := mb.Len()
		for k, g := range sel.GroupBy {
			comp, err := compileExpr(g, msrc)
			if err != nil {
				mb.Release(c)
				return nil, err
			}
			keyVecs[k] = materializeVec(c, comp, mn)
		}
		for k, e := range gp.argExprs {
			if e == nil {
				aggIn[k] = nil
				continue
			}
			comp, err := compileExpr(e, msrc)
			if err != nil {
				mb.Release(c)
				return nil, err
			}
			aggIn[k] = aggInput(c, comp, mn)
		}
		if err := sa.Consume(keyVecs, aggIn, mn); err != nil {
			mb.Release(c)
			return nil, err
		}
		for k, v := range keyVecs {
			freeVec(c, v)
			keyVecs[k] = nil
		}
		for k, f := range aggIn {
			if f != nil {
				c.Arena().FreeFloats(f)
				aggIn[k] = nil
			}
		}
		tr.Batch(mn, 0)
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
	src := newSource(grouped, grpQual)

	items, having := groupedItems(plan.items, sel.GroupBy, gp.aggs, sel.Having)
	if having != nil {
		if src, err = filterSource(c, src, having); err != nil {
			return nil, err
		}
	}
	return finishSelect(c, sel, items, src)
}
