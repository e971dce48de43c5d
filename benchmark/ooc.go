package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/benchmark/gen"
	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/rel"
	"repro/internal/sql"
	"repro/internal/store"
)

// oocSpill is the out-of-core workload: an in-process sql.DB over
// persisted tables (SetDataDir + LoadPersisted) with SetSpill at a small
// threshold. One operation is a cycle of three statements: a top-100 by an
// external sort, a join and high-cardinality GROUP BY that spill, and a
// 5 % id-range scan that the segment zone maps prune. It is the only
// workload where store reads, exec.Spill I/O and the spilled twins of the
// rel join, aggregation and sort do the work.
type oocSpill struct {
	opts      *core.Options
	db        *sql.DB
	cycles    int // operations run, which the cumulative spill counters are divided by
	spillDir  string
	threshold int64
	fact, dim *gen.Table
	factSeg   string // path of fact's segment file

	top      []int     // fact rows of the top 100 by val desc, id
	groupSum []float64 // per grp: sum of val*w in row order
	groupN   []int64

	storedPerUserByte float64
}

const (
	oocTopSQL   = "SELECT id, val FROM fact ORDER BY val DESC, id LIMIT 100"
	oocGroupSQL = "SELECT f.grp AS grp, SUM(f.val * d.w) AS sv, COUNT(*) AS n FROM fact f JOIN dim d ON f.k = d.k GROUP BY f.grp"
	oocScanSQL  = "SELECT COUNT(*) AS n, SUM(val) AS sv FROM fact WHERE id BETWEEN %d AND %d"
)

func (w *oocSpill) setup(e *env) error {
	w.opts, w.threshold, w.cycles = engineOptions(e.par), e.sz.spillBytes, 0
	w.fact = gen.Fact(e.sz.oocFact, e.sz.oocDim, e.sz.oocFact/4, e.seed)
	w.dim = gen.Dim(e.sz.oocDim, e.seed+1)
	e.track(w.fact, w.dim)

	data := filepath.Join(e.dir, "data")
	w.spillDir = filepath.Join(e.dir, "spill")
	for _, d := range []string{data, w.spillDir} {
		if err := os.Mkdir(d, 0o755); err != nil {
			return err
		}
	}
	w.factSeg = filepath.Join(data, "fact.seg")
	var stored, raw int64
	err := e.timed("store.write", func() error {
		for _, t := range []*gen.Table{w.fact, w.dim} {
			n, err := writeSegment(filepath.Join(data, t.Name+".seg"), t)
			if err != nil {
				return err
			}
			stored, raw = stored+n, raw+t.RawBytes()
		}
		return nil
	})
	if err != nil {
		return err
	}
	w.storedPerUserByte = float64(stored) / float64(raw)

	w.db = sql.NewDB()
	w.db.SetRMAOptions(w.opts)
	if err := w.db.SetDataDir(data); err != nil {
		return err
	}
	err = e.timed("store.load", func() error {
		_, err := w.db.LoadPersisted()
		return err
	})
	if err != nil {
		return err
	}
	w.db.SetSpill(w.spillDir, w.threshold)
	w.reference()
	return nil
}

// reference computes the answers of the first two statements in plain Go:
// a sort of row numbers, and a nested lookup (dim's key is its row number)
// folded into per-group sums in row order.
func (w *oocSpill) reference() {
	id, k, grp, val := w.fact.Col("id").I, w.fact.Col("k").I, w.fact.Col("grp").I, w.fact.Col("val").F
	rows := make([]int, len(id))
	for i := range rows {
		rows[i] = i
	}
	sort.Slice(rows, func(a, b int) bool {
		if val[rows[a]] != val[rows[b]] {
			return val[rows[a]] > val[rows[b]]
		}
		return id[rows[a]] < id[rows[b]]
	})
	w.top = rows[:100]

	dw := w.dim.Col("w").F
	w.groupSum = make([]float64, len(id)/4)
	w.groupN = make([]int64, len(id)/4)
	for i := range id {
		w.groupSum[grp[i]] += val[i] * dw[k[i]]
		w.groupN[grp[i]]++
	}
}

func (w *oocSpill) clients() int { return 1 }
func (w *oocSpill) warmup() int  { return 3 }
func (w *oocSpill) tuples() int  { return w.fact.Rows() + w.dim.Rows() }
func (w *oocSpill) audit() error { return nil }

func (w *oocSpill) close() error {
	if w.db == nil {
		return nil
	}
	return w.db.Close()
}

func (w *oocSpill) sqlOp(i int) (time.Duration, error) { return w.op(0, i) }

// scanRange is operation i's id range: 5 % of the table at a position that
// varies with i.
func (w *oocSpill) scanRange(i int) (lo, hi int64) {
	n := int64(w.fact.Rows())
	width := n / 20
	lo = (int64(i) * 7919 * 131) % (n - width)
	return lo, lo + width - 1
}

func (w *oocSpill) op(_, i int) (time.Duration, error) {
	lo, hi := w.scanRange(i)
	before := w.db.SpillStats()
	w.cycles++
	t0 := time.Now()
	top, err := w.db.Query(oocTopSQL)
	if err != nil {
		return 0, err
	}
	groups, err := w.db.Query(oocGroupSQL)
	if err != nil {
		return 0, err
	}
	scan, err := w.db.Query(fmt.Sprintf(oocScanSQL, lo, hi))
	took := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if w.db.SpillStats().SpilledBytes <= before.SpilledBytes {
		return 0, fmt.Errorf("the cycle spilled nothing")
	}
	// The scan stage of the last statement must have emitted the range's
	// rows and no others: fewer than the table holds.
	for _, st := range w.db.PipelineStats() {
		if st.Name == "scan(fact)" && st.Rows != hi-lo+1 {
			return 0, fmt.Errorf("range scan emitted %d rows, want %d", st.Rows, hi-lo+1)
		}
	}
	return took, w.verify(top, groups, scan, lo, hi)
}

func (w *oocSpill) verify(top, groups, scan *rel.Relation, lo, hi int64) error {
	id, val := w.fact.Col("id").I, w.fact.Col("val").F
	gotID, err := intsOf(top, "id")
	if err != nil {
		return err
	}
	gotVal, err := floatsOf(top, "val")
	if err != nil {
		return err
	}
	if len(gotID) != len(w.top) {
		return fmt.Errorf("top-100 returned %d rows", len(gotID))
	}
	for r, row := range w.top {
		if gotID[r] != id[row] || gotVal[r] != val[row] {
			return fmt.Errorf("top-100 row %d is (%d,%v), want (%d,%v)", r, gotID[r], gotVal[r], id[row], val[row])
		}
	}

	grp, err := intsOf(groups, "grp")
	if err != nil {
		return err
	}
	sv, err := floatsOf(groups, "sv")
	if err != nil {
		return err
	}
	n, err := intsOf(groups, "n")
	if err != nil {
		return err
	}
	present := 0
	for _, c := range w.groupN {
		if c > 0 {
			present++
		}
	}
	if len(grp) != present {
		return fmt.Errorf("%d groups returned, want %d", len(grp), present)
	}
	for r, g := range grp {
		if n[r] != w.groupN[g] || !near(sv[r], w.groupSum[g], w.groupSum[g]) {
			return fmt.Errorf("group %d = (%v,%d), want (%v,%d)", g, sv[r], n[r], w.groupSum[g], w.groupN[g])
		}
	}

	var wantSum float64
	for i := lo; i <= hi; i++ {
		wantSum += val[i] // id is the row number
	}
	gotN, err := intsOf(scan, "n")
	if err != nil {
		return err
	}
	gotSum, err := floatsOf(scan, "sv")
	if err != nil {
		return err
	}
	if len(gotN) != 1 || gotN[0] != hi-lo+1 || !near(gotSum[0], wantSum, wantSum) {
		return fmt.Errorf("range scan = (%v,%v), want (%d,%v)", gotN, gotSum, hi-lo+1, wantSum)
	}
	return nil
}

// replay runs the cycle as direct calls under a context that carries a
// spill manager with the statement threshold: rel.Sort, rel.HashJoin and
// rel.GroupBy then take their disk-backed paths, and the range scan reads
// the segment file through the store, skipping segments by zone map.
func (w *oocSpill) replay(tr *tracer, i int) error {
	sp := exec.NewSpill(w.spillDir, w.threshold)
	defer sp.Cleanup()
	base, done := replayCtx(w.opts)
	defer done()
	c := base.WithSpill(sp)
	fact, err := w.db.Table("fact")
	if err != nil {
		return err
	}
	dim, err := w.db.Table("dim")
	if err != nil {
		return err
	}
	// The planner prunes the columns no clause references.
	probe, err := fact.Project("k", "grp", "val")
	if err != nil {
		return err
	}
	build, err := dim.Project("k", "w")
	if err != nil {
		return err
	}
	lo, hi := w.scanRange(i)
	op := tr.beginOp()

	s := tr.begin("rel.sort")
	pairs, err := fact.Project("id", "val")
	if err != nil {
		return err
	}
	sorted, err := pairs.Sort(c, rel.OrderSpec{Attr: "val", Desc: true}, rel.OrderSpec{Attr: "id"})
	if err != nil {
		return err
	}
	top := sorted.Limit(c, 100)
	tr.end(s, kv{"rows_in", int64(fact.NumRows())}, kv{"rows_out", int64(top.NumRows())})

	joined, err := joinCall(tr, c, probe, build.WithName("d"), []string{"k"}, []string{"k"}, true)
	if err != nil {
		return err
	}

	s = tr.begin("sql.project")
	val, err := floatsOf(joined, "val")
	if err != nil {
		return err
	}
	dw, err := floatsOf(joined, "w")
	if err != nil {
		return err
	}
	vw := make([]float64, len(val))
	for r := range vw {
		vw[r] = val[r] * dw[r]
	}
	grpCol, err := joined.Col("grp")
	if err != nil {
		return err
	}
	weighted := rel.MustNew("weighted", rel.Schema{{Name: "grp", Type: bat.Int}, {Name: "vw", Type: bat.Float}},
		[]*bat.BAT{grpCol, bat.FromFloats(vw)})
	tr.end(s)

	s = tr.begin("rel.group")
	groups, err := rel.GroupBy(c, weighted, []string{"grp"},
		[]rel.AggSpec{{Func: rel.Sum, Attr: "vw", As: "sv"}, {Func: rel.Count, As: "n"}})
	if err != nil {
		return err
	}
	tr.end(s, kv{"rows_in", int64(weighted.NumRows())}, kv{"rows_out", int64(groups.NumRows())})

	s = tr.begin("store.scan")
	rd, err := store.Open(w.factSeg)
	if err != nil {
		return err
	}
	defer rd.Close()
	var n, read int64
	var sum float64
	for seg := 0; seg < rd.NumSegs(); seg++ {
		if !rd.Seg(0, seg).MayContainNum(store.KInt, float64(lo), float64(hi)) {
			continue
		}
		ids, err := rd.ReadSeg(c, 0, seg)
		if err != nil {
			return err
		}
		vals, err := rd.ReadSeg(c, 3, seg)
		if err != nil {
			return err
		}
		for r, id := range ids.I {
			if id >= lo && id <= hi {
				n++
				sum += vals.F[r]
			}
		}
		read += int64(len(ids.I))
		store.ReleaseColData(c, ids)
		store.ReleaseColData(c, vals)
	}
	tr.end(s, kv{"rows_in", read}, kv{"rows_out", n})

	st := sp.Stats()
	tr.end(op, kv{"spilled_bytes", st.SpilledBytes}, kv{"spill_events", st.Events})
	if st.SpilledBytes == 0 {
		return fmt.Errorf("the replayed cycle spilled nothing")
	}
	if read >= int64(fact.NumRows()) {
		return fmt.Errorf("zone maps pruned no segment of the range scan")
	}
	scan := rel.MustNew("scan", rel.Schema{{Name: "n", Type: bat.Int}, {Name: "sv", Type: bat.Float}},
		[]*bat.BAT{bat.FromInts([]int64{n}), bat.FromFloats([]float64{sum})})
	return w.verify(top, groups, scan, lo, hi)
}

// probe reports the stored size per user byte and, from the segment
// file's zone maps, the share of fact's rows a range scan still has to
// read after pruning (mean over the first 20 operations' ranges).
func (w *oocSpill) probe(m map[string]float64) error {
	dbMetrics(w.db, m)
	spill := w.db.SpillStats()
	m["exec.spilled_bytes"] = float64(spill.SpilledBytes) / float64(w.cycles)
	m["exec.spill_events"] = float64(spill.Events) / float64(w.cycles)
	m["store.bytes_per_user_byte"] = w.storedPerUserByte
	rd, err := store.Open(w.factSeg)
	if err != nil {
		return err
	}
	defer rd.Close()
	var kept float64
	const ranges = 20
	for i := 0; i < ranges; i++ {
		lo, hi := w.scanRange(i)
		for seg := 0; seg < rd.NumSegs(); seg++ {
			if rd.Seg(0, seg).MayContainNum(store.KInt, float64(lo), float64(hi)) {
				kept += float64(rd.Seg(0, seg).Rows)
			}
		}
	}
	m["store.scan_rows_frac"] = kept / ranges / float64(rd.Rows())
	return nil
}
