package main

import (
	"fmt"
	"math"
	"time"

	"repro/benchmark/gen"
	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/rel"
	"repro/internal/sql"
	"repro/rma"
)

// tripsOLS is the paper's §8.6(1) / Fig. 15 analysis: keep the trips of
// routes ridden at least 50 times, join both stations, compute the
// distance, then regress duration on distance with
// MMU(INV(CPD(A,A)),CPD(A,V)). One operation is the whole analysis through
// rma.DB SQL: the preparation statement, DB.Register of its result, the
// RMA statement.
type tripsOLS struct {
	opts            *core.Options
	db              *rma.DB
	trips, stations *rel.Relation
	want            [2]float64 // closed-form intercept and slope
	first           []float64  // first verified answer; the engine must repeat it bitwise
}

const tripsPrepSQL = `SELECT t.id AS i, 1.0 AS b0,
  SQRT((s1.lat - s2.lat) * 111.0 * (s1.lat - s2.lat) * 111.0 + (s1.lon - s2.lon) * 78.8 * (s1.lon - s2.lon) * 78.8) AS b1,
  t.duration AS dur
FROM trips t
JOIN (SELECT start_station AS fs, end_station AS fe FROM trips
      GROUP BY start_station, end_station HAVING COUNT(*) >= 50) f
  ON t.start_station = f.fs AND t.end_station = f.fe
JOIN stations s1 ON t.start_station = s1.code
JOIN stations s2 ON t.end_station = s2.code`

// The coefficient names b0 < b1 sort like the schema order, which INV's
// row order by C relies on (as the paper's Figure 6 pipeline does).
const tripsOLSSQL = `SELECT * FROM MMU(
  INV(CPD((SELECT i, b0, b1 FROM prep) a BY i, (SELECT i, b0, b1 FROM prep) a2 BY i) BY C) BY C,
  CPD((SELECT i, b0, b1 FROM prep) a3 BY i, (SELECT i AS i2, dur FROM prep) v BY i2) BY C)`

func (w *tripsOLS) setup(e *env) error {
	tt, st := gen.Trips(e.sz.trips, e.sz.stations, e.seed)
	e.track(tt, st)
	w.opts, w.first = engineOptions(e.par), nil
	w.trips, w.stations = toRelation(tt), toRelation(st)
	w.db = rma.NewDB()
	w.db.SetRMAOptions(w.opts)
	w.db.Register("trips", w.trips)
	w.db.Register("stations", w.stations)
	w.want = tripsReference(tt, st)
	return nil
}

// tripsReference computes the regression in plain Go: route counts in a
// map, distances from the station arrays, then the closed-form simple
// regression slope = Sxy/Sxx, intercept = mean(y) - slope*mean(x).
func tripsReference(trips, stations *gen.Table) [2]float64 {
	type route [2]int64
	start, end, dur := trips.Col("start_station").I, trips.Col("end_station").I, trips.Col("duration").F
	rides := make(map[route]int)
	for i := range start {
		rides[route{start[i], end[i]}]++
	}
	at := make(map[int64]int)
	for i, c := range stations.Col("code").I {
		at[c] = i
	}
	lat, lon := stations.Col("lat").F, stations.Col("lon").F
	var x, y []float64
	for i := range start {
		if rides[route{start[i], end[i]}] < 50 {
			continue
		}
		s, e := at[start[i]], at[end[i]]
		dy := (lat[s] - lat[e]) * 111.0
		dx := (lon[s] - lon[e]) * 78.8
		x = append(x, math.Sqrt(dx*dx+dy*dy))
		y = append(y, dur[i])
	}
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= float64(len(x))
	my /= float64(len(y))
	var sxy, sxx float64
	for i := range x {
		sxy += (x[i] - mx) * (y[i] - my)
		sxx += (x[i] - mx) * (x[i] - mx)
	}
	slope := sxy / sxx
	return [2]float64{my - slope*mx, slope}
}

func (w *tripsOLS) clients() int { return 1 }
func (w *tripsOLS) warmup() int  { return 5 }
func (w *tripsOLS) tuples() int  { return w.trips.NumRows() + w.stations.NumRows() }
func (w *tripsOLS) audit() error { return nil }
func (w *tripsOLS) close() error { return w.db.Close() }

func (w *tripsOLS) sqlOp(i int) (time.Duration, error) { return w.op(0, i) }

func (w *tripsOLS) op(_, _ int) (time.Duration, error) {
	t0 := time.Now()
	prep, err := w.db.Query(tripsPrepSQL)
	if err != nil {
		return 0, err
	}
	w.db.Register("prep", prep)
	beta, err := w.db.Query(tripsOLSSQL)
	took := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return took, w.verify(beta, true)
}

// verify checks the coefficients against the closed form to relTol and,
// for the SQL operation, bitwise against the first answer.
func (w *tripsOLS) verify(beta *rel.Relation, repeatable bool) error {
	names, err := stringsOf(beta, "C")
	if err != nil {
		return err
	}
	vals, err := floatsOf(beta, "dur")
	if err != nil {
		return err
	}
	if len(names) != 2 || names[0] != "b0" || names[1] != "b1" {
		return fmt.Errorf("coefficient rows %v, want [b0 b1]", names)
	}
	for k, want := range w.want {
		if !near(vals[k], want, want) {
			return fmt.Errorf("coefficient %s = %v, closed form gives %v", names[k], vals[k], want)
		}
	}
	if !repeatable {
		return nil
	}
	if w.first == nil {
		w.first = append([]float64(nil), vals...)
	} else if !sameBits(vals, w.first) {
		return fmt.Errorf("coefficients %v differ bitwise from the first answer %v", vals, w.first)
	}
	return nil
}

// replay performs the analysis as the direct layer calls the two
// statements come down to.
func (w *tripsOLS) replay(tr *tracer, _ int) error {
	c, done := replayCtx(w.opts)
	defer done()
	route := []string{"start_station", "end_station"}
	op := tr.beginOp()
	// The planner prunes the columns no clause references.
	trips, err := w.trips.Project("id", "start_station", "end_station", "duration")
	if err != nil {
		return err
	}
	stations, err := w.stations.Project("code", "lat", "lon")
	if err != nil {
		return err
	}

	s := tr.begin("rel.group")
	counts, err := rel.GroupBy(c, trips, route, []rel.AggSpec{{Func: rel.Count, As: "n"}})
	if err != nil {
		return err
	}
	tr.end(s, kv{"rows_in", int64(trips.NumRows())}, kv{"rows_out", int64(counts.NumRows())})

	s = tr.begin("rel.select")
	n, err := intsOf(counts, "n")
	if err != nil {
		return err
	}
	frequent, err := counts.Select(c, func(i int) bool { return n[i] >= 50 }).Drop("n")
	if err != nil {
		return err
	}
	tr.end(s, kv{"rows_in", int64(counts.NumRows())}, kv{"rows_out", int64(frequent.NumRows())})

	kept, err := joinCall(tr, c, trips, frequent, route, route, true)
	if err != nil {
		return err
	}
	s1, err := stations.Rename(map[string]string{"code": "c1", "lat": "lat1", "lon": "lon1"})
	if err != nil {
		return err
	}
	s2, err := stations.Rename(map[string]string{"code": "c2", "lat": "lat2", "lon": "lon2"})
	if err != nil {
		return err
	}
	j1, err := joinCall(tr, c, kept, s1, []string{"start_station"}, []string{"c1"}, true)
	if err != nil {
		return err
	}
	j2, err := joinCall(tr, c, j1, s2, []string{"end_station"}, []string{"c2"}, true)
	if err != nil {
		return err
	}

	// The SELECT list: the distance expression and the constant column.
	s = tr.begin("sql.project")
	var col [5][]float64
	for k, name := range []string{"lat1", "lon1", "lat2", "lon2", "duration"} {
		if col[k], err = floatsOf(j2, name); err != nil {
			return err
		}
	}
	id, err := intsOf(j2, "id")
	if err != nil {
		return err
	}
	ones := make([]float64, len(id))
	dist := make([]float64, len(id))
	for i := range id {
		ones[i] = 1
		dist[i] = math.Sqrt((col[0][i]-col[2][i])*111.0*(col[0][i]-col[2][i])*111.0 +
			(col[1][i]-col[3][i])*78.8*(col[1][i]-col[3][i])*78.8)
	}
	a := rel.MustNew("a", rel.Schema{{Name: "i", Type: bat.Int}, {Name: "b0", Type: bat.Float}, {Name: "b1", Type: bat.Float}},
		[]*bat.BAT{bat.FromInts(id), bat.FromFloats(ones), bat.FromFloats(dist)})
	v := rel.MustNew("v", rel.Schema{{Name: "i2", Type: bat.Int}, {Name: "dur", Type: bat.Float}},
		[]*bat.BAT{bat.FromInts(id), bat.FromFloats(col[4])})
	tr.end(s, kv{"rows_out", int64(len(id))})

	ata, err := rmaCall(tr, "core.cpd", w.opts, func(o *core.Options) (*rel.Relation, error) {
		return core.Cpd(a, []string{"i"}, a.WithName("a2"), []string{"i"}, o)
	})
	if err != nil {
		return err
	}
	inv, err := rmaCall(tr, "core.inv", w.opts, func(o *core.Options) (*rel.Relation, error) {
		return core.Inv(ata, []string{"C"}, o)
	})
	if err != nil {
		return err
	}
	atv, err := rmaCall(tr, "core.cpd", w.opts, func(o *core.Options) (*rel.Relation, error) {
		return core.Cpd(a, []string{"i"}, v, []string{"i2"}, o)
	})
	if err != nil {
		return err
	}
	beta, err := rmaCall(tr, "core.mmu", w.opts, func(o *core.Options) (*rel.Relation, error) {
		return core.Mmu(inv, []string{"C"}, atv, []string{"C"}, o)
	})
	if err != nil {
		return err
	}
	tr.end(op)
	return w.verify(beta, false)
}

func (w *tripsOLS) probe(m map[string]float64) error {
	dbMetrics(w.db.DB, m)
	return nil
}

// dbMetrics reads an in-process database's books: the bench tenant's peak
// bytes and pool hit rate, and the plan cache's hit rate.
func dbMetrics(db *sql.DB, m map[string]float64) {
	books := db.Metrics()
	for _, st := range books.Tenants {
		if st.Tenant == tenant {
			m["exec.peak_bytes"] = float64(st.PeakBytes)
			m["exec.pool_hit_rate"] = st.HitRate()
		}
	}
	if pc := books.PlanCache; pc.Hits+pc.Misses > 0 {
		m["sql.plan_cache_hit_rate"] = float64(pc.Hits) / float64(pc.Hits+pc.Misses)
	}
}
