// Package bench implements the paper's evaluation (Section 8): one
// experiment per table and figure, each printing the same rows or series
// the paper reports, plus the four mixed workloads of §8.6 implemented for
// every engine (RMA+, R, AIDA, MADlib, SciDB) on their respective
// substrates.
package bench

import (
	"fmt"
	"math"
	"time"

	"repro/internal/bat"
	"repro/internal/competitor/aida"
	"repro/internal/competitor/madlib"
	"repro/internal/competitor/rsim"
	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/rel"
)

// WorkloadResult carries the timings of one mixed-workload run, split the
// way Figures 15-18 are: relational preparation vs matrix computation
// (plus load time where the engine parses external data).
type WorkloadResult struct {
	Load   time.Duration
	Prep   time.Duration
	Matrix time.Duration
	// Check is a scalar derived from the result (e.g. the OLS slope) so
	// that engines can be cross-validated.
	Check float64
}

// Total returns the summed runtime.
func (w WorkloadResult) Total() time.Duration { return w.Load + w.Prep + w.Matrix }

// --- Workload 1: Trips — ordinary linear regression (Figure 15) -----------

// tripPrep holds the prepared regression inputs shared by engines that use
// the native relational engine.
type tripPrep struct {
	dist []float64
	dur  []float64
}

// prepareTripsNative runs the relational preparation on the column engine:
// aggregate routes, keep those ridden at least minCount times, join the
// station coordinates for both endpoints, compute distances.
func prepareTripsNative(trips, stations *rel.Relation, minCount float64) (*tripPrep, error) {
	counts, err := rel.GroupBy(nil, trips, []string{"start_station", "end_station"},
		[]rel.AggSpec{{Func: rel.Count, As: "n"}})
	if err != nil {
		return nil, err
	}
	nCol, _ := counts.Col("n")
	nInt := nCol.Vector().Ints()
	frequent := counts.Select(nil, func(i int) bool { return float64(nInt[i]) >= minCount })
	frequent, err = frequent.Drop("n")
	if err != nil {
		return nil, err
	}
	kept, err := rel.HashJoin(nil, trips, frequent,
		[]string{"start_station", "end_station"},
		[]string{"start_station", "end_station"}, rel.Inner)
	if err != nil {
		return nil, err
	}
	s1, err := stations.Rename(map[string]string{"code": "c1", "name": "n1", "lat": "lat1", "lon": "lon1"})
	if err != nil {
		return nil, err
	}
	s2, err := stations.Rename(map[string]string{"code": "c2", "name": "n2", "lat": "lat2", "lon": "lon2"})
	if err != nil {
		return nil, err
	}
	j1, err := rel.HashJoin(nil, kept, s1, []string{"start_station"}, []string{"c1"}, rel.Inner)
	if err != nil {
		return nil, err
	}
	j2, err := rel.HashJoin(nil, j1, s2, []string{"end_station"}, []string{"c2"}, rel.Inner)
	if err != nil {
		return nil, err
	}
	return distancesOf(j2, "lat1", "lon1", "lat2", "lon2", "duration")
}

func distancesOf(r *rel.Relation, lat1, lon1, lat2, lon2, dur string) (*tripPrep, error) {
	cols := make([][]float64, 5)
	for k, name := range []string{lat1, lon1, lat2, lon2, dur} {
		c, err := r.Col(name)
		if err != nil {
			return nil, err
		}
		f, err := c.Floats()
		if err != nil {
			return nil, err
		}
		cols[k] = f
	}
	n := r.NumRows()
	p := &tripPrep{dist: make([]float64, n), dur: cols[4]}
	for i := 0; i < n; i++ {
		dy := (cols[0][i] - cols[2][i]) * 111.0
		dx := (cols[1][i] - cols[3][i]) * 78.8
		p.dist[i] = math.Sqrt(dx*dx + dy*dy)
	}
	return p, nil
}

// olsRelations builds the A ([1, dist]) and V (dur) relations for the RMA
// formulation of OLS.
func olsRelations(p *tripPrep) (*rel.Relation, *rel.Relation) {
	n := len(p.dist)
	id := make([]int64, n)
	ones := make([]float64, n)
	for i := range id {
		id[i] = int64(i)
		ones[i] = 1
	}
	// Attribute names must sort like the schema order (b0 before b1):
	// inv orders the rows of its argument by the values of C, and the OLS
	// composition needs that order to match the column order. The paper's
	// Figure 6 pipeline relies on the same property (B, H, N sort
	// alphabetically).
	a := rel.MustNew("A", rel.Schema{
		{Name: "i", Type: bat.Int},
		{Name: "b0", Type: bat.Float},
		{Name: "b1", Type: bat.Float},
	}, []*bat.BAT{bat.FromInts(id), bat.FromFloats(ones), bat.FromFloats(p.dist)})
	v := rel.MustNew("V", rel.Schema{
		{Name: "i2", Type: bat.Int},
		{Name: "dur", Type: bat.Float},
	}, []*bat.BAT{bat.FromInts(id), bat.FromFloats(p.dur)})
	return a, v
}

// olsRMA computes beta = MMU(INV(CPD(A,A)), CPD(A,V)) with the given
// policy and returns the slope.
func olsRMA(a, v *rel.Relation, policy core.Policy) (float64, error) {
	opts := &core.Options{Policy: policy, SortMode: core.SortOptimized}
	ata, err := core.Cpd(a, []string{"i"}, a.WithName("A2"), []string{"i"}, opts)
	if err != nil {
		return 0, err
	}
	inv, err := core.Inv(ata, []string{"C"}, opts)
	if err != nil {
		return 0, err
	}
	atv, err := core.Cpd(a, []string{"i"}, v, []string{"i2"}, opts)
	if err != nil {
		return 0, err
	}
	beta, err := core.Mmu(inv, []string{"C"}, atv, []string{"C"}, opts)
	if err != nil {
		return 0, err
	}
	for i := 0; i < beta.NumRows(); i++ {
		if beta.Value(i, 0).S == "b1" {
			return beta.Value(i, 1).F, nil
		}
	}
	return 0, fmt.Errorf("bench: no slope coefficient")
}

// TripsRMA runs the full workload on RMA+ with the given policy.
func TripsRMA(trips, stations *rel.Relation, policy core.Policy) (WorkloadResult, error) {
	var res WorkloadResult
	t0 := time.Now()
	p, err := prepareTripsNative(trips, stations, 50)
	if err != nil {
		return res, err
	}
	a, v := olsRelations(p)
	res.Prep = time.Since(t0)
	t1 := time.Now()
	slope, err := olsRMA(a, v, policy)
	if err != nil {
		return res, err
	}
	res.Matrix = time.Since(t1)
	res.Check = slope
	return res, nil
}

// TripsAIDA runs the workload as AIDA does: relational preparation on the
// column engine (AIDA pushes it into MonetDB), then the boundary crossing
// into the host runtime — where the date and member columns pay per-value
// conversion — and the matrix part on host arrays.
func TripsAIDA(trips, stations *rel.Relation) (WorkloadResult, error) {
	var res WorkloadResult
	t0 := time.Now()
	// Same relational plan as RMA+, but the joined trip table crosses
	// into Python before the distance computation, as AIDA's host-side
	// workflow does — including its date and string columns.
	counts, err := rel.GroupBy(nil, trips, []string{"start_station", "end_station"},
		[]rel.AggSpec{{Func: rel.Count, As: "n"}})
	if err != nil {
		return res, err
	}
	nCol, _ := counts.Col("n")
	nInt := nCol.Vector().Ints()
	frequent := counts.Select(nil, func(i int) bool { return float64(nInt[i]) >= 50 })
	frequent, _ = frequent.Drop("n")
	kept, err := rel.HashJoin(nil, trips, frequent,
		[]string{"start_station", "end_station"},
		[]string{"start_station", "end_station"}, rel.Inner)
	if err != nil {
		return res, err
	}
	s1, _ := stations.Rename(map[string]string{"code": "c1", "name": "n1", "lat": "lat1", "lon": "lon1"})
	s2, _ := stations.Rename(map[string]string{"code": "c2", "name": "n2", "lat": "lat2", "lon": "lon2"})
	j1, err := rel.HashJoin(nil, kept, s1, []string{"start_station"}, []string{"c1"}, rel.Inner)
	if err != nil {
		return res, err
	}
	j2, err := rel.HashJoin(nil, j1, s2, []string{"end_station"}, []string{"c2"}, rel.Inner)
	if err != nil {
		return res, err
	}
	host := aida.CrossBoundary(j2) // dates/strings convert per value here
	lat1, _ := host.Col("lat1")
	lon1, _ := host.Col("lon1")
	lat2, _ := host.Col("lat2")
	lon2, _ := host.Col("lon2")
	dur, _ := host.Col("duration")
	n := len(dur.Floats)
	dist := make([]float64, n)
	for i := 0; i < n; i++ {
		dy := (lat1.Floats[i] - lat2.Floats[i]) * 111.0
		dx := (lon1.Floats[i] - lon2.Floats[i]) * 78.8
		dist[i] = math.Sqrt(dx*dx + dy*dy)
	}
	res.Prep = time.Since(t0)
	t1 := time.Now()
	slope, err := olsDense(dist, dur.Floats)
	if err != nil {
		return res, err
	}
	res.Matrix = time.Since(t1)
	res.Check = slope
	return res, nil
}

// olsDense solves the simple regression with the dense kernels (the
// NumPy/BLAS path shared by AIDA and R).
func olsDense(dist, dur []float64) (float64, error) {
	ones := make([]float64, len(dist))
	for i := range ones {
		ones[i] = 1
	}
	a := [][]float64{ones, dist}
	inv, err := linalg.Inverse(nil, linalg.CrossProductCols(nil, a, a))
	if err != nil {
		return 0, err
	}
	beta := linalg.MatMulCols(nil, inv, linalg.CrossProductCols(nil, a, [][]float64{dur}), 2)
	return beta[0][1], nil
}

// TripsR runs the workload in the R simulation: CSV load (the dark bar of
// Figure 15a), single-core data.frame preparation, data.frame→matrix
// conversion, BLAS math.
func TripsR(tripsCSV, stationsCSV string) (WorkloadResult, error) {
	var res WorkloadResult
	t0 := time.Now()
	trips, err := rsim.LoadCSV(tripsCSV)
	if err != nil {
		return res, err
	}
	stations, err := rsim.LoadCSV(stationsCSV)
	if err != nil {
		return res, err
	}
	res.Load = time.Since(t0)

	t1 := time.Now()
	// Composite route key (paste(ss, es)), counted single-core.
	ss, _ := trips.Col("start_station")
	es, _ := trips.Col("end_station")
	n := trips.NumRows()
	key := bat.NewEmptyVector(bat.String, n)
	for i := 0; i < n; i++ {
		key.Append(bat.StringValue(ss.Get(i).String() + "|" + es.Get(i).String()))
	}
	trips.Names = append(trips.Names, "route")
	trips.Cols = append(trips.Cols, key)
	counts, err := trips.GroupCount("route")
	if err != nil {
		return res, err
	}
	routeCol, _ := trips.Col("route")
	kept := trips.Filter(func(i int) bool { return counts[routeCol.Strings()[i]] >= 50 })
	// Two merges for the endpoint coordinates.
	st1 := &rsim.DataFrame{Names: []string{"c1", "lat1", "lon1"}}
	code, _ := stations.Col("code")
	lat, _ := stations.Col("lat")
	lon, _ := stations.Col("lon")
	st1.Cols = []*bat.Vector{code, lat, lon}
	m1, err := rsim.Merge(kept, st1, "start_station", "c1")
	if err != nil {
		return res, err
	}
	st2 := &rsim.DataFrame{Names: []string{"c2", "lat2", "lon2"}, Cols: []*bat.Vector{code, lat, lon}}
	m2, err := rsim.Merge(m1, st2, "end_station", "c2")
	if err != nil {
		return res, err
	}
	lat1c, _ := m2.Col("lat1")
	lon1c, _ := m2.Col("lon1")
	lat2c, _ := m2.Col("lat2")
	lon2c, _ := m2.Col("lon2")
	durc, _ := m2.Col("duration")
	nn := m2.NumRows()
	dist := make([]float64, nn)
	dur := make([]float64, nn)
	lat1 := lat1c.Floats()
	lon1 := lon1c.Floats()
	lat2 := lat2c.Floats()
	lon2 := lon2c.Floats()
	durf, _ := durc.AsFloats()
	for i := 0; i < nn; i++ {
		dy := (lat1[i] - lat2[i]) * 111.0
		dx := (lon1[i] - lon2[i]) * 78.8
		dist[i] = math.Sqrt(dx*dx + dy*dy)
		dur[i] = durf[i]
	}
	res.Prep = time.Since(t1)

	t2 := time.Now()
	slope, err := olsDense(dist, dur)
	if err != nil {
		return res, err
	}
	res.Matrix = time.Since(t2)
	res.Check = slope
	return res, nil
}

// TripsMADlib runs the workload on the row store with single-threaded
// UDF regression.
func TripsMADlib(trips, stations *rel.Relation) (WorkloadResult, error) {
	var res WorkloadResult
	t0 := time.Now()
	tb := madlib.FromRelation(trips)
	st := madlib.FromRelation(stations)
	ssIdx, _ := tb.ColIndex("start_station")
	esIdx, _ := tb.ColIndex("end_station")
	counts := make(map[[2]int64]int)
	for _, row := range tb.Rows {
		counts[[2]int64{row[ssIdx].I, row[esIdx].I}]++
	}
	kept := tb.Filter(func(row []bat.Value) bool {
		return counts[[2]int64{row[ssIdx].I, row[esIdx].I}] >= 50
	})
	j1, err := madlib.HashJoin(kept, st, "start_station", "code")
	if err != nil {
		return res, err
	}
	st2 := madlib.FromRelation(stations)
	st2.Schema = rel.Schema{
		{Name: "code2", Type: bat.Int}, {Name: "name2", Type: bat.String},
		{Name: "lat2", Type: bat.Float}, {Name: "lon2", Type: bat.Float},
	}
	j2, err := madlib.HashJoin(j1, st2, "end_station", "code2")
	if err != nil {
		return res, err
	}
	latIdx, _ := j2.ColIndex("lat")
	lonIdx, _ := j2.ColIndex("lon")
	lat2Idx, _ := j2.ColIndex("lat2")
	lon2Idx, _ := j2.ColIndex("lon2")
	durIdx, _ := j2.ColIndex("duration")
	x := make([][]float64, len(j2.Rows))
	y := make([]float64, len(j2.Rows))
	for i, row := range j2.Rows {
		dy := (row[latIdx].F - row[lat2Idx].F) * 111.0
		dx := (row[lonIdx].F - row[lon2Idx].F) * 78.8
		x[i] = []float64{1, math.Sqrt(dx*dx + dy*dy)}
		y[i] = row[durIdx].F
	}
	res.Prep = time.Since(t0)
	t1 := time.Now()
	beta, err := madlib.LinRegr(x, y)
	if err != nil {
		return res, err
	}
	res.Matrix = time.Since(t1)
	res.Check = beta[1]
	return res, nil
}

// --- Workload 3: Conferences — covariance (Figure 17) ----------------------

// CovarianceRMA computes the §8.6(3) workload: covariance of the
// publication counts via centered CPD, then join with the ranking and
// select A++ conferences.
func CovarianceRMA(pubs, ranking *rel.Relation, policy core.Policy) (WorkloadResult, error) {
	var res WorkloadResult
	t0 := time.Now()
	centered, names, err := centerNative(pubs)
	if err != nil {
		return res, err
	}
	res.Prep = time.Since(t0)

	t1 := time.Now()
	opts := &core.Options{Policy: policy, SortMode: core.SortOptimized}
	cov, err := core.Cpd(centered, []string{"author"}, centered.WithName("p2"), []string{"author"}, opts)
	if err != nil {
		return res, err
	}
	nRows := float64(pubs.NumRows())
	scale := 1 / (nRows - 1)
	for k := 1; k < cov.NumCols(); k++ {
		cov.Cols[k] = bat.MulScalar(nil, cov.Cols[k], scale)
	}
	res.Matrix = time.Since(t1)

	// Relational tail: join with the ranking, keep A++ conferences.
	t2 := time.Now()
	joined, err := rel.HashJoin(nil, cov, ranking, []string{"C"}, []string{"conf"}, rel.Inner)
	if err != nil {
		return res, err
	}
	pred, err := joined.StringPred("rating", func(s string) bool { return s == "A++" })
	if err != nil {
		return res, err
	}
	app := joined.Select(nil, pred)
	res.Prep += time.Since(t2)
	res.Check = float64(app.NumRows())
	_ = names
	return res, nil
}

// centerNative subtracts the column means from every application column
// (vectorized BAT arithmetic).
func centerNative(pubs *rel.Relation) (*rel.Relation, []string, error) {
	n := pubs.NumRows()
	cols := make([]*bat.BAT, len(pubs.Cols))
	cols[0] = pubs.Cols[0]
	names := make([]string, 0, len(pubs.Cols)-1)
	for k := 1; k < len(pubs.Cols); k++ {
		sum := bat.Sum(nil, pubs.Cols[k])
		cols[k] = bat.AddScalar(nil, pubs.Cols[k], -sum/float64(n))
		names = append(names, pubs.Schema[k].Name)
	}
	out, err := rel.New(pubs.Name, pubs.Schema, cols)
	return out, names, err
}

// CovarianceR runs the workload in the R simulation: conversion to matrix
// (timed as part of the matrix phase, as in the paper), crossprod, merge.
func CovarianceR(pubs, ranking *rel.Relation) (WorkloadResult, error) {
	var res WorkloadResult
	df := rsim.FromRelation(pubs) // load not timed: paper's fig 17 has no load bar
	t0 := time.Now()
	names := make([]string, 0, len(df.Names)-1)
	for _, n := range df.Names[1:] {
		names = append(names, n)
	}
	res.Prep = time.Since(t0)
	t1 := time.Now()
	m, err := df.ToMatrix(names)
	if err != nil {
		return res, err
	}
	// Center in matrix form, then crossprod (R's BLAS path).
	nRows := m.Rows
	for j := 0; j < m.Cols; j++ {
		var s float64
		for i := 0; i < nRows; i++ {
			s += m.At(i, j)
		}
		mean := s / float64(nRows)
		for i := 0; i < nRows; i++ {
			m.Set(i, j, m.At(i, j)-mean)
		}
	}
	cov := matrix.FromColumns(linalg.SYRKCols(nil, m.Columns())).Scale(1 / float64(nRows-1))
	covDF := rsim.FromMatrix(cov, names)
	res.Matrix = time.Since(t1)

	// The covariance result in R has no contextual information: the
	// conference names must be added manually before the merge (§8.6(3)).
	t2 := time.Now()
	nameVec := bat.NewEmptyVector(bat.String, len(names))
	for _, n := range names {
		nameVec.Append(bat.StringValue(n))
	}
	covDF.Names = append([]string{"conf"}, covDF.Names...)
	covDF.Cols = append([]*bat.Vector{nameVec}, covDF.Cols...)
	rdf := rsim.FromRelation(ranking)
	merged, err := rsim.Merge(covDF, rdf, "conf", "conf")
	if err != nil {
		return res, err
	}
	rat, _ := merged.Col("rating")
	app := merged.Filter(func(i int) bool { return rat.Strings()[i] == "A++" })
	res.Prep += time.Since(t2)
	res.Check = float64(app.NumRows())
	return res, nil
}

// CovarianceAIDA runs the workload as AIDA: boundary crossing, host-side
// centering, a.t @ a on the host arrays, manual name re-attachment, join
// back on the column engine.
func CovarianceAIDA(pubs, ranking *rel.Relation) (WorkloadResult, error) {
	var res WorkloadResult
	t0 := time.Now()
	host := aida.CrossBoundary(pubs)
	names := make([]string, 0, len(host.Cols)-1)
	for _, c := range host.Cols[1:] {
		names = append(names, c.Name)
	}
	m, err := host.Matrix(names)
	if err != nil {
		return res, err
	}
	res.Prep = time.Since(t0)
	t1 := time.Now()
	nRows := m.Rows
	for j := 0; j < m.Cols; j++ {
		var s float64
		for i := 0; i < nRows; i++ {
			s += m.At(i, j)
		}
		mean := s / float64(nRows)
		for i := 0; i < nRows; i++ {
			m.Set(i, j, m.At(i, j)-mean)
		}
	}
	cov := matrix.FromColumns(linalg.SYRKCols(nil, m.Columns())).Scale(1 / float64(nRows-1))
	res.Matrix = time.Since(t1)

	t2 := time.Now()
	// Manual context re-attachment, then the join runs back in MonetDB.
	covRel := relFromMatrix(cov, names)
	joined, err := rel.HashJoin(nil, covRel, ranking, []string{"C"}, []string{"conf"}, rel.Inner)
	if err != nil {
		return res, err
	}
	pred, err := joined.StringPred("rating", func(s string) bool { return s == "A++" })
	if err != nil {
		return res, err
	}
	app := joined.Select(nil, pred)
	res.Prep += time.Since(t2)
	res.Check = float64(app.NumRows())
	return res, nil
}

func relFromMatrix(m *matrix.Matrix, names []string) *rel.Relation {
	schema := rel.Schema{{Name: "C", Type: bat.String}}
	cols := []*bat.BAT{bat.FromStrings(names)}
	for j := 0; j < m.Cols; j++ {
		schema = append(schema, rel.Attr{Name: names[j], Type: bat.Float})
		cols = append(cols, bat.FromFloats(m.Column(j)))
	}
	return rel.MustNew("cov", schema, cols)
}

// CovarianceMADlib runs covariance entirely single-core on the row store.
func CovarianceMADlib(pubs, ranking *rel.Relation) (WorkloadResult, error) {
	var res WorkloadResult
	t0 := time.Now()
	tb := madlib.FromRelation(pubs)
	names := make([]string, 0, len(tb.Schema)-1)
	for _, a := range tb.Schema[1:] {
		names = append(names, a.Name)
	}
	rows, err := tb.ToArrays(names)
	if err != nil {
		return res, err
	}
	res.Prep = time.Since(t0)
	t1 := time.Now()
	cov := madlib.Covariance(rows)
	res.Matrix = time.Since(t1)
	res.Check = cov[0][0]
	return res, nil
}

// --- Workload 4: Trip count — matrix addition (Figure 18) ------------------

// TripCountRMA adds the rider×destination counts of two years.
func TripCountRMA(y1, y2 *rel.Relation, policy core.Policy) (WorkloadResult, error) {
	var res WorkloadResult
	t0 := time.Now()
	r2, err := y2.Rename(map[string]string{"rider": "rider2"})
	if err != nil {
		return res, err
	}
	sum, err := core.Add(y1, []string{"rider"}, r2, []string{"rider2"},
		&core.Options{Policy: policy, SortMode: core.SortOptimized})
	if err != nil {
		return res, err
	}
	res.Matrix = time.Since(t0)
	c, err := sum.Col("dest0")
	if err != nil {
		return res, err
	}
	res.Check = bat.Sum(nil, c)
	return res, nil
}

// TripCountR converts both data.frames to matrices, adds, converts back.
func TripCountR(y1, y2 *rel.Relation) (WorkloadResult, error) {
	var res WorkloadResult
	df1 := rsim.FromRelation(y1)
	df2 := rsim.FromRelation(y2)
	names := df1.Names[1:]
	t0 := time.Now()
	m1, err := df1.ToMatrix(names)
	if err != nil {
		return res, err
	}
	m2, err := df2.ToMatrix(names)
	if err != nil {
		return res, err
	}
	sum := matrix.Add(m1, m2)
	out := rsim.FromMatrix(sum, names)
	res.Matrix = time.Since(t0)
	c, _ := out.Col("dest0")
	total := 0.0
	for _, v := range c.Floats() {
		total += v
	}
	res.Check = total
	return res, nil
}

// TripCountAIDA crosses both relations into the host runtime (the rider id
// column converts per value), assembles arrays, adds.
func TripCountAIDA(y1, y2 *rel.Relation) (WorkloadResult, error) {
	var res WorkloadResult
	names := y1.Schema.Names()[1:]
	t0 := time.Now()
	h1 := aida.CrossBoundary(y1)
	h2 := aida.CrossBoundary(y2)
	m1, err := h1.Matrix(names)
	if err != nil {
		return res, err
	}
	m2, err := h2.Matrix(names)
	if err != nil {
		return res, err
	}
	sum := matrix.Add(m1, m2)
	res.Matrix = time.Since(t0)
	total := 0.0
	for i := 0; i < sum.Rows; i++ {
		total += sum.At(i, 0)
	}
	res.Check = total
	return res, nil
}

// TripCountMADlib adds row-at-a-time on the row store.
func TripCountMADlib(y1, y2 *rel.Relation) (WorkloadResult, error) {
	var res WorkloadResult
	t1 := madlib.FromRelation(y1)
	t2 := madlib.FromRelation(y2)
	names := y1.Schema.Names()[1:]
	t0 := time.Now()
	a1, err := t1.ToArrays(names)
	if err != nil {
		return res, err
	}
	a2, err := t2.ToArrays(names)
	if err != nil {
		return res, err
	}
	total := 0.0
	out := make([][]float64, len(a1))
	for i := range a1 {
		row := make([]float64, len(a1[i]))
		for j := range row {
			row[j] = a1[i][j] + a2[i][j]
		}
		out[i] = row
		total += row[0]
	}
	res.Matrix = time.Since(t0)
	res.Check = total
	return res, nil
}
