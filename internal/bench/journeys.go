package bench

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/bat"
	"repro/internal/competitor/madlib"
	"repro/internal/competitor/rsim"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/rel"
)

// journeyCap bounds the number of chains kept after each composition step
// (the paper controls growth with its ≥50-occurrences filter; the cap
// keeps the scaled-down workload deterministic across engines).
const journeyCap = 20000

// legsOf aggregates trips into frequent legs with distance and average
// duration: (ss, es, n, dur, dist).
func legsOf(trips, stations *rel.Relation, minCount float64) (*rel.Relation, error) {
	routes, err := rel.GroupBy(exec.Default(), trips, []string{"start_station", "end_station"},
		[]rel.AggSpec{
			{Func: rel.Count, As: "n"},
			{Func: rel.Avg, Attr: "duration", As: "dur"},
		})
	if err != nil {
		return nil, err
	}
	nCol, _ := routes.Col("n")
	nInt := nCol.Vector().Ints()
	freq := routes.Select(nil, func(i int) bool { return float64(nInt[i]) >= minCount })
	s1, _ := stations.Rename(map[string]string{"code": "c1", "name": "n1", "lat": "lat1", "lon": "lon1"})
	s2, _ := stations.Rename(map[string]string{"code": "c2", "name": "n2", "lat": "lat2", "lon": "lon2"})
	j1, err := rel.HashJoin(nil, freq, s1, []string{"start_station"}, []string{"c1"}, rel.Inner)
	if err != nil {
		return nil, err
	}
	j2, err := rel.HashJoin(nil, j1, s2, []string{"end_station"}, []string{"c2"}, rel.Inner)
	if err != nil {
		return nil, err
	}
	p, err := distancesOf(j2, "lat1", "lon1", "lat2", "lon2", "dur")
	if err != nil {
		return nil, err
	}
	ss, _ := j2.Col("start_station")
	es, _ := j2.Col("end_station")
	nC, _ := j2.Col("n")
	return rel.New("legs", rel.Schema{
		{Name: "ss", Type: bat.Int},
		{Name: "es", Type: bat.Int},
		{Name: "n", Type: bat.Int},
		{Name: "dur", Type: bat.Float},
		{Name: "dist", Type: bat.Float},
	}, []*bat.BAT{ss, es, nC, bat.FromFloats(p.dur), bat.FromFloats(p.dist)})
}

// composeChains joins legs k-1 times: chains of k legs with per-leg
// distances, total duration, and support = min over leg counts.
func composeChains(legs *rel.Relation, k int) (*rel.Relation, error) {
	chain := legs
	var err error
	// chain schema: ss, es, n, dur, dist1..dist_j (dur is the total).
	chain, err = chain.Rename(map[string]string{"dist": "dist1"})
	if err != nil {
		return nil, err
	}
	for j := 2; j <= k; j++ {
		next, err := legs.Rename(map[string]string{
			"ss": "ss_j", "es": "es_j", "n": "n_j", "dur": "dur_j", "dist": fmt.Sprintf("dist%d", j),
		})
		if err != nil {
			return nil, err
		}
		joined, err := rel.HashJoin(nil, chain, next, []string{"es"}, []string{"ss_j"}, rel.Inner)
		if err != nil {
			return nil, err
		}
		// Fold: es <- es_j, dur <- dur+dur_j, n <- min(n, n_j).
		nOld, _ := joined.Col("n")
		nNew, _ := joined.Col("n_j")
		durOld, _ := joined.Col("dur")
		durNew, _ := joined.Col("dur_j")
		esNew, _ := joined.Col("es_j")
		no := nOld.Vector().Ints()
		nn := nNew.Vector().Ints()
		do, _ := durOld.Floats()
		dn, _ := durNew.Floats()
		rows := joined.NumRows()
		nMin := make([]int64, rows)
		durSum := make([]float64, rows)
		for i := 0; i < rows; i++ {
			nMin[i] = no[i]
			if nn[i] < no[i] {
				nMin[i] = nn[i]
			}
			durSum[i] = do[i] + dn[i]
		}
		schema := rel.Schema{
			{Name: "ss", Type: bat.Int},
			{Name: "es", Type: bat.Int},
			{Name: "n", Type: bat.Int},
			{Name: "dur", Type: bat.Float},
		}
		ssC, _ := joined.Col("ss")
		cols := []*bat.BAT{ssC, esNew, bat.FromInts(nMin), bat.FromFloats(durSum)}
		for d := 1; d <= j; d++ {
			name := fmt.Sprintf("dist%d", d)
			c, _ := joined.Col(name)
			schema = append(schema, rel.Attr{Name: name, Type: bat.Float})
			cols = append(cols, c)
		}
		chain, err = rel.New("chains", schema, cols)
		if err != nil {
			return nil, err
		}
		// Keep the most supported chains (the ≥50 filter + cap).
		nC, _ := chain.Col("n")
		ni := nC.Vector().Ints()
		chain = chain.Select(nil, func(i int) bool { return ni[i] >= 50 })
		if chain.NumRows() > journeyCap {
			chain, err = chain.Sort(nil, rel.OrderSpec{Attr: "n", Desc: true})
			if err != nil {
				return nil, err
			}
			chain = chain.Limit(nil, journeyCap)
		}
	}
	return chain, nil
}

// mlrInputs extracts the regression matrix (1, dist1..distk) and target
// (total duration) from a chain relation.
func mlrInputs(chain *rel.Relation, k int) (*matrix.Matrix, []float64, error) {
	n := chain.NumRows()
	a := matrix.New(n, k+1)
	for i := 0; i < n; i++ {
		a.Set(i, 0, 1)
	}
	for d := 1; d <= k; d++ {
		c, err := chain.Col(fmt.Sprintf("dist%d", d))
		if err != nil {
			return nil, nil, err
		}
		f, _ := c.Floats()
		for i := 0; i < n; i++ {
			a.Set(i, d, f[i])
		}
	}
	durC, err := chain.Col("dur")
	if err != nil {
		return nil, nil, err
	}
	dur, _ := durC.Floats()
	return a, dur, nil
}

// JourneysRMA runs the Figure 16 workload: compose journeys of k trips,
// then multiple linear regression, with the matrix part in RMA.
func JourneysRMA(trips, stations *rel.Relation, k int, policy core.Policy) (WorkloadResult, error) {
	var res WorkloadResult
	t0 := time.Now()
	legs, err := legsOf(trips, stations, 50)
	if err != nil {
		return res, err
	}
	chain, err := composeChains(legs, k)
	if err != nil {
		return res, err
	}
	if chain.NumRows() <= k+1 {
		return res, fmt.Errorf("bench: only %d chains of length %d", chain.NumRows(), k)
	}
	// Build the A and V relations for the RMA regression.
	n := chain.NumRows()
	id := make([]int64, n)
	ones := make([]float64, n)
	for i := range id {
		id[i] = int64(i)
		ones[i] = 1
	}
	// Coefficient names b0..bk sort like the schema order, which the inv
	// composition requires (see olsRelations).
	schema := rel.Schema{{Name: "i", Type: bat.Int}, {Name: "b0", Type: bat.Float}}
	cols := []*bat.BAT{bat.FromInts(id), bat.FromFloats(ones)}
	for d := 1; d <= k; d++ {
		c, _ := chain.Col(fmt.Sprintf("dist%d", d))
		schema = append(schema, rel.Attr{Name: fmt.Sprintf("b%d", d), Type: bat.Float})
		cols = append(cols, c)
	}
	a := rel.MustNew("A", schema, cols)
	durC, _ := chain.Col("dur")
	v := rel.MustNew("V", rel.Schema{
		{Name: "i2", Type: bat.Int},
		{Name: "dur", Type: bat.Float},
	}, []*bat.BAT{bat.FromInts(id), durC})
	res.Prep = time.Since(t0)

	t1 := time.Now()
	opts := &core.Options{Policy: policy, SortMode: core.SortOptimized}
	ata, err := core.Cpd(a, []string{"i"}, a.WithName("A2"), []string{"i"}, opts)
	if err != nil {
		return res, err
	}
	inv, err := core.Inv(ata, []string{"C"}, opts)
	if err != nil {
		return res, err
	}
	atv, err := core.Cpd(a, []string{"i"}, v, []string{"i2"}, opts)
	if err != nil {
		return res, err
	}
	beta, err := core.Mmu(inv, []string{"C"}, atv, []string{"C"}, opts)
	if err != nil {
		return res, err
	}
	res.Matrix = time.Since(t1)
	for i := 0; i < beta.NumRows(); i++ {
		if beta.Value(i, 0).S == "b1" {
			res.Check = beta.Value(i, 1).F
		}
	}
	return res, nil
}

// JourneysAIDA: the preparation is purely numeric, so AIDA's relational
// part matches RMA+ (both run on the column engine; Figure 16a shows them
// close); the regression runs on host arrays after a cheap numeric
// boundary crossing.
func JourneysAIDA(trips, stations *rel.Relation, k int) (WorkloadResult, error) {
	var res WorkloadResult
	t0 := time.Now()
	legs, err := legsOf(trips, stations, 50)
	if err != nil {
		return res, err
	}
	chain, err := composeChains(legs, k)
	if err != nil {
		return res, err
	}
	a, dur, err := mlrInputs(chain, k)
	if err != nil {
		return res, err
	}
	res.Prep = time.Since(t0)
	t1 := time.Now()
	beta, err := denseMLR(a, dur)
	if err != nil {
		return res, err
	}
	res.Matrix = time.Since(t1)
	res.Check = beta[1]
	return res, nil
}

func denseMLR(a *matrix.Matrix, y []float64) ([]float64, error) {
	cols := a.Columns()
	inv, err := linalg.Inverse(nil, linalg.CrossProductCols(nil, cols, cols))
	if err != nil {
		return nil, err
	}
	beta := linalg.MatMulCols(nil, inv, linalg.CrossProductCols(nil, cols, [][]float64{y}), a.Cols)
	return beta[0], nil
}

// JourneysR composes the chains with single-core merges.
func JourneysR(trips, stations *rel.Relation, k int) (WorkloadResult, error) {
	var res WorkloadResult
	t0 := time.Now()
	// Single-core aggregation of legs.
	df := rsim.FromRelation(trips)
	ss, _ := df.Col("start_station")
	es, _ := df.Col("end_station")
	durC, _ := df.Col("duration")
	type agg struct {
		n   int
		dur float64
	}
	byRoute := make(map[[2]int64]*agg)
	for i := 0; i < df.NumRows(); i++ {
		key := [2]int64{ss.Ints()[i], es.Ints()[i]}
		a := byRoute[key]
		if a == nil {
			a = &agg{}
			byRoute[key] = a
		}
		a.n++
		a.dur += durC.Floats()[i]
	}
	sdf := rsim.FromRelation(stations)
	codeC, _ := sdf.Col("code")
	latC, _ := sdf.Col("lat")
	lonC, _ := sdf.Col("lon")
	coord := make(map[int64][2]float64, sdf.NumRows())
	for i := 0; i < sdf.NumRows(); i++ {
		coord[codeC.Ints()[i]] = [2]float64{latC.Floats()[i], lonC.Floats()[i]}
	}
	type leg struct {
		ss, es int64
		n      int
		dur    float64
		dist   float64
	}
	var legs []leg
	for key, a := range byRoute {
		if a.n < 50 {
			continue
		}
		c1, c2 := coord[key[0]], coord[key[1]]
		dy := (c1[0] - c2[0]) * 111.0
		dx := (c1[1] - c2[1]) * 78.8
		legs = append(legs, leg{key[0], key[1], a.n, a.dur / float64(a.n), math.Sqrt(dx*dx + dy*dy)})
	}
	// Canonical (ss, es) order: byRoute's iteration order must not
	// reach the chain composition below, whose cap keeps a prefix.
	sort.Slice(legs, func(i, j int) bool {
		if legs[i].ss != legs[j].ss {
			return legs[i].ss < legs[j].ss
		}
		return legs[i].es < legs[j].es
	})
	// Single-core chain composition.
	type chain struct {
		ss, es int64
		n      int
		dur    float64
		dists  []float64
	}
	byStart := make(map[int64][]leg)
	for _, l := range legs {
		byStart[l.ss] = append(byStart[l.ss], l)
	}
	chains := make([]chain, 0, len(legs))
	for _, l := range legs {
		chains = append(chains, chain{l.ss, l.es, l.n, l.dur, []float64{l.dist}})
	}
	for j := 2; j <= k; j++ {
		var next []chain
		for _, c := range chains {
			for _, l := range byStart[c.es] {
				n := c.n
				if l.n < n {
					n = l.n
				}
				if n < 50 {
					continue
				}
				dists := append(append([]float64(nil), c.dists...), l.dist)
				next = append(next, chain{c.ss, l.es, n, c.dur + l.dur, dists})
			}
		}
		if len(next) > journeyCap {
			next = next[:journeyCap]
		}
		chains = next
	}
	if len(chains) <= k+1 {
		return res, fmt.Errorf("bench: only %d chains of length %d", len(chains), k)
	}
	// data.frame → matrix conversion + BLAS regression.
	a := matrix.New(len(chains), k+1)
	y := make([]float64, len(chains))
	for i, c := range chains {
		a.Set(i, 0, 1)
		for d, dv := range c.dists {
			a.Set(i, d+1, dv)
		}
		y[i] = c.dur
	}
	res.Prep = time.Since(t0)
	t1 := time.Now()
	beta, err := denseMLR(a, y)
	if err != nil {
		return res, err
	}
	res.Matrix = time.Since(t1)
	res.Check = beta[1]
	return res, nil
}

// JourneysMADlib runs the workload on the row store.
func JourneysMADlib(trips, stations *rel.Relation, k int) (WorkloadResult, error) {
	var res WorkloadResult
	t0 := time.Now()
	tb := madlib.FromRelation(trips)
	ssIdx, _ := tb.ColIndex("start_station")
	esIdx, _ := tb.ColIndex("end_station")
	durIdx, _ := tb.ColIndex("duration")
	type agg struct {
		n   int
		dur float64
	}
	byRoute := make(map[[2]int64]*agg)
	for _, row := range tb.Rows {
		key := [2]int64{row[ssIdx].I, row[esIdx].I}
		a := byRoute[key]
		if a == nil {
			a = &agg{}
			byRoute[key] = a
		}
		a.n++
		a.dur += row[durIdx].F
	}
	st := madlib.FromRelation(stations)
	codeIdx, _ := st.ColIndex("code")
	latIdx, _ := st.ColIndex("lat")
	lonIdx, _ := st.ColIndex("lon")
	coord := make(map[int64][2]float64)
	for _, row := range st.Rows {
		coord[row[codeIdx].I] = [2]float64{row[latIdx].F, row[lonIdx].F}
	}
	type leg struct {
		ss, es int64
		n      int
		dur    float64
		dist   float64
	}
	var legs []leg
	for key, a := range byRoute {
		if a.n < 50 {
			continue
		}
		c1, c2 := coord[key[0]], coord[key[1]]
		dy := (c1[0] - c2[0]) * 111.0
		dx := (c1[1] - c2[1]) * 78.8
		legs = append(legs, leg{key[0], key[1], a.n, a.dur / float64(a.n), math.Sqrt(dx*dx + dy*dy)})
	}
	// Same canonical order as the single-core path: map iteration order
	// must not pick which chains survive the cap.
	sort.Slice(legs, func(i, j int) bool {
		if legs[i].ss != legs[j].ss {
			return legs[i].ss < legs[j].ss
		}
		return legs[i].es < legs[j].es
	})
	type chain struct {
		es    int64
		n     int
		dur   float64
		dists []float64
	}
	byStart := make(map[int64][]leg)
	for _, l := range legs {
		byStart[l.ss] = append(byStart[l.ss], l)
	}
	var chains []chain
	for _, l := range legs {
		chains = append(chains, chain{l.es, l.n, l.dur, []float64{l.dist}})
	}
	for j := 2; j <= k; j++ {
		var next []chain
		for _, c := range chains {
			for _, l := range byStart[c.es] {
				n := c.n
				if l.n < n {
					n = l.n
				}
				if n < 50 {
					continue
				}
				dists := append(append([]float64(nil), c.dists...), l.dist)
				next = append(next, chain{l.es, n, c.dur + l.dur, dists})
			}
		}
		if len(next) > journeyCap {
			next = next[:journeyCap]
		}
		chains = next
	}
	if len(chains) <= k+1 {
		return res, fmt.Errorf("bench: only %d chains of length %d", len(chains), k)
	}
	x := make([][]float64, len(chains))
	y := make([]float64, len(chains))
	for i, c := range chains {
		row := make([]float64, k+1)
		row[0] = 1
		copy(row[1:], c.dists)
		x[i] = row
		y[i] = c.dur
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
