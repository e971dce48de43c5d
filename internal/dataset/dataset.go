// Package dataset generates the workloads of the paper's evaluation
// (Section 8). The real BIXI (Kaggle) and DBLP dumps are not available
// offline, so seeded synthetic generators reproduce their schemas, type
// mixes (numeric + date + string), and key distributions; every generator
// is deterministic in its seed. Each caller picks its own scaled-down
// sizes (the experiments in internal/bench, the workloads of the repo
// benchmark described in benchmark/README.md).
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/bat"
	"repro/internal/rel"
)

// Stations generates a BIXI-like station table: code (int key), name
// (string), latitude and longitude (Montreal-ish box).
func Stations(n int, seed int64) *rel.Relation {
	rng := rand.New(rand.NewSource(seed))
	codes := make([]int64, n)
	names := make([]string, n)
	lats := make([]float64, n)
	lons := make([]float64, n)
	for i := 0; i < n; i++ {
		codes[i] = int64(1000 + i)
		names[i] = fmt.Sprintf("Station-%04d", i)
		lats[i] = 45.40 + rng.Float64()*0.25
		lons[i] = -73.75 + rng.Float64()*0.35
	}
	return rel.MustNew("stations", rel.Schema{
		{Name: "code", Type: bat.Int},
		{Name: "name", Type: bat.String},
		{Name: "lat", Type: bat.Float},
		{Name: "lon", Type: bat.Float},
	}, []*bat.BAT{
		bat.FromInts(codes), bat.FromStrings(names),
		bat.FromFloats(lats), bat.FromFloats(lons),
	})
}

// Trips generates a BIXI-like trip table with the type mix the paper's
// §8.6(1) workload depends on: dates (int64 epoch seconds), station codes
// (int), duration (float seconds), and a member flag stored as a string
// ("yes"/"no") so that non-numeric data flows through the pipeline.
// Station popularity is Zipf-distributed so that frequent (start,end)
// pairs exist for the "performed at least 50 times" filter, and durations
// grow with the geographic distance between the endpoint stations (riding
// a bicycle takes time), so the regression workloads recover a meaningful
// speed. Passing the same seed as Stations aligns the coordinates.
func Trips(n, nStations int, seed int64) *rel.Relation {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(nStations-1))
	stations := Stations(nStations, seed)
	latC, _ := stations.Col("lat")
	lonC, _ := stations.Col("lon")
	lat, _ := latC.Floats()
	lon, _ := lonC.Floats()
	id := make([]int64, n)
	startDate := make([]int64, n)
	startStation := make([]int64, n)
	endDate := make([]int64, n)
	endStation := make([]int64, n)
	duration := make([]float64, n)
	member := make([]string, n)
	const yearStart = 1388534400 // 2014-01-01 UTC
	for i := 0; i < n; i++ {
		s := int(zipf.Uint64())
		e := int(zipf.Uint64())
		for e == s { // riders go somewhere: no zero-distance self-loops
			e = (e + 1 + rng.Intn(nStations-1)) % nStations
		}
		begin := yearStart + rng.Int63n(365*24*3600)
		dy := (lat[s] - lat[e]) * 111.0
		dx := (lon[s] - lon[e]) * 78.8
		km := math.Sqrt(dx*dx + dy*dy)
		// ~15 km/h plus stop-and-go noise and a dock/undock overhead.
		dur := 120 + km*240*(0.8+0.4*rng.Float64()) + rng.ExpFloat64()*120
		id[i] = int64(i)
		startDate[i] = begin
		startStation[i] = int64(1000 + s)
		endDate[i] = begin + int64(dur)
		endStation[i] = int64(1000 + e)
		duration[i] = dur
		if rng.Intn(3) > 0 {
			member[i] = "yes"
		} else {
			member[i] = "no"
		}
	}
	return rel.MustNew("trips", rel.Schema{
		{Name: "id", Type: bat.Int},
		{Name: "start_date", Type: bat.Int},
		{Name: "start_station", Type: bat.Int},
		{Name: "end_date", Type: bat.Int},
		{Name: "end_station", Type: bat.Int},
		{Name: "duration", Type: bat.Float},
		{Name: "member", Type: bat.String},
	}, []*bat.BAT{
		bat.FromInts(id), bat.FromInts(startDate), bat.FromInts(startStation),
		bat.FromInts(endDate), bat.FromInts(endStation),
		bat.FromFloats(duration), bat.FromStrings(member),
	})
}

// RiderTripCounts generates the §8.6(4) relation: one row per rider with
// the trip counts to 10 destinations for one year. Seed differentiates
// years.
func RiderTripCounts(nRiders int, seed int64) *rel.Relation {
	rng := rand.New(rand.NewSource(seed))
	schema := rel.Schema{{Name: "rider", Type: bat.Int}}
	cols := make([]*bat.BAT, 0, 11)
	riders := make([]int64, nRiders)
	for i := range riders {
		riders[i] = int64(i)
	}
	cols = append(cols, bat.FromInts(riders))
	for d := 0; d < 10; d++ {
		schema = append(schema, rel.Attr{Name: fmt.Sprintf("dest%d", d), Type: bat.Float})
		counts := make([]float64, nRiders)
		for i := range counts {
			counts[i] = float64(rng.Intn(40))
		}
		cols = append(cols, bat.FromFloats(counts))
	}
	return rel.MustNew("rider_trips", schema, cols)
}

// Publications generates the DBLP-like pivot table of §8.6(3): one row per
// author, one column per conference holding publication counts (sparse,
// most zero). Column names are conference ids c0000..cNNNN.
func Publications(nAuthors, nConfs int, seed int64) *rel.Relation {
	rng := rand.New(rand.NewSource(seed))
	schema := make(rel.Schema, 0, nConfs+1)
	schema = append(schema, rel.Attr{Name: "author", Type: bat.Int})
	authors := make([]int64, nAuthors)
	for i := range authors {
		authors[i] = int64(i)
	}
	cols := make([]*bat.BAT, 0, nConfs+1)
	cols = append(cols, bat.FromInts(authors))
	for c := 0; c < nConfs; c++ {
		schema = append(schema, rel.Attr{Name: ConferenceName(c), Type: bat.Float})
		counts := make([]float64, nAuthors)
		for i := range counts {
			if rng.Intn(20) == 0 { // ~5% of authors publish at a venue
				counts[i] = float64(1 + rng.Intn(8))
			}
		}
		cols = append(cols, bat.FromFloats(counts))
	}
	return rel.MustNew("publications", schema, cols)
}

// ConferenceName formats the conference id used by Publications and
// Rankings.
func ConferenceName(c int) string { return fmt.Sprintf("c%04d", c) }

// Rankings generates the DBLP-like conference rating table. About 5% of
// conferences are rated A++ (the selection target of the workload).
func Rankings(nConfs int, seed int64) *rel.Relation {
	rng := rand.New(rand.NewSource(seed))
	ratings := []string{"A++", "A+", "A", "B", "C"}
	names := make([]string, nConfs)
	rates := make([]string, nConfs)
	for c := 0; c < nConfs; c++ {
		names[c] = ConferenceName(c)
		if rng.Intn(20) == 0 {
			rates[c] = "A++"
		} else {
			rates[c] = ratings[1+rng.Intn(len(ratings)-1)]
		}
	}
	return rel.MustNew("ranking", rel.Schema{
		{Name: "conf", Type: bat.String},
		{Name: "rating", Type: bat.String},
	}, []*bat.BAT{bat.FromStrings(names), bat.FromStrings(rates)})
}

// Uniform generates the synthetic relation of §8.2/8.3: an int key k plus
// nCols float columns uniform in [0, 10000).
func Uniform(nRows, nCols int, seed int64) *rel.Relation {
	rng := rand.New(rand.NewSource(seed))
	schema := make(rel.Schema, 0, nCols+1)
	schema = append(schema, rel.Attr{Name: "k", Type: bat.Int})
	keys := make([]int64, nRows)
	for i := range keys {
		keys[i] = int64(i)
	}
	cols := make([]*bat.BAT, 0, nCols+1)
	cols = append(cols, bat.FromInts(keys))
	for c := 0; c < nCols; c++ {
		schema = append(schema, rel.Attr{Name: fmt.Sprintf("a%04d", c), Type: bat.Float})
		vals := make([]float64, nRows)
		for i := range vals {
			vals[i] = rng.Float64() * 10000
		}
		cols = append(cols, bat.FromFloats(vals))
	}
	return rel.MustNew("uniform", schema, cols)
}

// Sparse generates the Table 5 relation: an int key plus nCols float
// columns where zeroFrac of the values are exactly zero (positions
// random); non-zero values are uniform in [1, 5M). Columns are stored
// zero-suppressed, standing in for MonetDB's compression.
func Sparse(nRows, nCols int, zeroFrac float64, seed int64) *rel.Relation {
	rng := rand.New(rand.NewSource(seed))
	schema := make(rel.Schema, 0, nCols+1)
	schema = append(schema, rel.Attr{Name: "k", Type: bat.Int})
	keys := make([]int64, nRows)
	for i := range keys {
		keys[i] = int64(i)
	}
	cols := make([]*bat.BAT, 0, nCols+1)
	cols = append(cols, bat.FromInts(keys))
	for c := 0; c < nCols; c++ {
		schema = append(schema, rel.Attr{Name: fmt.Sprintf("a%04d", c), Type: bat.Float})
		vals := make([]float64, nRows)
		for i := range vals {
			if rng.Float64() >= zeroFrac {
				vals[i] = 1 + rng.Float64()*4999999
			}
		}
		cols = append(cols, bat.FromSparse(bat.Compress(vals)))
	}
	return rel.MustNew("sparse", schema, cols)
}

// WideOrder generates the Figure 13 relation: nOrder order columns (whose
// combination is a key: the first is unique) and a single application
// column.
func WideOrder(nRows, nOrder int, seed int64) (*rel.Relation, []string) {
	rng := rand.New(rand.NewSource(seed))
	schema := make(rel.Schema, 0, nOrder+1)
	cols := make([]*bat.BAT, 0, nOrder+1)
	orderNames := make([]string, nOrder)
	perm := rng.Perm(nRows)
	for c := 0; c < nOrder; c++ {
		name := fmt.Sprintf("o%04d", c)
		orderNames[c] = name
		schema = append(schema, rel.Attr{Name: name, Type: bat.Int})
		vals := make([]int64, nRows)
		if c == 0 {
			for i := range vals {
				vals[i] = int64(perm[i])
			}
		} else {
			for i := range vals {
				vals[i] = int64(rng.Intn(1000))
			}
		}
		cols = append(cols, bat.FromInts(vals))
	}
	schema = append(schema, rel.Attr{Name: "val", Type: bat.Float})
	vals := make([]float64, nRows)
	for i := range vals {
		vals[i] = rng.Float64() * 10000
	}
	cols = append(cols, bat.FromFloats(vals))
	return rel.MustNew("wideorder", schema, cols), orderNames
}
