// Package gen holds the benchmark's seeded input generators. It imports
// nothing from the engine: a Table is plain typed columns, so the inputs
// are pinned by this directory alone and the same seed gives byte-identical
// inputs (Hash). The seed is the only source of randomness.
//
// Every generator fixes the quantities the engine's work depends on (row
// counts, key cardinalities, how many routes pass the HAVING threshold,
// how many conferences are A++) by construction; the seed only decides
// which rows, keys and positions carry them. Runs on different seeds
// therefore do the same amount of work on different data.
package gen

import (
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// Col is one typed column; exactly one of I, F, S is non-nil.
type Col struct {
	Name string
	I    []int64
	F    []float64
	S    []string
}

// Table is a named list of equally long columns.
type Table struct {
	Name string
	Cols []Col
}

// Rows returns the table's row count.
func (t *Table) Rows() int {
	if len(t.Cols) == 0 {
		return 0
	}
	c := t.Cols[0]
	return len(c.I) + len(c.F) + len(c.S)
}

// Col returns the named column; it panics when the table has none, which
// only a bug in the benchmark can cause.
func (t *Table) Col(name string) *Col {
	for k := range t.Cols {
		if t.Cols[k].Name == name {
			return &t.Cols[k]
		}
	}
	panic("gen: table " + t.Name + " has no column " + name)
}

// RawBytes is the size of the table's values as fixed 8-byte numbers plus
// string bytes: the "user bytes" that stored bytes are compared against.
func (t *Table) RawBytes() int64 {
	var n int64
	for _, c := range t.Cols {
		n += 8 * int64(len(c.I)+len(c.F))
		for _, s := range c.S {
			n += int64(len(s))
		}
	}
	return n
}

// Hash feeds the table's name, schema and every value into h.
func (t *Table) Hash(h hash.Hash) {
	var b [8]byte
	h.Write([]byte(t.Name))
	for _, c := range t.Cols {
		h.Write([]byte(c.Name))
		for _, v := range c.I {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
		for _, v := range c.F {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		for _, v := range c.S {
			h.Write([]byte(v))
			h.Write([]byte{0})
		}
	}
}

// HotRouteShare is the share of trips that ride one of the hot routes (an
// eighth of all station pairs). With the trip and station counts used by
// the benchmark every hot route is ridden at least 50 times and every
// other route fewer, so the frequent-route filter keeps the same number of
// routes and trips on every seed.
const HotRouteShare = 0.7

// Trips generates the BIXI-like trip and station relations of the paper's
// §8.6(1): trips(id, start_station, end_station, duration, member,
// start_date) and stations(code, name, lat, lon). Duration is linear in
// the station distance plus noise, so the regression has a known shape.
func Trips(nTrips, nStations int, seed int64) (trips, stations *Table) {
	rng := rand.New(rand.NewSource(seed))
	code := make([]int64, nStations)
	name := make([]string, nStations)
	lat := make([]float64, nStations)
	lon := make([]float64, nStations)
	for i := range code {
		code[i] = int64(6000 + i)
		name[i] = fmt.Sprintf("station-%03d", i)
		lat[i] = 45.50 + 0.08*(rng.Float64()-0.5)
		lon[i] = -73.60 + 0.12*(rng.Float64()-0.5)
	}
	stations = &Table{Name: "stations", Cols: []Col{
		{Name: "code", I: code}, {Name: "name", S: name},
		{Name: "lat", F: lat}, {Name: "lon", F: lon},
	}}

	// Route r is the station pair perm[r]; the first nHot routes are hot.
	nRoutes := nStations * nStations
	nHot := nRoutes / 8
	hotTrips := int(HotRouteShare * float64(nTrips))
	perm := rng.Perm(nRoutes)
	start := make([]int64, 0, nTrips)
	end := make([]int64, 0, nTrips)
	spread := func(total, routes, first int) {
		for r := 0; r < routes; r++ {
			n := total / routes
			if r < total%routes {
				n++
			}
			p := perm[first+r]
			for ; n > 0; n-- {
				start = append(start, int64(p/nStations))
				end = append(end, int64(p%nStations))
			}
		}
	}
	spread(hotTrips, nHot, 0)
	spread(nTrips-hotTrips, nRoutes-nHot, nHot)
	rng.Shuffle(nTrips, func(i, j int) {
		start[i], start[j] = start[j], start[i]
		end[i], end[j] = end[j], end[i]
	})

	id := make([]int64, nTrips)
	dur := make([]float64, nTrips)
	member := make([]int64, nTrips)
	date := make([]int64, nTrips)
	for i := range id {
		s, e := start[i], end[i]
		dy := (lat[s] - lat[e]) * 111.0
		dx := (lon[s] - lon[e]) * 78.8
		id[i] = int64(i)
		dur[i] = math.Max(30, 120+240*math.Sqrt(dx*dx+dy*dy)+60*rng.NormFloat64())
		member[i] = int64(rng.Intn(2))
		date[i] = 20170401 + int64(rng.Intn(200))
		start[i], end[i] = code[s], code[e]
	}
	trips = &Table{Name: "trips", Cols: []Col{
		{Name: "id", I: id}, {Name: "start_station", I: start}, {Name: "end_station", I: end},
		{Name: "duration", F: dur}, {Name: "member", I: member}, {Name: "start_date", I: date},
	}}
	return trips, stations
}

// ConfName is the column (and ranking key) of conference c.
func ConfName(c int) string { return fmt.Sprintf("c%04d", c) }

// Publications generates the DBLP-like pivot of §8.6(3): pubs(author,
// c0000..) with about 5 % non-zero publication counts, and ranking(conf,
// rating) in which exactly max(1, nConfs/20) conferences are rated A++.
func Publications(nAuthors, nConfs int, seed int64) (pubs, ranking *Table) {
	rng := rand.New(rand.NewSource(seed))
	author := make([]int64, nAuthors)
	for i := range author {
		author[i] = int64(i)
	}
	cols := []Col{{Name: "author", I: author}}
	for c := 0; c < nConfs; c++ {
		counts := make([]float64, nAuthors)
		for i := range counts {
			if rng.Intn(20) == 0 {
				counts[i] = float64(1 + rng.Intn(8))
			}
		}
		cols = append(cols, Col{Name: ConfName(c), F: counts})
	}
	pubs = &Table{Name: "pubs", Cols: cols}

	nTop := nConfs / 20
	if nTop < 1 {
		nTop = 1
	}
	other := []string{"A+", "A", "B", "C"}
	conf := make([]string, nConfs)
	rating := make([]string, nConfs)
	for k, c := range rng.Perm(nConfs) {
		conf[c] = ConfName(c)
		if k < nTop {
			rating[c] = "A++"
		} else {
			rating[c] = other[k%len(other)]
		}
	}
	ranking = &Table{Name: "ranking", Cols: []Col{{Name: "conf", S: conf}, {Name: "rating", S: rating}}}
	return pubs, ranking
}

// RiderCounts generates the two yearly rider x destination trip-count
// relations of §8.6(4): y1(rider, dest0..) and y2(rider2, dest0..). Both
// hold riders 0..nRiders-1, each in its own seeded row order, so adding
// them has to sort both by the order schema.
func RiderCounts(nRiders, nDests int, seed int64) (y1, y2 *Table) {
	rng := rand.New(rand.NewSource(seed))
	year := func(name, key string) *Table {
		riders := make([]int64, nRiders)
		for i, p := range rng.Perm(nRiders) {
			riders[i] = int64(p)
		}
		cols := []Col{{Name: key, I: riders}}
		for d := 0; d < nDests; d++ {
			counts := make([]float64, nRiders)
			for i := range counts {
				counts[i] = float64(rng.Intn(40))
			}
			cols = append(cols, Col{Name: fmt.Sprintf("dest%d", d), F: counts})
		}
		return &Table{Name: name, Cols: cols}
	}
	return year("y1", "rider"), year("y2", "rider2")
}

// Fact generates fact(id, k, grp, val): id ascending (so zone maps can
// prune id ranges), k a dim key in [0, nDim), grp in [0, nGrp), val
// uniform in [0, 100).
func Fact(n, nDim, nGrp int, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	id := make([]int64, n)
	k := make([]int64, n)
	grp := make([]int64, n)
	val := make([]float64, n)
	for i := range id {
		id[i] = int64(i)
		k[i] = int64(rng.Intn(nDim))
		grp[i] = int64(rng.Intn(nGrp))
		val[i] = 100 * rng.Float64()
	}
	return &Table{Name: "fact", Cols: []Col{
		{Name: "id", I: id}, {Name: "k", I: k}, {Name: "grp", I: grp}, {Name: "val", F: val},
	}}
}

// Dim generates dim(k, label, w) with k = 0..n-1 and 16 distinct labels.
func Dim(n int, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	k := make([]int64, n)
	label := make([]string, n)
	w := make([]float64, n)
	for i := range k {
		k[i] = int64(i)
		label[i] = fmt.Sprintf("L%02d", rng.Intn(16))
		w[i] = 1 + rng.Float64()
	}
	return &Table{Name: "dim", Cols: []Col{{Name: "k", I: k}, {Name: "label", S: label}, {Name: "w", F: w}}}
}

// Wide generates wide(id, x00..): n rows of nCols uniform floats, the
// argument of the served RMA table functions.
func Wide(n, nCols int, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	id := make([]int64, n)
	for i := range id {
		id[i] = int64(i)
	}
	cols := []Col{{Name: "id", I: id}}
	for c := 0; c < nCols; c++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
		}
		cols = append(cols, Col{Name: fmt.Sprintf("x%02d", c), F: x})
	}
	return &Table{Name: "wide", Cols: cols}
}

// Statement kinds of the served mix.
const (
	KindScan   = "scan"   // filtered scan with a varying literal, LIMIT 100
	KindPipe   = "pipe"   // filter -> join -> group pipeline
	KindTopK   = "topk"   // ORDER BY ... LIMIT 10
	KindRMA    = "rma"    // RMA table function over wide
	KindInsert = "insert" // INSERT of 16 rows into the persisted events table
)

// Event is one row of the served events table.
type Event struct {
	ID, K int64
	Val   float64
}

// Statement is one served statement.
type Statement struct {
	Kind string
	SQL  string
	// Arg is the statement's varying part as a number: the scan or
	// pipeline threshold, the top-k group, or for an RMA call 1 when the
	// cross product is also inverted.
	Arg float64
	// Events are the rows an INSERT adds, exactly as its literals parse.
	Events []Event
}

// InsertRows is the size of every served INSERT.
const InsertRows = 16

// Mix generates n statements for connection conn in a seeded order. Over
// a pair of connections the mix is 40 % scan, 25 % pipe, 15 % topk, 10 %
// rma, 10 % insert; all INSERTs are on the even connection (which sends
// 30 % scans and 20 % inserts, the odd one 50 % scans), because the
// engine's checkpoint of a persisted table has a single writer. Query
// literals come from small pools (40 scan thresholds, 8 pipeline
// thresholds, 4 top-k groups, 2 RMA calls) so that each distinct query can
// be checked against a reference computed once; the literal still varies
// from statement to statement. Inserted ids are unique across connections.
func Mix(n, conn, nDim int, seed int64) []Statement {
	rng := rand.New(rand.NewSource(seed + 7919*int64(conn+1)))
	inserts := 4
	if conn%2 == 1 {
		inserts = 0
	}
	kinds := make([]string, n)
	for i := range kinds {
		switch p := i % 20; {
		case p < inserts:
			kinds[i] = KindInsert
		case p < 10:
			kinds[i] = KindScan
		case p < 15:
			kinds[i] = KindPipe
		case p < 18:
			kinds[i] = KindTopK
		default:
			kinds[i] = KindRMA
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	out := make([]Statement, n)
	nextID := int64(conn) << 40
	for i, kind := range kinds {
		st := Statement{Kind: kind}
		switch kind {
		case KindScan:
			st.Arg = float64(50+rng.Intn(40)) + 0.5
			st.SQL = fmt.Sprintf("SELECT id, val FROM fact WHERE val > %.1f LIMIT 100;", st.Arg)
		case KindPipe:
			st.Arg = float64(60 + 5*rng.Intn(8))
			st.SQL = fmt.Sprintf("SELECT d.label AS label, SUM(f.val) AS sv, COUNT(*) AS n FROM fact f JOIN dim d ON f.k = d.k WHERE f.val > %.0f GROUP BY d.label ORDER BY label;", st.Arg)
		case KindTopK:
			st.Arg = float64(rng.Intn(4))
			st.SQL = fmt.Sprintf("SELECT id, val FROM fact WHERE grp = %.0f ORDER BY val DESC LIMIT 10;", st.Arg)
		case KindRMA:
			st.SQL = "SELECT * FROM CPD(wide BY id, wide BY id);"
			if st.Arg = float64(rng.Intn(2)); st.Arg == 1 {
				st.SQL = "SELECT * FROM INV(CPD(wide BY id, wide BY id) BY C);"
			}
		case KindInsert:
			var b strings.Builder
			b.WriteString("INSERT INTO events VALUES ")
			for r := 0; r < InsertRows; r++ {
				if r > 0 {
					b.WriteByte(',')
				}
				ev := Event{ID: nextID, K: int64(rng.Intn(nDim)), Val: math.Round(1e5*rng.Float64()) / 1e3}
				nextID++
				fmt.Fprintf(&b, "(%d,%d,%s)", ev.ID, ev.K, strconv.FormatFloat(ev.Val, 'f', 3, 64))
				st.Events = append(st.Events, ev)
			}
			b.WriteByte(';')
			st.SQL = b.String()
		}
		out[i] = st
	}
	return out
}
