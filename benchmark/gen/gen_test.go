package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

func hashOf(tables ...*Table) string {
	h := sha256.New()
	for _, t := range tables {
		t.Hash(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// all generates every input of the benchmark at small sizes.
func all(seed int64) []*Table {
	trips, stations := Trips(6000, 20, seed)
	pubs, ranking := Publications(300, 24, seed)
	y1, y2 := RiderCounts(500, 4, seed)
	return []*Table{trips, stations, pubs, ranking, y1, y2,
		Fact(1000, 50, 16, seed), Dim(50, seed), Wide(32, 8, seed)}
}

func TestSameSeedSameBytes(t *testing.T) {
	a, b, c := hashOf(all(7)...), hashOf(all(7)...), hashOf(all(8)...)
	if a != b {
		t.Errorf("one seed gave two inputs: %s and %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 gave the same inputs")
	}
	for conn := 0; conn < 2; conn++ {
		x, y := Mix(200, conn, 50, 7), Mix(200, conn, 50, 7)
		for i := range x {
			if x[i].SQL != y[i].SQL {
				t.Fatalf("connection %d statement %d differs between two runs of one seed", conn, i)
			}
		}
	}
}

// The work of trips-ols must not depend on the seed: every hot route is
// ridden at least 50 times, every other route fewer, and the hot routes
// carry the same number of trips.
func TestTripsFrequentRouteSplitIsFixed(t *testing.T) {
	for _, size := range []struct{ trips, stations int }{{310000, 80}, {12000, 20}} {
		var kept []int
		for seed := int64(1); seed <= 3; seed++ {
			trips, _ := Trips(size.trips, size.stations, seed)
			start, end := trips.Col("start_station").I, trips.Col("end_station").I
			rides := map[[2]int64]int{}
			for i := range start {
				rides[[2]int64{start[i], end[i]}]++
			}
			frequent, keptTrips := 0, 0
			for _, n := range rides {
				if n >= 50 {
					frequent++
					keptTrips += n
				}
			}
			if want := size.stations * size.stations / 8; frequent != want {
				t.Errorf("%d trips, seed %d: %d frequent routes, want %d", size.trips, seed, frequent, want)
			}
			kept = append(kept, keptTrips)
		}
		if kept[0] != kept[1] || kept[1] != kept[2] {
			t.Errorf("%d trips: trips on frequent routes vary with the seed: %v", size.trips, kept)
		}
	}
}

func TestRankingHasFixedTopCount(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		_, ranking := Publications(10, 130, seed)
		top := 0
		for _, r := range ranking.Col("rating").S {
			if r == "A++" {
				top++
			}
		}
		if top != 6 {
			t.Errorf("seed %d: %d A++ conferences, want 6", seed, top)
		}
	}
}

func TestMixShares(t *testing.T) {
	count := map[string]int{}
	for conn := 0; conn < 2; conn++ {
		for _, st := range Mix(2000, conn, 500, 3) {
			count[st.Kind]++
			if st.Kind == KindInsert {
				if conn != 0 {
					t.Fatalf("connection %d sends an INSERT; only the even connection may write", conn)
				}
				if len(st.Events) != InsertRows {
					t.Fatalf("INSERT carries %d rows, want %d", len(st.Events), InsertRows)
				}
			}
		}
	}
	want := map[string]int{KindScan: 1600, KindPipe: 1000, KindTopK: 600, KindRMA: 400, KindInsert: 400}
	for kind, n := range want {
		if count[kind] != n {
			t.Errorf("%s: %d of 4000 statements, want %d", kind, count[kind], n)
		}
	}
}
