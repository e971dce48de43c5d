package sql

import (
	"runtime"
	"testing"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/rel"
)

// skipUnderRace skips an allocation test in a race build: the race
// detector's bookkeeping allocates on the Go heap (a 333-row join with a
// LIKE filter allocates 157 KB without it and 2.7 MB with it), so
// TotalAlloc no longer measures the engine.
func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs runtime.MemStats.TotalAlloc")
	}
}

// statementAlloc runs q at one worker on a fresh tenant and returns the
// tenant's peak, the bytes the Go heap allocated during the statement
// (runtime.MemStats.TotalAlloc), and the statement's error.
func statementAlloc(db *DB, q string) (peak int64, alloc uint64, err error) {
	gov := exec.NewGovernor(0, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = db.QueryWith(q, &core.Options{Tenant: "acct", Governor: gov, Parallelism: 1})
	runtime.ReadMemStats(&after)
	return gov.Tenant("acct", 0).PeakBytes(), after.TotalAlloc - before.TotalAlloc, err
}

// allocSlack is what a statement may allocate beyond twice its tenant
// peak: parsing, planning and the per-statement bookkeeping that is not
// column data.
const allocSlack = 1 << 20

// TestGroupStateAccounting holds grouped aggregation and DISTINCT to the
// tenant ledger. 262 144 rows fall into 65 536 groups (every key four
// times). The group table's index (131 072 buckets and 65 536 links),
// its key column and its state columns are all arena-drawn, so the
// tenant's peak is at least their bytes; and since nothing else grows
// with the groups, the Go heap allocates at most twice the peak plus
// allocSlack. The statement runs twice on fresh tenants, and the second
// (warm) run is measured.
func TestGroupStateAccounting(t *testing.T) {
	skipUnderRace(t)
	const groups, rows = 65536, 4 * 65536
	k := make([]int64, rows)
	v := make([]float64, rows)
	for i := range k {
		k[i] = int64((i * 40503) % groups)
		v[i] = float64(i%97) * 0.25
	}
	db := NewDB()
	db.Register("t", rel.MustNew("t", rel.Schema{{Name: "k", Type: bat.Int}, {Name: "v", Type: bat.Float}},
		[]*bat.BAT{bat.FromInts(k), bat.FromFloats(v)}))

	const index = 8 * (2*groups + groups)
	for _, tc := range []struct {
		name, query string
		columns     int64 // key and state columns of the group table
	}{
		{"group", "SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k", 3},
		{"distinct", "SELECT DISTINCT k FROM t", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := statementAlloc(db, tc.query); err != nil {
				t.Fatal(err)
			}
			peak, alloc, err := statementAlloc(db, tc.query)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("tenant peak %d B, Go allocation %d B", peak, alloc)
			if want := index + 8*groups*tc.columns; peak < want {
				t.Errorf("tenant peak %d B below the group table's %d B: group state escapes the ledger", peak, want)
			}
			if limit := 2*uint64(peak) + allocSlack; alloc > limit {
				t.Errorf("statement allocated %d B, above 2 x peak %d B + %d B", alloc, peak, allocSlack)
			}
		})
	}
}
