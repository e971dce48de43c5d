package sql

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/rel"
)

// spillQuery runs a high-fanout equi-join (every probe row matches 128
// build rows) through grouping and a final sort.
const spillQuery = `SELECT p.k AS g, COUNT(*) AS cnt FROM p JOIN b ON p.k = b.k
	GROUP BY p.k ORDER BY g`

// wideSpillQuery is spillQuery over the wide probe table, aggregating
// every value column, so the joined rows outweigh the pair indexes.
const wideSpillQuery = `SELECT p.k AS g, SUM(p.v0) AS s0, SUM(p.v1) AS s1,
	SUM(p.v2) AS s2, SUM(p.v3) AS s3, SUM(p.v4) AS s4, SUM(p.v5) AS s5,
	COUNT(*) AS cnt FROM p JOIN b ON p.k = b.k GROUP BY p.k ORDER BY g`

// fanoutDB registers the fan-out join inputs: 8Ki probe rows and 2Ki
// build rows over 16 shared key values — 1Mi join pairs — with width
// float value columns v0, v1, … on the probe side.
func fanoutDB(t *testing.T, width int) *DB {
	t.Helper()
	db := NewDB()
	const pn, bn = 1 << 13, 2048
	pk := make([]int64, pn)
	for i := range pk {
		pk[i] = int64(i % 16)
	}
	schema := rel.Schema{{Name: "k", Type: bat.Int}}
	cols := []*bat.BAT{bat.FromInts(pk)}
	for v := 0; v < width; v++ {
		f := make([]float64, pn)
		for i := range f {
			f[i] = float64((i*31+v*7)%257) / 16
		}
		schema = append(schema, rel.Attr{Name: fmt.Sprintf("v%d", v), Type: bat.Float})
		cols = append(cols, bat.FromFloats(f))
	}
	db.Register("p", rel.MustNew("p", schema, cols))
	db.Register("b", rel.MustNew("b", rel.Schema{{Name: "k", Type: bat.Int}},
		[]*bat.BAT{bat.FromInts(pk[:bn])}))
	return db
}

// The budgets the fan-out statements could only meet by spilling when
// every join materialized its pair arrays and joined rows: the midpoints
// between their in-memory and fully-spilled serial peaks on that
// executor (32 and 17 MiB narrow, 80 and 68 MiB wide).
const (
	fanoutSpillBudget     = 25_690_112
	wideFanoutSpillBudget = 77_594_624
)

// TestSpillDifferentialSelfCalibrated is the statement-level out-of-core
// check for the narrow fan-out join; see fanoutSelfCalibrated.
func TestSpillDifferentialSelfCalibrated(t *testing.T) {
	fanoutSelfCalibrated(t, 0, spillQuery, fanoutSpillBudget)
}

// TestSpillDifferentialWideSelfCalibrated is the same check over the
// wide probe table, where the joined value columns dominate.
func TestSpillDifferentialWideSelfCalibrated(t *testing.T) {
	fanoutSelfCalibrated(t, 6, wideSpillQuery, wideFanoutSpillBudget)
}

// fanoutSelfCalibrated measures the streamed statement against the
// machine instead of hard-coded peaks. It takes P, the serial
// unbudgeted peak, and pins:
//
//  1. P fits the budget that once required spilling: the streamed join
//     holds one probe morsel's pairs at a time;
//  2. under that budget the statement succeeds at workers 1, 2 and 8
//     with no spill manager, never spills, keeps its ledger peak under
//     the budget, and matches the reference executor bitwise;
//  3. a budget of P/2 fails with the typed error and strands no bytes,
//     so the calibration constrains the statement;
//  4. with a one-byte spill threshold the statement spills and the
//     result is still bitwise equal.
//
// The spill engine for the join itself is checked on rel.HashJoin by
// TestHashJoinSpillSelfCalibrated.
func fanoutSelfCalibrated(t *testing.T, width int, query string, budget int64) {
	t.Helper()
	want, err := refQuery(fanoutDB(t, width), query)
	if err != nil {
		t.Fatal(err)
	}

	gov := exec.NewGovernor(0, 0)
	calib, err := fanoutDB(t, width).QueryWith(query, &core.Options{
		Tenant: "calib", Governor: gov, Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := equalBits(want, calib); err != nil {
		t.Fatalf("serial result differs from the reference: %v", err)
	}
	peak := gov.Tenant("calib", 0).PeakBytes()
	if peak == 0 {
		t.Fatal("calibration run charged nothing; peak measurement is vacuous")
	}
	if peak > budget {
		t.Fatalf("serial streamed peak %d exceeds budget %d", peak, budget)
	}
	t.Logf("serial streamed peak %d of budget %d", peak, budget)

	for _, workers := range []int{1, 2, 8} {
		db := fanoutDB(t, width)
		gv := exec.NewGovernor(0, 0)
		got, err := db.QueryWith(query, &core.Options{
			Tenant: "fan", Governor: gv, MemoryBudget: budget, Parallelism: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: failed under budget %d: %v", workers, budget, err)
		}
		if err := equalBits(want, got); err != nil {
			t.Fatalf("workers=%d: result differs from the reference: %v", workers, err)
		}
		if st := db.SpillStats(); st.Events != 0 {
			t.Fatalf("workers=%d: spilled: %+v", workers, st)
		}
		tn := gv.Tenant("fan", 0)
		if p := tn.PeakBytes(); p > budget {
			t.Fatalf("workers=%d: ledger peak %d exceeds budget %d", workers, p, budget)
		}
		if live := tn.LiveBytes(); live != 0 {
			t.Fatalf("workers=%d: tenant live = %d after the statement, want 0", workers, live)
		}
		t.Logf("workers=%d: peak %d of budget %d", workers, tn.PeakBytes(), budget)
	}

	tight := exec.NewGovernor(0, 0)
	_, err = fanoutDB(t, width).QueryWith(query, &core.Options{
		Tenant: "tight", Governor: tight, MemoryBudget: peak / 2, Parallelism: 8,
	})
	if err == nil {
		t.Fatalf("statement fit in %d bytes, half its serial peak; calibration did not constrain it", peak/2)
	}
	if !errors.Is(err, exec.ErrMemoryBudget) {
		t.Fatalf("error = %v, want ErrMemoryBudget", err)
	}
	if live := tight.Tenant("tight", 0).LiveBytes(); live != 0 {
		t.Fatalf("tenant live = %d after the failed statement, want 0", live)
	}

	shed := fanoutDB(t, width)
	shed.SetSpill(t.TempDir(), 1)
	spilled, err := shed.QueryWith(query, &core.Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := equalBits(want, spilled); err != nil {
		t.Fatalf("one-byte-threshold result differs from the reference: %v", err)
	}
	if st := shed.SpillStats(); st.Events == 0 || st.SpilledBytes == 0 {
		t.Fatalf("one-byte threshold produced no spill activity (%+v); the differential is vacuous", st)
	}
}

// TestSpillConsumersIsolated runs statements whose plan contains exactly
// one operator the spill policy could reach, under a threshold well below
// every operator's estimate, and checks each result bitwise against a
// no-spill run of the same statement at the same worker count. The
// grouped aggregation is the one operator that spills; the sort stays in
// memory, so its statement spills nothing and keeps its tenant peak.
func TestSpillConsumersIsolated(t *testing.T) {
	const n = 1 << 15
	cases := []struct {
		name   string
		query  string
		spills bool
	}{
		// No join, no sort: the grouped aggregation freezes and diverts.
		{"agg", "SELECT id, SUM(val) AS sv, COUNT(*) AS cnt FROM t GROUP BY id", true},
		// No join, no grouping: a multi-key ORDER BY, whose merge sort
		// splits into parallel runs at workers > 1.
		{"sort", "SELECT id, val, tag FROM t ORDER BY val DESC, id LIMIT 200", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(db *DB) (*rel.Relation, int64) {
				t.Helper()
				gov := exec.NewGovernor(0, 0)
				res, err := db.QueryWith(tc.query, &core.Options{Tenant: "iso", Governor: gov, Parallelism: 8})
				if err != nil {
					t.Fatal(err)
				}
				tn := gov.Tenant("iso", 0)
				if live := tn.LiveBytes(); live != 0 {
					t.Fatalf("tenant live = %d after the statement, want 0", live)
				}
				return res, tn.PeakBytes()
			}
			want, wantPeak := run(streamDB(t, n))
			db := streamDB(t, n)
			db.SetSpill(t.TempDir(), 1<<12) // well under every operator's estimate
			got, peak := run(db)
			if err := equalBits(want, got); err != nil {
				t.Fatalf("%s: result under the spill threshold differs: %v", tc.name, err)
			}
			st := db.SpillStats()
			if !tc.spills {
				if st.Events != 0 || st.SpilledBytes != 0 {
					t.Fatalf("%s spilled (%+v), want 0 bytes", tc.name, st)
				}
				if peak != wantPeak {
					t.Fatalf("%s: tenant peak %d under the spill threshold, %d without", tc.name, peak, wantPeak)
				}
				return
			}
			if st.Events == 0 || st.SpilledBytes == 0 {
				t.Fatalf("%s consumer never spilled (%+v)", tc.name, st)
			}
		})
	}
}
