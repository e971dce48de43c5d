package sql

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/rel"
)

// topKDB builds a table t of n rows whose first ORDER BY keys tie across
// every morsel boundary: a repeats thirteen values (NaN on every 29th
// row, −0 on every 31st, +0 among the thirteen), b five and s three,
// while id is unique and w spreads over 997 values.
func topKDB(t testing.TB, n int) *DB {
	t.Helper()
	ids, bs := make([]int64, n), make([]int64, n)
	as, ws := make([]float64, n), make([]float64, n)
	ss := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		bs[i] = int64(i % 5)
		switch {
		case i%29 == 0:
			as[i] = math.NaN()
		case i%31 == 0:
			as[i] = math.Copysign(0, -1)
		default:
			as[i] = float64(i%13) - 6
		}
		ws[i] = float64((i*31)%997) * 0.0625
		ss[i] = fmt.Sprintf("s%d", i%3)
	}
	db := NewDB()
	db.Register("t", rel.MustNew("t", rel.Schema{
		{Name: "id", Type: bat.Int},
		{Name: "a", Type: bat.Float},
		{Name: "b", Type: bat.Int},
		{Name: "w", Type: bat.Float},
		{Name: "s", Type: bat.String},
	}, []*bat.BAT{bat.FromInts(ids), bat.FromFloats(as), bat.FromInts(bs), bat.FromFloats(ws), bat.FromStrings(ss)}))
	return db
}

// topKQueries are ORDER BY ... LIMIT %d shapes. tie is a k that cuts a
// run of rows whose ORDER BY keys are equal, so the rows on either side
// of the cut differ only in position; folds marks the shapes the streamed
// projection folds (no grouping, no DISTINCT).
var topKQueries = []struct {
	q     string
	tie   int
	folds bool
}{
	// a = -6 on about 950 rows, ascending.
	{"SELECT id, a FROM t ORDER BY a LIMIT %d;", 500, true},
	// About 420 NaN rows come first descending.
	{"SELECT id, a, s FROM t ORDER BY a DESC LIMIT %d;", 200, true},
	// Keys on unselected input columns: NaN rows split three ways by s.
	{"SELECT id FROM t ORDER BY a DESC, s LIMIT %d;", 100, true},
	// A computed output key and an input key under a WHERE filter:
	// z is 0 on every 997th row, and rows 0 and 2991 share s.
	{"SELECT id, w * 2 AS z FROM t WHERE b <> 3 ORDER BY z, s LIMIT %d;", 1, true},
	// A computed key over input columns: NaN where a is NaN, else b.
	{"SELECT id, a FROM t ORDER BY a * 0 + b LIMIT %d;", 300, true},
	// Grouped: 2000 groups, m ties over about 150 groups per value.
	{"SELECT id %% 2000 AS g, MIN(a) AS m, COUNT(*) AS n FROM t GROUP BY id %% 2000 ORDER BY m DESC LIMIT %d;", 50, false},
	// DISTINCT: 15 rows, tied on s five ways.
	{"SELECT DISTINCT s, b FROM t ORDER BY s DESC LIMIT %d;", 2, false},
}

// TestStreamingTopKMatchesReference pins every bounded ORDER BY ... LIMIT
// k to the reference executor's full stable sort, bitwise, over three
// morsels and then some, at k = 0, 1, a tie boundary, bat.MorselSize,
// bat.MorselSize + 1 (the full sort) and past n, at workers 1, 2 and 8.
// The pipeline stats show which path ran: a topk stage for the folded
// shapes with k up to a morsel, and none otherwise.
func TestStreamingTopKMatchesReference(t *testing.T) {
	n := 3*bat.MorselSize + 17
	db := topKDB(t, n)
	for _, tc := range topKQueries {
		for _, k := range []int{0, 1, tc.tie, bat.MorselSize, bat.MorselSize + 1, n + 5} {
			q := fmt.Sprintf(tc.q, k)
			want, err := refQuery(db, q)
			if err != nil {
				t.Fatalf("%s: reference: %v", q, err)
			}
			for _, w := range []int{1, 2, 8} {
				got, err := db.QueryWith(q, &core.Options{Parallelism: w})
				if err != nil {
					t.Fatalf("%s workers=%d: %v", q, w, err)
				}
				if err := equalBits(want, got); err != nil {
					t.Fatalf("%s workers=%d: %v", q, w, err)
				}
				topk, ok := stageOf(db, "topk")
				if fold := tc.folds && k <= bat.MorselSize; ok != fold {
					t.Fatalf("%s: topk stage %v, want %v", q, ok, fold)
				} else if ok && (topk.Rows != int64(got.NumRows()) || topk.Batches < 3) {
					t.Fatalf("%s: topk stage %+v for %d rows out", q, topk, got.NumRows())
				}
			}
		}
	}
}

// stageOf returns the named stage of the last streamed statement.
func stageOf(db *DB, name string) (exec.StageStats, bool) {
	for _, st := range db.PipelineStats() {
		if st.Name == name {
			return st, true
		}
	}
	return exec.StageStats{}, false
}

// TestStreamingTopKPeak holds a filtered, computed ORDER BY ... LIMIT 100
// over 262 144 rows to less than 1 MiB of tenant bytes: the fold keeps
// 100 rows beside one morsel. The same statement without LIMIT, which
// sorts every row, is the control, and both leave no tenant bytes live.
func TestStreamingTopKPeak(t *testing.T) {
	const n = 1 << 18
	db := topKDB(t, n)
	q := "SELECT id, w * 2 + b AS z FROM t WHERE b <> 3 ORDER BY z DESC, a, id LIMIT 100;"
	peak := func(q string) int64 {
		gov := exec.NewGovernor(0, 0)
		if _, err := db.QueryWith(q, &core.Options{Tenant: "topk", Governor: gov, Parallelism: 2}); err != nil {
			t.Fatal(err)
		}
		tn := gov.Tenant("topk", 0)
		if live := tn.LiveBytes(); live != 0 {
			t.Fatalf("%s: %d tenant bytes live after the statement", q, live)
		}
		return tn.PeakBytes()
	}
	limited := peak(q)
	full := peak(strings.TrimSuffix(q, " LIMIT 100;") + ";")
	if limited >= 1<<20 {
		t.Fatalf("ORDER BY ... LIMIT 100 peaks at %d tenant bytes, want below 1 MiB", limited)
	}
	if full < 1<<20 {
		t.Fatalf("control without LIMIT peaks at %d tenant bytes: the bound shows nothing", full)
	}
	t.Logf("tenant peak: LIMIT 100 %d B, no LIMIT %d B", limited, full)
}

// BenchmarkOrderByLimit runs ORDER BY w DESC, k over 262 144 rows with
// and without LIMIT 100 at two workers, reporting ms/op and the tenant
// peak of the last operation.
func BenchmarkOrderByLimit(b *testing.B) {
	const n = 1 << 18
	ks, ws := make([]int64, n), make([]float64, n)
	for i := range ks {
		ks[i] = int64((i * 40503) % 65536)
		ws[i] = float64((i*7919)%100003) * 0.5
	}
	db := NewDB()
	db.Register("f", rel.MustNew("f", rel.Schema{{Name: "k", Type: bat.Int}, {Name: "w", Type: bat.Float}},
		[]*bat.BAT{bat.FromInts(ks), bat.FromFloats(ws)}))
	for _, bc := range []struct{ name, q string }{
		{"limit100", "SELECT k, w FROM f ORDER BY w DESC, k LIMIT 100;"},
		{"nolimit", "SELECT k, w FROM f ORDER BY w DESC, k;"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var gov *exec.Governor
			for i := 0; i < b.N; i++ {
				gov = exec.NewGovernor(0, 0)
				if _, err := db.QueryWith(bc.q, &core.Options{Tenant: "bench", Governor: gov, Parallelism: 2}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
			b.ReportMetric(float64(gov.Tenant("bench", 0).PeakBytes()), "peak_B")
		})
	}
}
