package sql

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/rel"
)

// streamDB builds a database with a fact table t of n rows, a 500-row
// dimension table s keyed to t.grp, and a 3-row table u for cross joins.
func streamDB(t *testing.T, n int) *DB {
	t.Helper()
	db := NewDB()

	ids := make([]int64, n)
	grps := make([]int64, n)
	vals := make([]float64, n)
	ws := make([]float64, n)
	tags := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		grps[i] = int64((i*7919 + 5) % 97)
		vals[i] = float64(i%211)*0.375 - 39.0
		ws[i] = float64((i*31)%997) * 0.0625
		tags[i] = fmt.Sprintf("t%d", i%5)
	}
	fact, err := rel.New("t", rel.Schema{
		{Name: "id", Type: bat.Int},
		{Name: "grp", Type: bat.Int},
		{Name: "val", Type: bat.Float},
		{Name: "w", Type: bat.Float},
		{Name: "tag", Type: bat.String},
	}, []*bat.BAT{bat.FromInts(ids), bat.FromInts(grps), bat.FromFloats(vals), bat.FromFloats(ws), bat.FromStrings(tags)})
	if err != nil {
		t.Fatal(err)
	}
	db.Register("t", fact)

	const dn = 500
	ks := make([]int64, dn)
	bonus := make([]float64, dn)
	labels := make([]string, dn)
	for j := 0; j < dn; j++ {
		ks[j] = int64((j * 13) % 120) // some keys duplicated, some > 96 unmatched
		bonus[j] = float64(j%17) * 0.5
		labels[j] = fmt.Sprintf("L%d", j%11)
	}
	dim, err := rel.New("s", rel.Schema{
		{Name: "k", Type: bat.Int},
		{Name: "bonus", Type: bat.Float},
		{Name: "label", Type: bat.String},
	}, []*bat.BAT{bat.FromInts(ks), bat.FromFloats(bonus), bat.FromStrings(labels)})
	if err != nil {
		t.Fatal(err)
	}
	db.Register("s", dim)

	small, err := rel.New("u", rel.Schema{
		{Name: "uid", Type: bat.Int},
		{Name: "utag", Type: bat.String},
	}, []*bat.BAT{bat.FromInts([]int64{10, 20, 30}), bat.FromStrings([]string{"a", "b", "a"})})
	if err != nil {
		t.Fatal(err)
	}
	db.Register("u", small)
	return db
}

// equalBits compares two relations for bitwise equality: identical
// schemas and, per column, identical float bit patterns (not just ==,
// which would let -0 slide), int values, and strings.
func equalBits(a, b *rel.Relation) error {
	if len(a.Schema) != len(b.Schema) {
		return fmt.Errorf("schema arity %d vs %d", len(a.Schema), len(b.Schema))
	}
	for k := range a.Schema {
		if a.Schema[k] != b.Schema[k] {
			return fmt.Errorf("schema[%d] %+v vs %+v", k, a.Schema[k], b.Schema[k])
		}
	}
	if a.NumRows() != b.NumRows() {
		return fmt.Errorf("%d rows vs %d", a.NumRows(), b.NumRows())
	}
	for k := range a.Cols {
		av, bv := a.Cols[k].Vector(), b.Cols[k].Vector()
		switch a.Schema[k].Type {
		case bat.Float:
			af, bf := av.Floats(), bv.Floats()
			for i := range af {
				if math.Float64bits(af[i]) != math.Float64bits(bf[i]) {
					return fmt.Errorf("col %q row %d: %v (%#x) vs %v (%#x)",
						a.Schema[k].Name, i, af[i], math.Float64bits(af[i]), bf[i], math.Float64bits(bf[i]))
				}
			}
		case bat.Int:
			ai, bi := av.Ints(), bv.Ints()
			for i := range ai {
				if ai[i] != bi[i] {
					return fmt.Errorf("col %q row %d: %d vs %d", a.Schema[k].Name, i, ai[i], bi[i])
				}
			}
		case bat.String:
			as, bs := av.Strings(), bv.Strings()
			for i := range as {
				if as[i] != bs[i] {
					return fmt.Errorf("col %q row %d: %q vs %q", a.Schema[k].Name, i, as[i], bs[i])
				}
			}
		}
	}
	return nil
}

// streamingQueries are the differential shapes: each exercises a
// distinct slice of the streaming planner and runtime.
var streamingQueries = []string{
	// Plain projection with column pruning.
	"SELECT id, val, tag FROM t;",
	// Fused scan: predicate conjuncts and expression projection.
	"SELECT id, val * 2 + w AS z FROM t WHERE val > 0 AND id % 3 = 1;",
	// Inner join with pushdown into both sides and a pre-sized build.
	"SELECT t.id, t.val, s.bonus FROM t JOIN s ON t.grp = s.k WHERE s.bonus > 2 AND t.val > 0;",
	// LEFT JOIN with probe-side pushdown and padded unmatched rows.
	"SELECT t.id, s.label FROM t LEFT JOIN s ON t.grp = s.k WHERE t.val > 0;",
	// All five aggregates over grouped streaming accumulation.
	"SELECT grp AS g, COUNT(*) AS n, SUM(val) AS sv, AVG(w) AS aw, MIN(val) AS mv, MAX(w) AS xw FROM t GROUP BY grp ORDER BY g;",
	// Unaliased group key keeps its column name — naming parity.
	"SELECT grp, COUNT(*) AS n FROM t GROUP BY grp;",
	// ORDER BY the unaliased group key resolves through that name.
	"SELECT grp, COUNT(*) AS n FROM t GROUP BY grp ORDER BY grp;",
	// Join into grouping with HAVING, descending order, and limit.
	"SELECT s.label, SUM(t.val) AS sv, COUNT(*) AS n FROM t JOIN s ON t.grp = s.k GROUP BY s.label HAVING COUNT(*) > 10 ORDER BY sv DESC LIMIT 5;",
	// DISTINCT over the streamed projection.
	"SELECT DISTINCT tag FROM t;",
	// Cross join with a mixed-side predicate and early-stop limit.
	"SELECT t.id, u.utag FROM t CROSS JOIN u WHERE u.utag = 'a' AND t.id % 7 = 0 LIMIT 50;",
	// Subquery in FROM: the inner SELECT streams too.
	"SELECT id, val FROM (SELECT id, val, grp FROM t WHERE id % 2 = 0) WHERE val < 10;",
	// ORDER BY a column that is not selected: the streaming planner
	// rejects this shape and the fallback must still match.
	"SELECT tag, id FROM t ORDER BY val, id;",
	// Global aggregate without GROUP BY.
	"SELECT COUNT(*) AS n, SUM(val) AS sv FROM t WHERE val > 1000;",
}

// TestStreamingMatchesMaterialized pins the streaming pipeline to the
// materializing one: for every query shape, row counts straddling the
// morsel edges, and several worker budgets, the two paths must produce
// bitwise-identical relations.
func TestStreamingMatchesMaterialized(t *testing.T) {
	sizes := []int{0, 1, bat.MorselSize - 1, bat.MorselSize, bat.MorselSize + 1, 3 * bat.MorselSize}
	for _, n := range sizes {
		db := streamDB(t, n)
		for _, workers := range []int{1, 2, 8} {
			db.SetRMAOptions(&core.Options{Parallelism: workers})
			for qi, q := range streamingQueries {
				db.SetStreaming(true)
				streamed, err := db.Query(q)
				if err != nil {
					t.Fatalf("n=%d workers=%d query %d streamed: %v", n, workers, qi, err)
				}
				db.SetStreaming(false)
				materialized, err := db.Query(q)
				if err != nil {
					t.Fatalf("n=%d workers=%d query %d materialized: %v", n, workers, qi, err)
				}
				if err := equalBits(streamed, materialized); err != nil {
					t.Fatalf("n=%d workers=%d query %d (%s): %v", n, workers, qi, q, err)
				}
			}
		}
	}
}

// TestStreamingErrorsMatchMaterialized pins user-facing errors: every
// statement the materializing path rejects must fail identically with
// streaming enabled, whether the planner bails (falling back to the
// materializing error) or the streaming runtime reports it itself.
func TestStreamingErrorsMatchMaterialized(t *testing.T) {
	db := streamDB(t, 100)
	bad := []string{
		"SELECT nosuch FROM t;",
		"SELECT id FROM t JOIN t ON id = id;",               // ambiguous column in a self-join
		"SELECT grp FROM t LEFT JOIN s ON t.val > s.bonus;", // LEFT JOIN without equi keys
		"SELECT id FROM t HAVING id > 1;",
		"SELECT id FROM t GROUP BY grp;",
		"SELECT MIN(*) FROM t;",
		"SELECT SUM(tag) FROM t;",
		"SELECT tag + 1 FROM t;",
	}
	for qi, q := range bad {
		db.SetStreaming(true)
		_, serr := db.Query(q)
		db.SetStreaming(false)
		_, merr := db.Query(q)
		if merr == nil {
			if serr != nil {
				t.Fatalf("query %d (%s): streaming failed (%v), materialized succeeded", qi, q, serr)
			}
			continue
		}
		if serr == nil || serr.Error() != merr.Error() {
			t.Fatalf("query %d (%s): streaming error %q, materialized error %q", qi, q, serr, merr)
		}
	}
}

// TestGroupKeyKeepsColumnName pins the output name of an unaliased group
// key to the key column's own name, as an ungrouped SELECT names it, so a
// derived table exposes it to the outer query under that name.
func TestGroupKeyKeepsColumnName(t *testing.T) {
	db := streamDB(t, 100)
	for _, streaming := range []bool{true, false} {
		db.SetStreaming(streaming)
		out, err := db.Query("SELECT t.grp, COUNT(*) AS n FROM t GROUP BY t.grp;")
		if err != nil {
			t.Fatalf("streaming=%v: %v", streaming, err)
		}
		if got := out.Schema[0].Name; got != "grp" {
			t.Fatalf("streaming=%v: group key column named %q, want \"grp\"", streaming, got)
		}
		outer, err := db.Query("SELECT f.grp, f.n FROM (SELECT t.grp, COUNT(*) AS n FROM t GROUP BY t.grp) f ORDER BY f.grp;")
		if err != nil {
			t.Fatalf("streaming=%v: derived table: %v", streaming, err)
		}
		if outer.NumRows() != out.NumRows() {
			t.Fatalf("streaming=%v: derived table has %d rows, want %d", streaming, outer.NumRows(), out.NumRows())
		}
		// A repeated key is disambiguated as in the ungrouped SELECT.
		dup, err := db.Query("SELECT grp, grp, COUNT(*) AS n FROM t GROUP BY grp;")
		if err != nil {
			t.Fatalf("streaming=%v: repeated key: %v", streaming, err)
		}
		if a, b := dup.Schema[0].Name, dup.Schema[1].Name; a != "grp" || b != "grp_2" {
			t.Fatalf("streaming=%v: repeated key columns named %q, %q, want \"grp\", \"grp_2\"", streaming, a, b)
		}
	}
}

// TestStreamingPeakMemoryWin is the headline acceptance check: a
// filter → join → group-by statement streamed morsel-at-a-time must peak
// at less than half the accounted arena bytes of the same statement
// materialized. Each path runs under its own tenant (peak is cumulative
// per tenant) on a fresh governor.
func TestStreamingPeakMemoryWin(t *testing.T) {
	const n = 1 << 16
	const budget = 256 << 20
	q := "SELECT grp AS g, SUM(val) AS sv, COUNT(*) AS cnt FROM t JOIN s ON t.grp = s.k WHERE t.val > 0 GROUP BY grp ORDER BY g;"

	db := streamDB(t, n)
	gov := exec.NewGovernor(1<<30, 8)
	db.SetGovernor(gov)

	db.SetStreaming(true)
	db.SetRMAOptions(&core.Options{Tenant: "streamside", MemoryBudget: budget})
	streamed, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}

	db.SetStreaming(false)
	db.SetRMAOptions(&core.Options{Tenant: "matside", MemoryBudget: budget})
	materialized, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}

	if err := equalBits(streamed, materialized); err != nil {
		t.Fatalf("streamed result differs under arenas: %v", err)
	}

	streamPeak := gov.Tenant("streamside", budget).PeakBytes()
	matPeak := gov.Tenant("matside", budget).PeakBytes()
	if streamPeak <= 0 || matPeak <= 0 {
		t.Fatalf("expected both tenants charged: stream=%d materialized=%d", streamPeak, matPeak)
	}
	if 2*streamPeak > matPeak {
		t.Fatalf("streaming peak %d bytes not under half of materialized peak %d bytes", streamPeak, matPeak)
	}
	t.Logf("peak arena bytes: streaming=%d materialized=%d (%.1fx win)",
		streamPeak, matPeak, float64(matPeak)/float64(streamPeak))
}

// TestStreamingPipelineStats checks the observability surface: a
// streamed statement leaves per-stage morsel counters behind, and the
// scan stage accounts every input row.
func TestStreamingPipelineStats(t *testing.T) {
	n := 2*bat.MorselSize + 100
	db := streamDB(t, n)
	if _, err := db.Query("SELECT t.id, s.bonus FROM t JOIN s ON t.grp = s.k WHERE t.val > 0;"); err != nil {
		t.Fatal(err)
	}
	stats := db.PipelineStats()
	if len(stats) == 0 {
		t.Fatal("no pipeline stats after a streamed statement")
	}
	byName := map[string]exec.StageStats{}
	for _, st := range stats {
		byName[st.Name] = st
	}
	scan, ok := byName["scan(t)"]
	if !ok {
		t.Fatalf("no scan(t) stage in %v", stats)
	}
	if scan.Rows >= int64(n) {
		t.Fatalf("scan emitted %d rows; the fused predicate should drop some of %d", scan.Rows, n)
	}
	if scan.Batches < 2 {
		t.Fatalf("scan emitted %d batches, want several at n=%d", scan.Batches, n)
	}
	if _, ok := byName["join"]; !ok {
		t.Fatalf("no join stage in %v", stats)
	}
	if _, ok := byName["project"]; !ok {
		t.Fatalf("no project stage in %v", stats)
	}
}
