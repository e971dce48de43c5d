package sql

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"unsafe"

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
	// LEFT JOIN most probe rows miss: padding of every build column type.
	"SELECT t.id, s.k, s.bonus, s.label FROM t LEFT JOIN s ON t.grp + 100 = s.k;",
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
	// ORDER BY input columns the SELECT list drops (kept for the sort).
	"SELECT tag, id FROM t ORDER BY val, id;",
	// The same through a join, sorting on an unselected build-side column.
	"SELECT t.id, t.val FROM t JOIN s ON t.grp = s.k ORDER BY s.bonus DESC, t.id LIMIT 20;",
	// Global aggregate without GROUP BY.
	"SELECT COUNT(*) AS n, SUM(val) AS sv FROM t WHERE val > 1000;",
}

// TestStreamingMatchesMaterialized pins the streaming pipeline to the
// reference executor's whole-relation evaluation: for every query shape,
// row counts straddling the morsel edges, and several worker budgets,
// the two must produce bitwise-identical relations.
func TestStreamingMatchesMaterialized(t *testing.T) {
	sizes := []int{0, 1, bat.MorselSize - 1, bat.MorselSize, bat.MorselSize + 1, 3 * bat.MorselSize}
	for _, n := range sizes {
		db := streamDB(t, n)
		for qi, q := range streamingQueries {
			want, err := refQuery(db, q)
			if err != nil {
				t.Fatalf("n=%d query %d reference: %v", n, qi, err)
			}
			for _, workers := range []int{1, 2, 8} {
				got, err := db.QueryWith(q, &core.Options{Parallelism: workers})
				if err != nil {
					t.Fatalf("n=%d workers=%d query %d streamed: %v", n, workers, qi, err)
				}
				if err := equalBits(want, got); err != nil {
					t.Fatalf("n=%d workers=%d query %d (%s): %v", n, workers, qi, q, err)
				}
			}
		}
	}
}

// TestStreamingErrorsMatchMaterialized pins user-facing errors: every
// rejected statement fails with the same text from the engine and from
// the reference executor, and that text is the one users have always
// seen.
func TestStreamingErrorsMatchMaterialized(t *testing.T) {
	db := streamDB(t, 100)
	bad := []struct{ q, err string }{
		{"SELECT nosuch FROM t;", `sql: unknown column "nosuch"`},
		{"SELECT id FROM t JOIN t ON id = id;", `sql: ambiguous column "id"`},
		{"SELECT grp FROM t LEFT JOIN s ON t.val > s.bonus;", "sql: LEFT JOIN requires an equi-join condition"},
		{"SELECT id FROM t HAVING id > 1;", "sql: HAVING without aggregation"},
		{"SELECT id FROM t GROUP BY grp;", "rel: group by without aggregates"},
		{"SELECT MIN(*) FROM t;", "sql: MIN(*) not supported"},
		{"SELECT SUM(tag) FROM t;", `rel: aggregate SUM over non-numeric "a0"`},
		{"SELECT tag + 1 FROM t;", "sql: arithmetic over strings"},
	}
	for qi, b := range bad {
		_, err := db.Query(b.q)
		_, rerr := refQuery(db, b.q)
		if err == nil || rerr == nil || err.Error() != b.err || rerr.Error() != b.err {
			t.Fatalf("query %d (%s): engine error %v, reference error %v, want %q", qi, b.q, err, rerr, b.err)
		}
	}
}

// TestGroupKeyKeepsColumnName pins the output name of an unaliased group
// key to the key column's own name, as an ungrouped SELECT names it, so a
// derived table exposes it to the outer query under that name — in the
// engine and in the reference executor.
func TestGroupKeyKeepsColumnName(t *testing.T) {
	db := streamDB(t, 100)
	for _, ev := range []struct {
		name  string
		query func(string) (*rel.Relation, error)
	}{
		{"engine", db.Query},
		{"reference", func(q string) (*rel.Relation, error) { return refQuery(db, q) }},
	} {
		out, err := ev.query("SELECT t.grp, COUNT(*) AS n FROM t GROUP BY t.grp;")
		if err != nil {
			t.Fatalf("%s: %v", ev.name, err)
		}
		if got := out.Schema[0].Name; got != "grp" {
			t.Fatalf("%s: group key column named %q, want \"grp\"", ev.name, got)
		}
		outer, err := ev.query("SELECT f.grp, f.n FROM (SELECT t.grp, COUNT(*) AS n FROM t GROUP BY t.grp) f ORDER BY f.grp;")
		if err != nil {
			t.Fatalf("%s: derived table: %v", ev.name, err)
		}
		if outer.NumRows() != out.NumRows() {
			t.Fatalf("%s: derived table has %d rows, want %d", ev.name, outer.NumRows(), out.NumRows())
		}
		// A repeated key is disambiguated as in the ungrouped SELECT.
		dup, err := ev.query("SELECT grp, grp, COUNT(*) AS n FROM t GROUP BY grp;")
		if err != nil {
			t.Fatalf("%s: repeated key: %v", ev.name, err)
		}
		if a, b := dup.Schema[0].Name, dup.Schema[1].Name; a != "grp" || b != "grp_2" {
			t.Fatalf("%s: repeated key columns named %q, %q, want \"grp\", \"grp_2\"", ev.name, a, b)
		}
	}
}

// TestGroupedItemNames pins the output names of unaliased grouped items
// to the ones an ungrouped SELECT gives: an expression over a group key
// and an aggregate call are col<k>, never the internal g<k>/agg<k>
// columns they are rewritten to — in the engine and in the reference
// executor.
func TestGroupedItemNames(t *testing.T) {
	db := streamDB(t, 100)
	for _, ev := range []struct {
		name  string
		query func(string) (*rel.Relation, error)
	}{
		{"engine", db.Query},
		{"reference", func(q string) (*rel.Relation, error) { return refQuery(db, q) }},
	} {
		for q, want := range map[string]string{
			"SELECT id % 3, SUM(val), COUNT(*) FROM t GROUP BY id % 3;":  "[col1 col2 col3]",
			"SELECT id % 3, val FROM t;":                                 "[col1 val]",
			"SELECT grp, SUM(val) + 1, MAX(w) AS m FROM t GROUP BY grp;": "[grp col2 m]",
			"SELECT COUNT(*), MIN(val) FROM t;":                          "[col1 col2]",
			"SELECT id % 3, id % 3, COUNT(*) FROM t GROUP BY id % 3;":    "[col1 col2 col3]",
			// A positional suffix already taken moves to the next free one.
			"SELECT 1 AS x_3, 2 AS x, 3 AS x FROM t;":                 "[x_3 x x_4]",
			"SELECT id AS x_3, val AS x, w AS x FROM t ORDER BY x_3;": "[x_3 x x_4]",
		} {
			out, err := ev.query(q)
			if err != nil {
				t.Fatalf("%s: %s: %v", ev.name, q, err)
			}
			if got := fmt.Sprint(out.Schema.Names()); got != want {
				t.Fatalf("%s: %s: columns %s, want %s", ev.name, q, got, want)
			}
		}
	}
}

// TestOrderByFloatOrder sorts a float column with every fifth row NaN,
// plus both zeros and both infinities, at workers 1, 2 and 8. Every
// ORDER BY must produce the one order of bat.CompareFloat — ±0 tie, NaN
// ties with NaN and sorts after +Inf — with ties in row order.
func TestOrderByFloatOrder(t *testing.T) {
	n := 6*bat.SerialCutoff + 13
	x := make([]float64, n)
	ids := make([]int64, n)
	specials := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}
	for i := range x {
		ids[i] = int64(i)
		switch {
		case i%5 == 0:
			x[i] = math.NaN()
		case i%7 == 0:
			x[i] = specials[i%len(specials)]
		default:
			x[i] = float64(i%11) / 4
		}
	}
	db := NewDB()
	db.Register("f", rel.MustNew("f", rel.Schema{{Name: "x", Type: bat.Float}, {Name: "id", Type: bat.Int}},
		[]*bat.BAT{bat.FromFloats(x), bat.FromInts(ids)}))
	// xLess is the order under test, spelled out: numbers by < (so ±0
	// tie), NaN after every number.
	xLess := func(a, b float64) bool { return a < b || (a == a && b != b) }
	for _, tc := range []struct {
		order string
		desc  bool
	}{{"x", false}, {"x, id", false}, {"x DESC", true}, {"x DESC, id", true}} {
		want := make([]int64, n)
		copy(want, ids)
		sort.SliceStable(want, func(a, b int) bool {
			xa, xb := x[want[a]], x[want[b]]
			if tc.desc {
				xa, xb = xb, xa
			}
			return xLess(xa, xb)
		})
		for _, w := range []int{1, 2, 8} {
			out, err := db.QueryWith("SELECT id FROM f ORDER BY "+tc.order+";", &core.Options{Parallelism: w})
			if err != nil {
				t.Fatal(err)
			}
			got := out.Cols[0].Vector().Ints()
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("ORDER BY %s workers=%d: row %d has id %d, want %d", tc.order, w, k, got[k], want[k])
				}
			}
		}
	}
}

// TestStreamingPeakMemoryWin is the headline acceptance check: a
// filter → join → group-by statement streamed morsel-at-a-time must peak
// at no more than half the column bytes of its fact table — it never
// holds a full intermediate — and match the reference bitwise.
func TestStreamingPeakMemoryWin(t *testing.T) {
	const n = 1 << 16
	const budget = 256 << 20
	q := "SELECT grp AS g, SUM(val) AS sv, COUNT(*) AS cnt FROM t JOIN s ON t.grp = s.k WHERE t.val > 0 GROUP BY grp ORDER BY g;"

	db := streamDB(t, n)
	gov := exec.NewGovernor(1<<30, 8)
	db.SetRMAOptions(&core.Options{Governor: gov, Tenant: "streamside", MemoryBudget: budget})
	streamed, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refQuery(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := equalBits(want, streamed); err != nil {
		t.Fatalf("streamed result differs under arenas: %v", err)
	}

	// t holds four 8-byte columns and one string column of headers.
	factBytes := int64(n) * (4*8 + int64(unsafe.Sizeof("")))
	peak := gov.Tenant("streamside", budget).PeakBytes()
	if peak <= 0 || 2*peak > factBytes {
		t.Fatalf("streaming peak %d bytes, want in (0, %d] (half the fact table's %d column bytes)", peak, factBytes/2, factBytes)
	}
	t.Logf("peak arena bytes: streaming=%d, fact table columns=%d", peak, factBytes)
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

// TestStreamedJoinBatchesCapped pulls a join plan's batches straight
// from its stream: however far one probe morsel fans out — the equi
// join's keys repeat about four times on the build side, the cross join
// triples every row — no batch exceeds bat.MorselSize rows, and the
// batches concatenate to the reference executor's result, bitwise, at
// every worker budget.
func TestStreamedJoinBatchesCapped(t *testing.T) {
	db := streamDB(t, 2*bat.MorselSize+100)
	for _, q := range []string{
		"SELECT t.id, t.grp, t.val, t.w, t.tag, s.k, s.bonus, s.label FROM t JOIN s ON t.grp = s.k;",
		"SELECT t.id, t.grp, t.val, t.w, t.tag, u.uid, u.utag FROM t CROSS JOIN u;",
	} {
		want, err := refQuery(db, q)
		if err != nil {
			t.Fatalf("%s: reference: %v", q, err)
		}
		stmts, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		sel := stmts[0].(*SelectStmt)
		for _, workers := range []int{1, 2, 8} {
			c := exec.NewCtx(workers, nil, nil)
			plan, err := db.planStream(c, nil, sel)
			if err != nil {
				t.Fatalf("%s: plan: %v", q, err)
			}
			st, err := db.openStream(c, plan.root, exec.NewPipelineStats())
			if err != nil {
				t.Fatalf("%s: open: %v", q, err)
			}
			cols := make([]colBuf, len(plan.root.outTypes))
			for k := range cols {
				cols[k].typ = plan.root.outTypes[k]
			}
			rows, widest := 0, 0
			for {
				mb, err := st.next(c)
				if err != nil {
					st.close(c)
					t.Fatalf("%s workers=%d: %v", q, workers, err)
				}
				if mb == nil {
					break
				}
				if mb.Len() > bat.MorselSize {
					st.close(c)
					t.Fatalf("%s workers=%d: batch of %d rows, want at most %d", q, workers, mb.Len(), bat.MorselSize)
				}
				widest = max(widest, mb.Len())
				for k := range cols {
					cols[k].add(c, mb.Col(k), false, false)
				}
				rows += mb.Len()
				mb.Release(c)
			}
			st.close(c)
			if widest != bat.MorselSize {
				t.Fatalf("%s workers=%d: widest batch %d rows: the fan-out never reached the cap", q, workers, widest)
			}
			out := make([]*bat.BAT, len(cols))
			for k := range cols {
				v, _ := cols[k].vector(c, rows)
				out[k] = bat.FromVector(v)
			}
			got, err := rel.New("", want.Schema, out)
			if err != nil {
				t.Fatal(err)
			}
			if err := equalBits(want, got); err != nil {
				t.Fatalf("%s workers=%d: %v", q, workers, err)
			}
		}
	}
}
