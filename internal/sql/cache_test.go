package sql

import (
	"sync"
	"testing"

	"repro/internal/bat"
)

// TestPlanCacheHitAfterRepeat checks the cache's basic contract: the
// first execution of a cacheable SELECT is a miss that installs the
// entry, every repeat — including whitespace, comment, and keyword-case
// variants of the same statement — is a hit, and every execution
// returns bitwise-identical results.
func TestPlanCacheHitAfterRepeat(t *testing.T) {
	db := streamDB(t, 3000)
	const q = "SELECT t.id, t.val, s.bonus FROM t JOIN s ON t.grp = s.k WHERE s.bonus > 2 ORDER BY t.id LIMIT 100;"
	variants := []string{
		q,
		"select t.id, t.val, s.bonus from t join s on t.grp = s.k where s.bonus > 2 order by t.id limit 100;",
		"SELECT t.id, t.val, s.bonus  -- projection\n FROM t JOIN s ON t.grp = s.k\nWHERE s.bonus > 2 ORDER BY t.id LIMIT 100 ;",
	}
	first, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	m := db.Metrics().PlanCache
	if m.Misses != 1 || m.Hits != 0 || m.Entries != 1 {
		t.Fatalf("after first run: %+v, want 1 miss, 0 hits, 1 entry", m)
	}
	for i := 0; i < 6; i++ {
		res, err := db.Query(variants[i%len(variants)])
		if err != nil {
			t.Fatal(err)
		}
		if err := equalBits(first, res); err != nil {
			t.Fatalf("repeat %d diverged: %v", i, err)
		}
	}
	m = db.Metrics().PlanCache
	if m.Misses != 1 || m.Hits != 6 || m.Entries != 1 {
		t.Fatalf("after repeats: %+v, want 1 miss, 6 hits, 1 entry", m)
	}
}

// TestPlanCacheInvalidation checks every invalidation edge the cache
// promises: DML (INSERT), DDL (CREATE/DROP), and catalog replacement
// (Register). After each event the cache
// is empty, and — the part that matters — a re-executed statement sees
// the new catalog state instead of the cached plan's old snapshot.
func TestPlanCacheInvalidation(t *testing.T) {
	db := streamDB(t, 1000)
	const q = "SELECT COUNT(*) AS n FROM t;"
	countRows := func() int64 {
		t.Helper()
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cols[0].Vector().Ints()[0]
	}
	if got := countRows(); got != 1000 {
		t.Fatalf("initial count = %d", got)
	}
	countRows() // cache hit
	base := db.Metrics().PlanCache
	if base.Hits != 1 || base.Misses != 1 || base.Entries != 1 {
		t.Fatalf("before invalidation: %+v", base)
	}

	// INSERT invalidates, and the re-run must see the new row — a stale
	// cached plan would keep scanning the pre-INSERT relation.
	if _, err := db.Exec("INSERT INTO t VALUES (100000, 1, 0.5, 0.25, 'zz');"); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics().PlanCache
	if m.Entries != 0 || m.Invalidations <= base.Invalidations {
		t.Fatalf("after INSERT: %+v", m)
	}
	if got := countRows(); got != 1001 {
		t.Fatalf("count after INSERT = %d, want 1001 (stale cached plan?)", got)
	}

	// CREATE and DROP invalidate.
	inv := db.Metrics().PlanCache.Invalidations
	if _, err := db.Exec("CREATE TABLE scratch (a INT);"); err != nil {
		t.Fatal(err)
	}
	if m := db.Metrics().PlanCache; m.Entries != 0 || m.Invalidations != inv+1 {
		t.Fatalf("after CREATE: %+v", m)
	}
	countRows()
	if _, err := db.Exec("DROP TABLE scratch;"); err != nil {
		t.Fatal(err)
	}
	if m := db.Metrics().PlanCache; m.Entries != 0 || m.Invalidations != inv+2 {
		t.Fatalf("after DROP: %+v", m)
	}

	// Register replaces a relation wholesale.
	countRows()
	db.Register("extra", db.tables["u"])
	if m := db.Metrics().PlanCache; m.Entries != 0 || m.Invalidations != inv+3 {
		t.Fatalf("after Register: %+v", m)
	}
}

// TestPlanCacheCountersMatch replays a known statement mix and checks
// the metrics counters equal the hits and misses the mix must produce.
// Non-cacheable statements (derived tables, RMA table functions, DDL)
// count neither hits nor misses.
func TestPlanCacheCountersMatch(t *testing.T) {
	db := streamDB(t, 500)
	queries := []string{
		"SELECT id FROM t WHERE val > 0;",                // miss
		"SELECT id FROM t WHERE val > 0;",                // hit
		"SELECT grp, COUNT(*) AS n FROM t GROUP BY grp;", // miss
		"SELECT id FROM t WHERE val > 0;",                // hit
		"SELECT grp, COUNT(*) AS n FROM t GROUP BY grp;", // hit
		// Derived table in FROM: not cacheable, no counter movement.
		"SELECT z FROM (SELECT val AS z FROM t) AS d LIMIT 3;",
		"SELECT z FROM (SELECT val AS z FROM t) AS d LIMIT 3;",
	}
	for _, q := range queries {
		if _, err := db.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	m := db.Metrics().PlanCache
	if m.Misses != 2 || m.Hits != 3 || m.Entries != 2 {
		t.Fatalf("counters = %+v, want 2 misses, 3 hits, 2 entries", m)
	}
}

// TestPlanCacheBitwiseAtMorselBoundaries runs the differential shapes
// at sizes straddling the morsel size, three ways each — cache off,
// first cached execution (plans), second cached execution (reuses the
// shared plan) — and requires bitwise-identical relations.
func TestPlanCacheBitwiseAtMorselBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, bat.MorselSize - 1, bat.MorselSize, bat.MorselSize + 1} {
		for qi, q := range streamingQueries {
			cold := streamDB(t, n)
			cold.SetPlanCache(false)
			want, werr := cold.Query(q)

			warm := streamDB(t, n)
			first, ferr := warm.Query(q)
			second, serr := warm.Query(q)

			if (werr == nil) != (ferr == nil) || (werr == nil) != (serr == nil) {
				t.Fatalf("n=%d q#%d error divergence: off=%v first=%v second=%v", n, qi, werr, ferr, serr)
			}
			if werr != nil {
				if werr.Error() != ferr.Error() || werr.Error() != serr.Error() {
					t.Fatalf("n=%d q#%d error strings diverge: %q / %q / %q", n, qi, werr, ferr, serr)
				}
				continue
			}
			if err := equalBits(want, first); err != nil {
				t.Fatalf("n=%d q#%d cache-off vs first cached: %v", n, qi, err)
			}
			if err := equalBits(want, second); err != nil {
				t.Fatalf("n=%d q#%d cache-off vs cached repeat: %v", n, qi, err)
			}
		}
	}
}

// TestPlanCacheConcurrentSharedPlan executes one cached statement from
// many goroutines at once under -race: the shared plan must be safe to
// execute concurrently and every result bitwise-equal.
func TestPlanCacheConcurrentSharedPlan(t *testing.T) {
	db := streamDB(t, 3*bat.MorselSize)
	queries := []string{
		"SELECT t.id, t.val, s.bonus FROM t JOIN s ON t.grp = s.k WHERE s.bonus > 2 AND t.val > 0;",
		"SELECT s.label, SUM(t.val) AS sv, COUNT(*) AS n FROM t JOIN s ON t.grp = s.k GROUP BY s.label ORDER BY sv DESC;",
	}
	for _, q := range queries {
		base, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 16)
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := db.Query(q)
				if err != nil {
					errs <- err
					return
				}
				if err := equalBits(base, res); err != nil {
					errs <- err
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("%s: %v", q, err)
		}
	}
	m := db.Metrics().PlanCache
	if m.Hits < int64(len(queries)*16) {
		t.Fatalf("hits = %d, want >= %d", m.Hits, len(queries)*16)
	}
}
