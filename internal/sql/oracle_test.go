package sql

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/rel"
)

// This file is the differential SQL fuzz oracle: a seeded random SELECT
// generator executed three ways — by the engine with the plan cache off,
// by the reference executor (reference_test.go), and through the plan
// cache (twice, so the second run exercises a cache hit on a shared
// plan) — at worker budgets {1, 2, 8}, asserting bitwise-identical
// relations and identical error strings across every leg. The engine
// DBs are registered over the *same* column storage, so any divergence
// is the engine's, never the data's.
//
// Iterations and seed come from the environment so CI can pin a smoke
// configuration while longer local runs go deeper:
//
//	RMA_ORACLE_ITERS (default 60)
//	RMA_ORACLE_SEED  (default 1)
//	RMA_ORACLE_SPILL (set to 1 to add a spill leg: the engine staging
//	                  every eligible operator to disk through a one-byte
//	                  threshold)

func oracleEnvInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// oracleCatalog is one generated dataset registered into the executor
// databases. The spilling executor is nil unless RMA_ORACLE_SPILL is
// set.
type oracleCatalog struct {
	stream, cached, spill *DB
}

// newOracleCatalog generates a fact table f(id, g, v, w, s), a dimension
// d(k, b, l) and a tiny z(zid, zs), with sizes and contents drawn from
// rng. Sizes hover small for iteration speed but periodically land on
// the morsel boundary, where streamed batching bugs live.
func newOracleCatalog(t *testing.T, rng *rand.Rand, round int) *oracleCatalog {
	t.Helper()
	sizes := []int{0, 1, 3, 17, 100, 333}
	if round%5 == 4 {
		sizes = []int{bat.MorselSize - 1, bat.MorselSize, bat.MorselSize + 1}
	}
	n := sizes[rng.Intn(len(sizes))]
	card := 1 + rng.Intn(13) // group-key cardinality
	strs := []string{"a", "ab", "b", "c", ""}

	ids := make([]int64, n)
	gs := make([]int64, n)
	vs := make([]float64, n)
	ws := make([]float64, n)
	ss := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		gs[i] = int64(rng.Intn(card))
		vs[i] = float64(rng.Intn(400)-200) * 0.25
		ws[i] = float64(rng.Intn(1000)) * 0.0625
		ss[i] = strs[rng.Intn(len(strs))]
	}
	fact, err := rel.New("f", rel.Schema{
		{Name: "id", Type: bat.Int},
		{Name: "g", Type: bat.Int},
		{Name: "v", Type: bat.Float},
		{Name: "w", Type: bat.Float},
		{Name: "s", Type: bat.String},
	}, []*bat.BAT{bat.FromInts(ids), bat.FromInts(gs), bat.FromFloats(vs), bat.FromFloats(ws), bat.FromStrings(ss)})
	if err != nil {
		t.Fatal(err)
	}

	dn := rng.Intn(60) // may be zero: joins against empty build sides
	ks := make([]int64, dn)
	bs := make([]float64, dn)
	ls := make([]string, dn)
	for j := 0; j < dn; j++ {
		ks[j] = int64(rng.Intn(card + 3)) // some keys unmatched
		bs[j] = float64(rng.Intn(40)) * 0.5
		ls[j] = fmt.Sprintf("L%d", rng.Intn(5))
	}
	dim, err := rel.New("d", rel.Schema{
		{Name: "k", Type: bat.Int},
		{Name: "b", Type: bat.Float},
		{Name: "l", Type: bat.String},
	}, []*bat.BAT{bat.FromInts(ks), bat.FromFloats(bs), bat.FromStrings(ls)})
	if err != nil {
		t.Fatal(err)
	}

	tiny, err := rel.New("z", rel.Schema{
		{Name: "zid", Type: bat.Int},
		{Name: "zs", Type: bat.String},
	}, []*bat.BAT{bat.FromInts([]int64{1, 2, 3}), bat.FromStrings([]string{"x", "y", "x"})})
	if err != nil {
		t.Fatal(err)
	}

	oc := &oracleCatalog{stream: NewDB(), cached: NewDB()}
	oc.stream.SetPlanCache(false)
	dbs := []*DB{oc.stream, oc.cached}
	if os.Getenv("RMA_ORACLE_SPILL") == "1" {
		// Spill leg: a one-byte threshold sends every estimate-gated
		// operator to its disk path.
		oc.spill = NewDB()
		oc.spill.SetPlanCache(false)
		oc.spill.SetSpill(t.TempDir(), 1)
		dbs = append(dbs, oc.spill)
	}
	for name, r := range map[string]*rel.Relation{"f": fact, "d": dim, "z": tiny} {
		for _, db := range dbs {
			db.Register(name, r)
		}
	}
	return oc
}

// genPredicate draws one WHERE/ON-residual conjunct. qual qualifies the
// fact columns when the query joins.
func genPredicate(rng *rand.Rand, qual string) string {
	c := func(col string) string {
		if qual == "" {
			return col
		}
		return qual + "." + col
	}
	switch rng.Intn(8) {
	case 0:
		return fmt.Sprintf("%s > %g", c("v"), float64(rng.Intn(200)-100)*0.5)
	case 1:
		return fmt.Sprintf("%s <= %g", c("w"), float64(rng.Intn(60)))
	case 2:
		return fmt.Sprintf("%s = %d", c("g"), rng.Intn(13))
	case 3:
		pat := []string{"'a%'", "'%b'", "'%a%'", "'a_'"}[rng.Intn(4)]
		return fmt.Sprintf("%s LIKE %s", c("s"), pat)
	case 4:
		return fmt.Sprintf("%s %% %d = %d", c("id"), 2+rng.Intn(5), rng.Intn(2))
	case 5:
		lo := rng.Intn(8)
		return fmt.Sprintf("%s BETWEEN %d AND %d", c("g"), lo, lo+rng.Intn(6))
	case 6:
		return fmt.Sprintf("%s IN ('a', 'c')", c("s"))
	default:
		return fmt.Sprintf("NOT %s < %g", c("v"), float64(rng.Intn(100)-50))
	}
}

// genQuery draws one SELECT. Roughly 8% of queries are deliberately
// invalid (unknown columns, string aggregation, HAVING without
// aggregates) so error-string parity is fuzzed too.
func genQuery(rng *rand.Rand) string {
	if rng.Intn(12) == 0 {
		return []string{
			"SELECT nosuch FROM f;",
			"SELECT SUM(s) AS x FROM f;",
			"SELECT id FROM f HAVING id > 1;",
			"SELECT f.id, d.b FROM f LEFT JOIN d ON f.v > d.b;",
			"SELECT v FROM f ORDER BY nosuch;",
		}[rng.Intn(5)]
	}

	var from, qual string
	joined := false
	switch r := rng.Intn(12); {
	case r < 6:
		from, qual = "f", ""
	case r < 9:
		kind := "JOIN"
		if rng.Intn(3) == 0 {
			kind = "LEFT JOIN"
		}
		from, qual, joined = fmt.Sprintf("f %s d ON f.g = d.k", kind), "f", true
	case r == 9:
		from, qual, joined = "f CROSS JOIN z", "f", true
	case r == 10:
		// No equi key: the nested-loop fallback, a cross product under
		// the whole ON.
		from, qual, joined = "f JOIN d ON f.v > d.b", "f", true
	default:
		// An equi key plus a residual conjunct.
		from, qual, joined = "f JOIN d ON f.g = d.k AND f.v > d.b", "f", true
	}

	var where string
	if np := rng.Intn(3); np > 0 {
		preds := make([]string, np)
		for i := range preds {
			preds[i] = genPredicate(rng, qual)
		}
		where = " WHERE " + strings.Join(preds, " AND ")
	}

	c := func(col string) string {
		if qual == "" {
			return col
		}
		return qual + "." + col
	}

	if rng.Intn(3) == 0 { // aggregate mode
		key := c("g")
		if strings.Contains(from, "JOIN d") && rng.Intn(2) == 0 {
			key = "d.l"
		}
		aggPool := []string{
			"COUNT(*) AS cnt",
			fmt.Sprintf("SUM(%s) AS sv", c("v")),
			fmt.Sprintf("AVG(%s) AS aw", c("w")),
			fmt.Sprintf("MIN(%s) AS mv", c("v")),
			fmt.Sprintf("MAX(%s) AS xw", c("w")),
		}
		na := 1 + rng.Intn(3)
		items := []string{key + " AS gk"}
		for i := 0; i < na; i++ {
			items = append(items, aggPool[(rng.Intn(len(aggPool))+i)%len(aggPool)])
		}
		q := fmt.Sprintf("SELECT %s FROM %s%s GROUP BY %s", strings.Join(items, ", "), from, where, key)
		if rng.Intn(3) == 0 {
			q += fmt.Sprintf(" HAVING COUNT(*) > %d", rng.Intn(4))
		}
		q += " ORDER BY gk"
		if rng.Intn(3) == 0 {
			q += fmt.Sprintf(" LIMIT %d", rng.Intn(20))
		}
		return q + ";"
	}

	// Plain projection mode.
	itemPool := []string{
		c("id") + " AS a1",
		c("v") + " AS a2",
		fmt.Sprintf("%s * 2 + %s AS a3", c("v"), c("w")),
		fmt.Sprintf("ABS(%s) AS a4", c("v")),
		c("s") + " AS a5",
		fmt.Sprintf("%s + %s AS a6", c("id"), c("g")),
	}
	if joined && strings.Contains(from, "JOIN d") {
		itemPool = append(itemPool, "d.b AS a7", "d.l AS a8")
	}
	if strings.Contains(from, "CROSS JOIN z") {
		itemPool = append(itemPool, "z.zs AS a9")
	}
	ni := 1 + rng.Intn(3)
	start := rng.Intn(len(itemPool))
	var items, orderables []string
	for i := 0; i < ni; i++ {
		it := itemPool[(start+i)%len(itemPool)]
		items = append(items, it)
		orderables = append(orderables, it[strings.LastIndex(it, " ")+1:])
	}
	orderables = append(orderables, c("w"), c("id")) // unselected input columns
	distinct := ""
	if rng.Intn(5) == 0 {
		distinct = "DISTINCT "
	}
	q := fmt.Sprintf("SELECT %s%s FROM %s%s", distinct, strings.Join(items, ", "), from, where)
	if rng.Intn(2) == 0 {
		// No tiebreak needed: every executor is deterministic, so equal
		// sort keys keep their input order identically on every leg.
		q += " ORDER BY " + orderables[rng.Intn(len(orderables))]
		if rng.Intn(2) == 0 {
			q += " DESC"
		}
	}
	if rng.Intn(3) == 0 {
		q += fmt.Sprintf(" LIMIT %d", rng.Intn(30))
	}
	return q + ";"
}

// TestDifferentialOracle is the oracle loop. Every generated query runs
// four legs per worker budget — streamed, reference, cached (cold),
// cached (hit), plus a spill leg under RMA_ORACLE_SPILL — with the
// streamed leg at workers 1 doubling as the cross-worker reference. Any
// divergence in bits or error text fails with the seed, round, and
// statement needed to replay it.
func TestDifferentialOracle(t *testing.T) {
	iters := oracleEnvInt("RMA_ORACLE_ITERS", 60)
	seed := int64(oracleEnvInt("RMA_ORACLE_SEED", 1))
	rng := rand.New(rand.NewSource(seed))

	var oc *oracleCatalog
	workers := []int{1, 2, 8}
	for round := 0; round < iters; round++ {
		if round%25 == 0 || oc == nil {
			oc = newOracleCatalog(t, rng, round/25)
		}
		q := genQuery(rng)
		fail := func(format string, args ...any) {
			t.Fatalf("seed=%d round=%d\nquery: %s\n%s", seed, round, q, fmt.Sprintf(format, args...))
		}

		var ref *rel.Relation
		var refErr error
		// The reference executor is serial: one evaluation serves every
		// worker budget.
		rfRes, rfErr := refQuery(oc.stream, q)
		for _, w := range workers {
			opts := &core.Options{Parallelism: w}
			smRes, smErr := oc.stream.ExecWith(q, opts)
			c1Res, c1Err := oc.cached.ExecWith(q, opts)
			c2Res, c2Err := oc.cached.ExecWith(q, opts)

			type oracleLeg struct {
				name string
				res  *rel.Relation
				err  error
			}
			legs := []oracleLeg{
				{"streamed", smRes, smErr},
				{"reference", rfRes, rfErr},
				{"cached-cold", c1Res, c1Err},
				{"cached-hit", c2Res, c2Err},
			}
			if oc.spill != nil {
				spRes, spErr := oc.spill.ExecWith(q, opts)
				legs = append(legs, oracleLeg{"spilled-streamed", spRes, spErr})
			}
			if w == workers[0] {
				ref, refErr = smRes, smErr
			}
			for _, leg := range legs {
				if (refErr == nil) != (leg.err == nil) {
					fail("workers=%d %s: error divergence: ref=%v leg=%v", w, leg.name, refErr, leg.err)
				}
				if refErr != nil {
					if refErr.Error() != leg.err.Error() {
						fail("workers=%d %s: error strings differ:\n  ref: %s\n  leg: %s", w, leg.name, refErr, leg.err)
					}
					continue
				}
				if err := equalBits(ref, leg.res); err != nil {
					fail("workers=%d %s: %v", w, leg.name, err)
				}
			}
		}
	}

	// The cached executor must actually have been exercising its cache:
	// the repeated leg guarantees at least one hit per valid query.
	if m := oc.cached.Metrics().PlanCache; m.Hits == 0 {
		t.Fatal("oracle ran without a single plan-cache hit")
	}
}

// TestOracleAccounting holds every operator class the generator reaches
// — scans, filters, joins, GROUP BY, DISTINCT, ORDER BY, LIMIT — to the
// tenant ledger: each statement runs twice at one worker, each time on a
// fresh tenant, and on the warm second run the Go heap may allocate at
// most twice the tenant's peak plus allocSlack. A statement the engine
// rejects is skipped (its error text is the differential oracle's
// business); every other statement is checked, a plain projection over
// a join included, since the streamed projection concatenates its
// output into arena columns. The statement stream is the differential
// oracle's: the same seed draws the same catalogs and statements.
func TestOracleAccounting(t *testing.T) {
	skipUnderRace(t)
	iters := oracleEnvInt("RMA_ORACLE_ITERS", 60)
	seed := int64(oracleEnvInt("RMA_ORACLE_SEED", 1))
	rng := rand.New(rand.NewSource(seed))

	var oc *oracleCatalog
	checked := 0
	for round := 0; round < iters; round++ {
		if round%25 == 0 || oc == nil {
			oc = newOracleCatalog(t, rng, round/25)
		}
		q := genQuery(rng)
		if _, _, err := statementAlloc(oc.stream, q); err != nil {
			continue
		}
		peak, alloc, err := statementAlloc(oc.stream, q)
		if err != nil {
			t.Fatalf("seed=%d round=%d\nquery: %s\nwarm run failed: %v", seed, round, q, err)
		}
		if limit := 2*uint64(peak) + allocSlack; alloc > limit {
			t.Fatalf("seed=%d round=%d\nquery: %s\nallocated %d B, above 2 x tenant peak %d B + %d B",
				seed, round, q, alloc, peak, allocSlack)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("every generated statement failed; nothing was checked")
	}
}

// TestOracleRowPermutation is the SQL slice of the row-permutation law:
// a relation has no row order, so shuffling the rows of f and d (seeded)
// must leave every generated statement's result the same multiset of
// rows — cells compared bitwise, rows sorted canonically — and its error
// text the same, at workers 1, 2 and 8. A statement with LIMIT is
// checked only where its order is total, and then row for row: an
// aggregate (ORDER BY gk yields one row per group), or a non-DISTINCT
// projection over f alone whose ORDER BY gets ", id" appended (f.id is
// unique). Other LIMIT statements are skipped: which tied rows a limit
// keeps depends on the input order.
// The comparison can be bitwise because the generator's values are
// dyadic (multiples of 0.25, 0.0625 and 0.5) and small, so every SUM
// and AVG is exact and the order a fold visits the rows in cannot
// change a bit. The statement stream is the differential oracle's: the
// same seed draws the same catalogs and statements.
func TestOracleRowPermutation(t *testing.T) {
	iters := oracleEnvInt("RMA_ORACLE_ITERS", 60)
	seed := int64(oracleEnvInt("RMA_ORACLE_SEED", 1))
	rng := rand.New(rand.NewSource(seed))

	var oc *oracleCatalog
	var shuffled *DB
	checked, limited := 0, 0
	for round := 0; round < iters; round++ {
		if round%25 == 0 || oc == nil {
			oc = newOracleCatalog(t, rng, round/25)
			perm := rand.New(rand.NewSource(seed*7919 + int64(round)))
			shuffled = NewDB()
			for _, name := range []string{"f", "d", "z"} {
				r, err := oc.stream.Table(name)
				if err != nil {
					t.Fatal(err)
				}
				if name != "z" {
					r = r.Gather(nil, perm.Perm(r.NumRows()))
				}
				shuffled.Register(name, r)
			}
		}
		q, ordered := totalLimitOrder(genQuery(rng))
		if strings.Contains(q, " LIMIT ") && !ordered {
			continue
		}
		checked++
		if ordered {
			limited++
		}
		for _, w := range []int{1, 2, 8} {
			opts := &core.Options{Parallelism: w}
			want, wantErr := oc.stream.ExecWith(q, opts)
			got, gotErr := shuffled.ExecWith(q, opts)
			fail := func(format string, args ...any) {
				t.Fatalf("seed=%d round=%d workers=%d\nquery: %s\n%s", seed, round, w, q, fmt.Sprintf(format, args...))
			}
			if (wantErr == nil) != (gotErr == nil) {
				fail("error divergence: original=%v shuffled=%v", wantErr, gotErr)
			}
			if wantErr != nil {
				if wantErr.Error() != gotErr.Error() {
					fail("error strings differ:\n  original: %s\n  shuffled: %s", wantErr, gotErr)
				}
				continue
			}
			same := equalRowMultisets
			if ordered {
				same = equalBits
			}
			if err := same(want, got); err != nil {
				fail("%v", err)
			}
		}
	}
	if checked == 0 {
		t.Fatal("every generated statement had a LIMIT; nothing was checked")
	}
	t.Logf("%d statements checked, %d of them LIMIT statements in row order", checked, limited)
	if limited == 0 && iters >= 60 { // the default draws several
		t.Fatal("no LIMIT statement with a total order was checked")
	}
}

// totalLimitOrder returns q, made total where it can be, and whether q
// is a LIMIT statement whose result order is total: an aggregate
// (ORDER BY gk, one row per group) or a non-DISTINCT projection over f
// alone, whose ORDER BY gets the unique id as a last key.
func totalLimitOrder(q string) (string, bool) {
	lim := strings.Index(q, " LIMIT ")
	switch {
	case lim < 0:
		return q, false
	case strings.Contains(q, " GROUP BY "):
		return q, true
	case strings.Contains(q, "JOIN") || strings.Contains(q, "DISTINCT") || !strings.Contains(q, " ORDER BY "):
		return q, false
	}
	return q[:lim] + ", id" + q[lim:], true
}

// equalRowMultisets reports whether a and b have the same schema and
// the same multiset of rows, cells compared bitwise.
func equalRowMultisets(a, b *rel.Relation) error {
	if fmt.Sprint(a.Schema) != fmt.Sprint(b.Schema) {
		return fmt.Errorf("schema %v vs %v", a.Schema, b.Schema)
	}
	ra, rb := canonicalRows(a), canonicalRows(b)
	if len(ra) != len(rb) {
		return fmt.Errorf("%d rows vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			return fmt.Errorf("sorted row %d: %s vs %s", i, ra[i], rb[i])
		}
	}
	return nil
}

// canonicalRows renders every row of r as one string of its cells'
// bits (floats as their IEEE bit patterns) and returns them sorted.
func canonicalRows(r *rel.Relation) []string {
	rows := make([]strings.Builder, r.NumRows())
	for k, col := range r.Cols {
		v := col.Vector()
		switch r.Schema[k].Type {
		case bat.Float:
			for i, x := range v.Floats() {
				fmt.Fprintf(&rows[i], "%#x|", math.Float64bits(x))
			}
		case bat.Int:
			for i, x := range v.Ints() {
				fmt.Fprintf(&rows[i], "%d|", x)
			}
		default:
			for i, x := range v.Strings() {
				fmt.Fprintf(&rows[i], "%q|", x)
			}
		}
	}
	out := make([]string, len(rows))
	for i := range rows {
		out[i] = rows[i].String()
	}
	sort.Strings(out)
	return out
}
