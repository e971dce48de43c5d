package sql

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/rel"
	"repro/internal/store"
)

// Morsel-aligned storage: zone-map pruning skips whole segments, which
// only preserves morsel boundaries (and with them bitwise determinism)
// because segment rows are an exact multiple of the morsel size.
func TestSegmentMorselAlignment(t *testing.T) {
	if store.BlockRows != bat.MorselSize {
		t.Fatalf("store.BlockRows %d != bat.MorselSize %d", store.BlockRows, bat.MorselSize)
	}
	if store.SegRows%bat.MorselSize != 0 {
		t.Fatalf("store.SegRows %d not a multiple of bat.MorselSize %d", store.SegRows, bat.MorselSize)
	}
}

// persistSrc builds a wide source relation spanning several segments:
// ascending int keys (friendly to zone maps), floats with negative
// zero and odd bit patterns, strings with repeats.
func persistSrc(n int) *rel.Relation {
	ks := make([]int64, n)
	vs := make([]float64, n)
	ss := make([]string, n)
	for i := range ks {
		ks[i] = int64(i)
		vs[i] = float64(i%977)*1.25 - 610
		if i%4096 == 7 {
			vs[i] = math.Copysign(0, -1) // -0 must survive the round trip
		}
		ss[i] = []string{"red", "green", "blue", "cyan"}[i%4]
	}
	r, err := rel.New("src", rel.Schema{
		{Name: "k", Type: bat.Int},
		{Name: "v", Type: bat.Float},
		{Name: "s", Type: bat.String},
	}, []*bat.BAT{bat.FromInts(ks), bat.FromFloats(vs), bat.FromStrings(ss)})
	if err != nil {
		panic(err)
	}
	return r
}

func TestPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	n := 3*store.SegRows + 123 // four segments, last one partial

	db1 := NewDB()
	defer db1.Close()
	if err := db1.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	db1.Register("src", persistSrc(n))
	mustExec := func(db *DB, q string) {
		t.Helper()
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	mustExec(db1, "CREATE TABLE t (k BIGINT, v DOUBLE, s VARCHAR) PERSIST")
	mustExec(db1, "INSERT INTO t SELECT k, v, s FROM src")
	if !db1.persisted["t"] {
		t.Fatal("t not marked persisted")
	}
	if _, err := os.Stat(filepath.Join(dir, "t.seg")); err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}

	// A fresh database — the restart — restores the table bitwise.
	db2 := NewDB()
	defer db2.Close()
	if err := db2.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := db2.LoadPersisted()
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 || loaded[0] != "t" {
		t.Fatalf("loaded %v, want [t]", loaded)
	}
	t1, err := db1.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := db2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := equalBits(t1, t2); err != nil {
		t.Fatalf("restored table differs: %v", err)
	}

	// Queries over the restored table match the original, including a
	// predicate shape the zone maps prune on.
	for _, q := range []string{
		"SELECT k, v, s FROM t WHERE k >= " + strconv.Itoa(n-100) + " ORDER BY k",
		"SELECT COUNT(*) AS n, SUM(v) AS sv FROM t WHERE k BETWEEN 70000 AND 70100",
		"SELECT s AS c, COUNT(*) AS n FROM t WHERE v > 100 GROUP BY s ORDER BY c",
		"SELECT k FROM t WHERE s = 'red' AND k < 50 ORDER BY k",
	} {
		a, err := db1.Query(q)
		if err != nil {
			t.Fatalf("db1 %s: %v", q, err)
		}
		b, err := db2.Query(q)
		if err != nil {
			t.Fatalf("db2 %s: %v", q, err)
		}
		if err := equalBits(a, b); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}

	// Appending to the restored table re-checkpoints; a third database
	// sees the merged rows.
	mustExec(db2, "INSERT INTO t VALUES (9999999, 0.5, 'tail')")
	db3 := NewDB()
	defer db3.Close()
	if err := db3.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := db3.LoadPersisted(); err != nil {
		t.Fatal(err)
	}
	t3, _ := db3.Table("t")
	if t3.NumRows() != n+1 {
		t.Fatalf("after append: %d rows, want %d", t3.NumRows(), n+1)
	}

	// DROP removes the checkpoint file.
	mustExec(db3, "DROP TABLE t")
	if _, err := os.Stat(filepath.Join(dir, "t.seg")); !os.IsNotExist(err) {
		t.Fatalf("checkpoint file survives DROP: %v", err)
	}
}

// TestPersistConcurrentInsert runs 8 writers of 16 INSERTs each against
// one PERSIST table. Every row must survive in memory, and a restart
// must restore the final table bit for bit: concurrent writers must
// neither lose each other's rows nor clobber a shared checkpoint file.
func TestPersistConcurrentInsert(t *testing.T) {
	const writers, inserts, rowsPer = 8, 16, 4
	dir := t.TempDir()
	db1 := NewDB()
	defer db1.Close()
	if err := db1.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := db1.Exec("CREATE TABLE t (w BIGINT, i BIGINT, v DOUBLE) PERSIST"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers*inserts)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < inserts; i++ {
				vals := make([]string, rowsPer)
				for r := range vals {
					vals[r] = fmt.Sprintf("(%d, %d, %d.25)", w, i*rowsPer+r, w-r)
				}
				if _, err := db1.Exec("INSERT INTO t VALUES " + strings.Join(vals, ", ")); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	cnt, err := db1.Query("SELECT COUNT(*) AS n FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got := cnt.Cols[0].Vector().Ints()[0]; got != writers*inserts*rowsPer {
		t.Fatalf("COUNT(*) = %d, want %d", got, writers*inserts*rowsPer)
	}

	db2 := NewDB()
	defer db2.Close()
	if err := db2.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := db2.LoadPersisted(); err != nil {
		t.Fatal(err)
	}
	t1, err := db1.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := db2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := equalBits(t1, t2); err != nil {
		t.Fatalf("restored table differs: %v", err)
	}
}

func TestPersistRequiresDataDir(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE t (k BIGINT) PERSIST"); err == nil {
		t.Fatal("PERSIST without a data directory should fail")
	}
	// The failed create must not leave the table behind.
	if _, err := db.Table("t"); err == nil {
		t.Fatal("table registered despite failed PERSIST create")
	}
}

// TestZoneMapSegmentPruning checks the skip flags directly: ascending
// keys give each segment a disjoint key range, so a tight key bound
// must prune every other segment, and the pruned scan still returns
// exactly the right rows.
func TestZoneMapSegmentPruning(t *testing.T) {
	dir := t.TempDir()
	n := 3 * store.SegRows
	db := NewDB()
	defer db.Close()
	if err := db.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	db.Register("src", persistSrc(n))
	for _, q := range []string{
		"CREATE TABLE t (k BIGINT, v DOUBLE, s VARCHAR) PERSIST",
		"INSERT INTO t SELECT k, v, s FROM src",
	} {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	rd := db.storedReader("t")
	if rd == nil {
		t.Fatal("no stored reader after checkpoint")
	}
	if rd.NumSegs() != 3 {
		t.Fatalf("%d segments, want 3", rd.NumSegs())
	}
	tbl, _ := db.Table("t")
	src := newSource(tbl, "t")

	// k >= 2*SegRows lives entirely in the last segment.
	pred := &BinaryExpr{Op: ">=",
		L: &ColRef{Name: "k"},
		R: &NumberLit{IsInt: true, Int: int64(2 * store.SegRows)}}
	skip := segSkips(rd, src, []Expr{pred}, n)
	if skip == nil {
		t.Fatal("no pruning for a tight key bound")
	}
	want := []bool{true, true, false}
	for s, w := range want {
		if skip[s] != w {
			t.Fatalf("segment %d: skip=%v, want %v (flags %v)", s, skip[s], w, skip)
		}
	}

	// BETWEEN inside the middle segment prunes the outer two.
	between := &BetweenExpr{E: &ColRef{Name: "k"},
		Lo: &NumberLit{IsInt: true, Int: int64(store.SegRows + 10)},
		Hi: &NumberLit{IsInt: true, Int: int64(store.SegRows + 90)}}
	skip = segSkips(rd, src, []Expr{between}, n)
	if skip == nil || !skip[0] || skip[1] || !skip[2] {
		t.Fatalf("BETWEEN pruning flags %v, want [true false true]", skip)
	}

	// A flipped literal comparison ("literal <= col") prunes the same way.
	flipped := &BinaryExpr{Op: "<=",
		L: &NumberLit{IsInt: true, Int: int64(2 * store.SegRows)},
		R: &ColRef{Name: "k"}}
	skip = segSkips(rd, src, []Expr{flipped}, n)
	if skip == nil || !skip[0] || !skip[1] || skip[2] {
		t.Fatalf("flipped pruning flags %v, want [true true false]", skip)
	}

	// The pruned streaming query agrees with an unpersisted database.
	plain := NewDB()
	plain.Register("t", tbl.WithName("t"))
	q := "SELECT k, v FROM t WHERE k >= " + strconv.Itoa(2*store.SegRows) + " ORDER BY k LIMIT 20"
	a, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := plain.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := equalBits(a, b); err != nil {
		t.Fatalf("pruned scan differs: %v", err)
	}
	if a.NumRows() != 20 {
		t.Fatalf("pruned scan returned %d rows, want 20", a.NumRows())
	}
}

// TestLoadPersistedBudgetBoundary pins the CatchBudget contract on the
// restore path: LoadPersisted runs under the database's RMA options, so
// a tenant budget too small for the segment read buffers must surface
// as the typed error, never a panic unwinding the caller.
// (rmalint/budgetboundary flagged LoadPersisted before it installed the
// handler.)
func TestLoadPersistedBudgetBoundary(t *testing.T) {
	dir := t.TempDir()
	db1 := NewDB()
	defer db1.Close()
	if err := db1.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	db1.Register("src", persistSrc(512))
	if _, err := db1.Exec("CREATE TABLE t (k BIGINT, v DOUBLE, s VARCHAR) PERSIST"); err != nil {
		t.Fatal(err)
	}
	if _, err := db1.Exec("INSERT INTO t SELECT k, v, s FROM src"); err != nil {
		t.Fatal(err)
	}

	db2 := NewDB()
	defer db2.Close()
	if err := db2.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	db2.SetRMAOptions(&core.Options{Tenant: "load-budget", MemoryBudget: 1, Governor: exec.NewGovernor(0, 0)})
	if _, err := db2.LoadPersisted(); !errors.Is(err, exec.ErrMemoryBudget) {
		t.Fatalf("LoadPersisted under a 1-byte budget: err = %v, want ErrMemoryBudget", err)
	}

	// An ungoverned restore of the same directory succeeds.
	db3 := NewDB()
	defer db3.Close()
	if err := db3.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := db3.LoadPersisted()
	if err != nil || len(loaded) != 1 || loaded[0] != "t" {
		t.Fatalf("ungoverned restore: loaded %v, err %v", loaded, err)
	}
}
