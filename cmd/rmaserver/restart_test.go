package main

import (
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/sql"
)

func TestLatHistZeroSamples(t *testing.T) {
	h := &latHist{}
	if n := h.total(); n != 0 {
		t.Fatalf("total %d, want 0", n)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.quantile(q); got != 0 {
			t.Fatalf("quantile(%v) = %v on an empty histogram, want 0", q, got)
		}
	}
}

// TestLatHistSaturatedBucketReportsMax pins the open-ended last bucket:
// an observation past the 2^40µs bucket range must not be reported as
// the (smaller) last bucket bound. Before the fix this returned
// (2^40-1)/1e3 ms — under-reporting a 2^41µs statement by half.
func TestLatHistSaturatedBucketReportsMax(t *testing.T) {
	h := &latHist{}
	huge := time.Microsecond * (1 << 41)
	h.observe(huge)
	want := float64(int64(1)<<41) / 1e3
	if got := h.quantile(0.99); got != want {
		t.Fatalf("p99 = %vms, want the observed max %vms", got, want)
	}

	// A mixed population keeps lower quantiles on bucket bounds while
	// the tail rank still reports the true maximum.
	for i := 0; i < 98; i++ {
		h.observe(100 * time.Microsecond) // bucket 7, bound 127µs
	}
	if got := h.quantile(0.50); got != 0.127 {
		t.Fatalf("p50 = %vms, want 0.127", got)
	}
	if got := h.quantile(1); got != want {
		t.Fatalf("p100 = %vms, want the observed max %vms", got, want)
	}
}

// TestServerRestartRoundTrip checkpoints a persisted table through one
// server instance, tears it down, boots a second instance over the same
// data directory, and requires the identical wire response — the
// checkpoint/restore path end to end.
func TestServerRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	keys := map[string]TenantKey{"k": {Tenant: "t1"}}
	const probe = "SELECT id, score, who FROM kv ORDER BY id"

	db1 := sql.NewDB()
	if err := db1.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(NewServer(db1, exec.DefaultGovernor(), keys))
	for _, stmt := range []string{
		"CREATE TABLE kv (id BIGINT, score DOUBLE, who VARCHAR) PERSIST",
		"INSERT INTO kv VALUES (1, 0.125, 'ann'), (2, -0.0, 'bob'), (3, 2.5, 'cat')",
		"INSERT INTO kv VALUES (4, 1e-300, 'dee')",
	} {
		if code, qr := postQuery(t, ts1, "k", stmt); code != 200 || qr.Error != nil {
			t.Fatalf("%s: status %d (%+v)", stmt, code, qr.Error)
		}
	}
	code, before := postQuery(t, ts1, "k", probe)
	if code != 200 || before.Rows != 4 {
		t.Fatalf("pre-restart probe: status %d rows %d (%+v)", code, before.Rows, before.Error)
	}
	ts1.Close()
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := sql.NewDB()
	if err := db2.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := db2.LoadPersisted()
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 || loaded[0] != "kv" {
		t.Fatalf("restored %v, want [kv]", loaded)
	}
	ts2 := httptest.NewServer(NewServer(db2, exec.DefaultGovernor(), keys))
	defer ts2.Close()
	code, after := postQuery(t, ts2, "k", probe)
	if code != 200 {
		t.Fatalf("post-restart probe: status %d (%+v)", code, after.Error)
	}
	if !reflect.DeepEqual(before.Columns, after.Columns) {
		t.Fatalf("schema drift across restart: %v vs %v", before.Columns, after.Columns)
	}
	if !reflect.DeepEqual(before.Batches, after.Batches) {
		t.Fatalf("restored rows differ:\n  before %s\n  after  %s",
			rawBatches(before), rawBatches(after))
	}

	// The restored table stays writable and persisted.
	if code, qr := postQuery(t, ts2, "k", "INSERT INTO kv VALUES (5, 9.75, 'eve')"); code != 200 || qr.Error != nil {
		t.Fatalf("post-restart insert: status %d (%+v)", code, qr.Error)
	}
	if code, qr := postQuery(t, ts2, "k", "SELECT COUNT(*) AS n FROM kv"); code != 200 || qr.Rows != 1 {
		t.Fatalf("post-restart count: status %d (%+v)", code, qr.Error)
	}
}

func rawBatches(qr queryResponse) string {
	out := ""
	for _, b := range qr.Batches {
		for _, c := range b.Cols {
			out += string(c)
		}
	}
	return out
}
