package rel

import (
	"testing"

	"repro/internal/bat"
	"repro/internal/exec"
)

// sparseKeyRel builds a single-column relation whose column is
// zero-suppressed, so every keyCols built over it densifies from the
// per-query arena.
func sparseKeyRel(name, attr string, n, stride int, seed float64) *Relation {
	f := make([]float64, n)
	for i := 0; i < n; i += stride {
		f[i] = float64(i) + seed
	}
	return MustNew(name, Schema{{Name: attr, Type: bat.Float}},
		[]*bat.BAT{bat.FromSparse(bat.Compress(f))})
}

// tenantCtx returns a context drawing from a fresh accounted arena, so
// the test can observe the arena's free counters and live bytes.
func tenantCtx(name string) (*exec.Ctx, *exec.Tenant) {
	tn := exec.NewGovernor(0, 0).Tenant(name, 0)
	return exec.NewCtx(2, tn.NewArena(), nil), tn
}

// TestHashJoinReleasesSparseKeyBuffers is the regression test for the
// sparse-key arena leak: keyColsOf densifies sparse key columns from
// the per-query arena, and HashJoin used to drop those buffers on the
// floor. Both sides' densified views must be freed — and with a single
// sparse column on each side the join retains no arena floats but its
// dense result column, so once that is released the tenant must drain
// to zero live bytes.
func TestHashJoinReleasesSparseKeyBuffers(t *testing.T) {
	const n = 256
	r := sparseKeyRel("r", "k", n, 4, 1)
	s := sparseKeyRel("s", "k2", n, 4, 1)
	c, tn := tenantCtx("join-keys")

	res, err := HashJoin(c, r, s, []string{"k"}, []string{"k2"}, Inner)
	if err != nil {
		t.Fatal(err)
	}
	if got := tn.Stats().Floats.Frees; got < 2 {
		t.Fatalf("float frees after HashJoin = %d, want >= 2 (both densified key views)", got)
	}
	for _, col := range res.Cols {
		bat.Release(c, col)
	}
	if got := tn.LiveBytes(); got != 0 {
		t.Fatalf("live bytes after HashJoin and releasing its result = %d, want 0 (no arena buffer may leak)", got)
	}

	// The freed buffers must actually be reusable: repeated joins serve
	// their densify allocations from the pool. sync.Pool drops a
	// fraction of Puts under the race detector, so the hit is asserted
	// with a bounded retry.
	for i := 0; i < 20 && tn.Stats().Floats.PoolHits == 0; i++ {
		if _, err := HashJoin(c, r, s, []string{"k"}, []string{"k2"}, Inner); err != nil {
			t.Fatal(err)
		}
	}
	if tn.Stats().Floats.PoolHits == 0 {
		t.Fatal("densified key buffers were never served from the pool")
	}
}

// TestGroupByReleasesSparseKeyBuffers checks the same contract on the
// aggregation path.
func TestGroupByReleasesSparseKeyBuffers(t *testing.T) {
	const n = 256
	f := make([]float64, n)
	for i := 0; i < n; i += 4 {
		f[i] = float64(i % 32)
	}
	r := MustNew("g", Schema{
		{Name: "k", Type: bat.Float},
		{Name: "v", Type: bat.Float},
	}, []*bat.BAT{
		bat.FromSparse(bat.Compress(f)),
		bat.FromFloats(seqF(n)),
	})
	c, tn := tenantCtx("group-keys")

	aggs := []AggSpec{{Func: Sum, Attr: "v", As: "s"}}
	if _, err := GroupBy(c, r, []string{"k"}, aggs); err != nil {
		t.Fatal(err)
	}
	if got := tn.Stats().Floats.Frees; got < 1 {
		t.Fatalf("float frees after GroupBy = %d, want >= 1 (the densified key view)", got)
	}
}

// TestGroupByReleasesSparseAggregateBuffers is the regression test for
// the aggregate-view leak: FloatsCtx densifies a sparse (or converts an
// int) aggregate column from the per-query arena, and GroupBy used to
// drop those buffers on the floor. With a sparse key AND a sparse
// aggregate column, the aggregation retains no arena buffer but its
// result's columns, so once those are handed back the tenant must drain
// to zero live bytes — in memory and on the spilled path, which used to
// keep the densified key view.
func TestGroupByReleasesSparseAggregateBuffers(t *testing.T) {
	const n = 256
	k := make([]float64, n)
	v := make([]float64, n)
	for i := 0; i < n; i += 4 {
		k[i] = float64(i % 32)
		v[i] = float64(i)
	}
	r := MustNew("ga", Schema{
		{Name: "k", Type: bat.Float},
		{Name: "v", Type: bat.Float},
	}, []*bat.BAT{
		bat.FromSparse(bat.Compress(k)),
		bat.FromSparse(bat.Compress(v)),
	})
	aggs := []AggSpec{{Func: Sum, Attr: "v", As: "s"}}
	for _, spill := range []bool{false, true} {
		c, tn := tenantCtx("group-aggs")
		var sp *exec.Spill
		if spill {
			sp = exec.NewSpill(t.TempDir(), 1)
			c = c.WithSpill(sp)
		}
		res, err := GroupBy(c, r, []string{"k"}, aggs)
		if err != nil {
			t.Fatal(err)
		}
		if spill && sp.Stats().SpilledBytes == 0 {
			t.Fatal("GroupBy did not spill")
		}
		sp.Cleanup()
		if got := tn.Stats().Floats.Frees; got < 2 {
			t.Fatalf("spill=%v: float frees after GroupBy = %d, want >= 2 (densified key and aggregate views)", spill, got)
		}
		for _, col := range res.Cols {
			bat.Release(c, col)
		}
		if got := tn.LiveBytes(); got != 0 {
			t.Fatalf("spill=%v: live bytes after GroupBy = %d, want 0 (no arena buffer may leak)", spill, got)
		}
	}
}

// TestJoinReleasesSparseGatheredColumns covers gatherWithNulls: a left
// join with unmatched rows densifies every sparse non-key column of the
// right side; those views must go back to the arena (the gathered
// output columns themselves are the result and leave the governed scope
// with it).
func TestJoinReleasesSparseGatheredColumns(t *testing.T) {
	const n = 256
	k := seqF(n)
	v := make([]float64, n)
	for i := 0; i < n; i += 4 {
		v[i] = float64(i) + 1
	}
	r := MustNew("jl", Schema{{Name: "k", Type: bat.Float}},
		[]*bat.BAT{bat.FromFloats(k)})
	s := MustNew("jr", Schema{
		{Name: "k2", Type: bat.Float},
		{Name: "v", Type: bat.Float},
	}, []*bat.BAT{
		bat.FromFloats(seqF(n / 2)), // half the keys match; the rest pad with nulls
		bat.FromSparse(bat.Compress(v[:n/2])),
	})
	c, tn := tenantCtx("join-gather")

	res, err := HashJoin(c, r, s, []string{"k"}, []string{"k2"}, Left)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != n {
		t.Fatalf("left join rows = %d, want %d", res.NumRows(), n)
	}
	st := tn.Stats().Floats
	// One densify for the gathered sparse column; the output buffer it
	// scatters into stays live as the result. Everything else (the li/ri
	// int buffers) is int-domain.
	if st.Frees < 1 {
		t.Fatalf("float frees after left join = %d, want >= 1 (the densified gathered view)", st.Frees)
	}
}

func seqF(n int) []float64 {
	f := make([]float64, n)
	for i := range f {
		f[i] = float64(i)
	}
	return f
}

// TestDistinctReleasesSparseKeyBuffers checks the contract on the
// deduplication path, a zero-aggregate GroupBy where every column is a
// key column: the densified view is freed, and once the result's key
// column is handed back the tenant holds nothing.
func TestDistinctReleasesSparseKeyBuffers(t *testing.T) {
	const n = 256
	r := sparseKeyRel("d", "k", n, 4, 1)
	c, tn := tenantCtx("distinct-keys")

	res, err := GroupBy(c, r, r.Schema.Names(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := tn.Stats().Floats.Frees; got < 1 {
		t.Fatalf("float frees after Distinct = %d, want >= 1 (the densified view)", got)
	}
	// Every fourth row is non-zero and distinct; the rest share 0.
	if got, want := res.NumRows(), n/4+1; got != want {
		t.Fatalf("distinct rows = %d, want %d", got, want)
	}
	for _, col := range res.Cols {
		bat.Release(c, col)
	}
	if got := tn.LiveBytes(); got != 0 {
		t.Fatalf("live bytes after Distinct and releasing its result = %d, want 0", got)
	}
}
