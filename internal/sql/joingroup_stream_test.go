package sql

import (
	"testing"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/rel"
)

// joinGroupDB builds a fact table big enough that morsels span many
// SerialCutoff chunks and a dimension table above bat.SerialCutoff, so
// the join build side's hash index and the probe's parallel passes
// cover more than one chunk.
func joinGroupDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	const fn = 3*bat.SerialCutoff + 257
	ids := make([]int64, fn)
	grps := make([]int64, fn)
	vals := make([]float64, fn)
	for i := 0; i < fn; i++ {
		ids[i] = int64(i)
		grps[i] = int64((i*7919 + 5) % 311)
		vals[i] = float64(i%211)*0.375 - 39.0
	}
	fact, err := rel.New("t", rel.Schema{
		{Name: "id", Type: bat.Int},
		{Name: "grp", Type: bat.Int},
		{Name: "val", Type: bat.Float},
	}, []*bat.BAT{bat.FromInts(ids), bat.FromInts(grps), bat.FromFloats(vals)})
	if err != nil {
		t.Fatal(err)
	}
	db.Register("t", fact)

	dn := bat.SerialCutoff + 301 // above the serial build cutoff
	ks := make([]int64, dn)
	bonus := make([]float64, dn)
	for j := 0; j < dn; j++ {
		ks[j] = int64((j * 13) % 400) // some keys duplicated, some unmatched
		bonus[j] = float64(j%17) * 0.5
	}
	dim, err := rel.New("s", rel.Schema{
		{Name: "k", Type: bat.Int},
		{Name: "bonus", Type: bat.Float},
	}, []*bat.BAT{bat.FromInts(ks), bat.FromFloats(bonus)})
	if err != nil {
		t.Fatal(err)
	}
	db.Register("s", dim)
	return db
}

// TestStreamedJoinGroupBitwise runs join+group statements streamed
// serial and streamed parallel (parallel hashing and probe passes) and
// asserts every result is bitwise-identical to the reference executor's.
func TestStreamedJoinGroupBitwise(t *testing.T) {
	queries := []string{
		// Group keys = join keys.
		`SELECT t.grp AS g, SUM(t.val) AS sv, SUM(s.bonus) AS sb, COUNT(*) AS cnt
			FROM t JOIN s ON t.grp = s.k GROUP BY t.grp ORDER BY g`,
		// Group keys differ from the join keys.
		`SELECT t.id % 7 AS g, SUM(s.bonus) AS sb, COUNT(*) AS cnt
			FROM t JOIN s ON t.grp = s.k GROUP BY t.id % 7 ORDER BY g`,
		// Left join through the shared build index.
		`SELECT t.grp AS g, SUM(s.bonus) AS sb, COUNT(*) AS cnt
			FROM t LEFT JOIN s ON t.grp = s.k GROUP BY t.grp ORDER BY g`,
		// No grouping: the parallel probe feeds projection.
		`SELECT t.id, t.val, s.bonus FROM t JOIN s ON t.grp = s.k ORDER BY t.id, s.bonus LIMIT 500`,
	}
	for qi, q := range queries {
		want, err := refQuery(joinGroupDB(t), q)
		if err != nil {
			t.Fatalf("query %d reference: %v", qi, err)
		}
		for _, workers := range []int{1, 2, 8} {
			got, err := joinGroupDB(t).QueryWith(q, &core.Options{Parallelism: workers})
			if err != nil {
				t.Fatalf("query %d workers=%d: %v", qi, workers, err)
			}
			if err := equalBits(want, got); err != nil {
				t.Fatalf("query %d workers=%d: streamed result differs from the reference: %v", qi, workers, err)
			}
		}
	}
}
