package sql

import (
	"fmt"
	"testing"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/rel"
)

// sparseTwins builds a relation name(id, k, v, w) of n rows, k and v
// mostly zero and w dense, once with k and v zero-suppressed and once
// with every column dense. Column names carry the relation's name, and
// seed varies the values, so two relations built here differ.
func sparseTwins(name string, n int, seed int) (sparse, dense *rel.Relation) {
	id := make([]int64, n)
	k := make([]float64, n)
	v := make([]float64, n)
	w := make([]float64, n)
	for i := range id {
		id[i] = int64((i*7919 + seed) % n)
		if i%3 == 0 {
			k[i] = float64((i*seed)%49 + 1)
		}
		if i%5 != 0 {
			v[i] = float64((i*31+seed)%997)*0.0625 - 20
		}
		w[i] = float64(i%211)*0.375 + float64(seed)
	}
	schema := rel.Schema{
		{Name: "id" + name, Type: bat.Int},
		{Name: "k" + name, Type: bat.Float},
		{Name: "v" + name, Type: bat.Float},
		{Name: "w" + name, Type: bat.Float},
	}
	sparse = rel.MustNew(name, schema, []*bat.BAT{
		bat.FromInts(id), bat.FromSparse(bat.Compress(k)), bat.FromSparse(bat.Compress(v)), bat.FromFloats(w),
	})
	dense = rel.MustNew(name, schema, []*bat.BAT{
		bat.FromInts(id), bat.FromFloats(k), bat.FromFloats(v), bat.FromFloats(w),
	})
	return sparse, dense
}

// TestRegisterSparseMatchesDense registers relations with zero-suppressed
// columns and runs scan, filter, join (the sparse relation on the build
// and on the probe side), GROUP BY, ORDER BY … LIMIT and RMA calls over
// them. Register densifies the sparse tails, so the catalog holds dense
// columns only, every result is bitwise the one over the relations' dense
// twins at workers 1, 2 and 8, and every statement leaves its tenant
// with 0 live bytes.
func TestRegisterSparseMatchesDense(t *testing.T) {
	n := 3*bat.MorselSize + 17
	ek := make([]float64, 49)
	ev := make([]float64, 49)
	for i := range ek {
		ek[i], ev[i] = float64(i+1), float64(i)*1.25-7
	}
	e := rel.MustNew("e", rel.Schema{{Name: "ek", Type: bat.Float}, {Name: "ev", Type: bat.Float}},
		[]*bat.BAT{bat.FromFloats(ek), bat.FromFloats(ev)})
	gov := exec.NewGovernor(0, 0)
	sparseDB, denseDB := NewDB(), NewDB()
	for k, name := range []string{"s", "r"} {
		sp, dn := sparseTwins(name, n, 3+k)
		sparseDB.Register(name, sp)
		denseDB.Register(name, dn)
	}
	sparseDB.Register("e", e)
	denseDB.Register("e", e)
	for _, name := range []string{"s", "r"} {
		tab, err := sparseDB.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		for k, col := range tab.Cols {
			if col.IsSparse() {
				t.Fatalf("registered column %s.%s is sparse; Register must densify it", name, tab.Schema[k].Name)
			}
		}
	}

	queries := []string{
		"SELECT ids, ks, vs, ws FROM s;",
		"SELECT ids, vs FROM s WHERE vs > 1 AND ks <> 0;",
		"SELECT e.ek, e.ev, s.ids, s.vs FROM e JOIN s ON e.ek = s.ks;",
		"SELECT s.ids, s.vs, e.ev FROM s JOIN e ON s.ks = e.ek WHERE s.vs < 30;",
		"SELECT s.ids, s.ks, r.vr FROM s LEFT JOIN r ON s.ks = r.kr + 100;",
		"SELECT ks, SUM(vs) AS sv, COUNT(*) AS c FROM s GROUP BY ks ORDER BY ks;",
		"SELECT ids, vs FROM s ORDER BY vs DESC, ids LIMIT 25;",
		"SELECT * FROM ADD(s BY ids, r BY idr);",
		"SELECT * FROM CPD(s BY ids, r BY idr);",
	}
	for _, workers := range []int{1, 2, 8} {
		for _, q := range queries {
			at := fmt.Sprintf("workers=%d %s", workers, q)
			tenant := fmt.Sprintf("sparse-reg-%d", workers)
			opts := &core.Options{Parallelism: workers, Tenant: tenant, Governor: gov}
			want, err := denseDB.QueryWith(q, opts)
			if err != nil {
				t.Fatalf("%s: dense: %v", at, err)
			}
			got, err := sparseDB.QueryWith(q, opts)
			if err != nil {
				t.Fatalf("%s: sparse: %v", at, err)
			}
			if got.NumRows() == 0 {
				t.Fatalf("%s: empty result, the check is vacuous", at)
			}
			if err := equalBits(want, got); err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			if live := gov.Tenant(tenant, 0).LiveBytes(); live != 0 {
				t.Fatalf("%s: tenant live bytes %d after the statement, want 0", at, live)
			}
		}
	}
}
