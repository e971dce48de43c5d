package core

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/exec"
	"repro/internal/rel"
)

// invocationAlloc runs one invocation at one worker on a fresh tenant
// and returns the tenant's peak and the bytes the Go heap allocated
// during it (runtime.MemStats.TotalAlloc).
func invocationAlloc(run policyRun, p Policy) (peak int64, alloc uint64, err error) {
	gov := exec.NewGovernor(0, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = run(&Options{Policy: p, Parallelism: 1, Tenant: "acct", Governor: gov})
	runtime.ReadMemStats(&after)
	return gov.Tenant("acct", 0).PeakBytes(), after.TotalAlloc - before.TotalAlloc, err
}

// allocSlack is what an invocation may allocate beyond twice its tenant
// peak: the split, the schemas and the per-invocation bookkeeping that is
// not column data.
const allocSlack = 1 << 20

// TestRMAAccounting holds all nineteen operations, under both policies,
// to the tenant ledger: whatever an operation's working and result
// columns are, they are drawn from the tenant's arena, so the Go heap
// allocates at most twice the tenant's peak plus allocSlack. Each
// invocation runs twice on fresh tenants and the second (warm) run is
// measured. The shapes are ones whose dense copy-in into a row-major
// array, copy-back out of it, or per-step Go-heap columns once broke the
// bound.
func TestRMAAccounting(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs runtime.MemStats.TotalAlloc")
	}
	tall := denseRel("a", "Ka", 20000, 20, 61)
	tall2 := denseRel("b", "Kb", 20000, 20, 62)
	narrow := denseRel("n", "Kn", 20, 20, 63)
	usv := denseRel("u", "Ku", 1000, 20, 64)
	sq := squareRel(rand.New(rand.NewSource(65)), 200)
	spd := shuffledRows(squareMatrixRel("p", "Kp", spdRows(120, 66)), 67)
	rhs := denseRel("y", "Ky", 200, 1, 68)
	wide := denseRel("w", "Kw", 100000, 20, 69)
	wide2 := denseRel("v", "Kv", 100000, 20, 70)
	ka, kb, kn, ku := []string{"Ka"}, []string{"Kb"}, []string{"Kn"}, []string{"Ku"}
	kq, kp, kw, kv := []string{"Kq"}, []string{"Kp"}, []string{"Kw"}, []string{"Kv"}
	unary := func(op func(*rel.Relation, []string, *Options) (*rel.Relation, error), r *rel.Relation, k []string) policyRun {
		return func(o *Options) (*rel.Relation, error) { return op(r, k, o) }
	}
	binary := func(op func(*rel.Relation, []string, *rel.Relation, []string, *Options) (*rel.Relation, error),
		r *rel.Relation, kr []string, s *rel.Relation, ks []string) policyRun {
		return func(o *Options) (*rel.Relation, error) { return op(r, kr, s, ks, o) }
	}
	cases := []struct {
		name string
		run  policyRun
	}{
		{"tra 20000x20", unary(Tra, tall, ka)},
		{"inv 200x200", unary(Inv, sq, kq)},
		{"det 200x200", unary(Det, sq, kq)},
		{"chf 120x120", unary(Chf, spd, kp)},
		{"evc 120x120", unary(Evc, spd, kp)},
		{"evl 120x120", unary(Evl, spd, kp)},
		{"qqr 200x200", unary(Qqr, sq, kq)},
		{"rqr 200x200", unary(Rqr, sq, kq)},
		{"dsv 20000x20", unary(Dsv, tall, ka)},
		{"usv 1000x20", unary(Usv, usv, ku)},
		{"vsv 20000x20", unary(Vsv, tall, ka)},
		{"rnk 20000x20", unary(Rnk, tall, ka)},
		{"sol 200x200", binary(Sol, sq, kq, rhs, []string{"Ky"})},
		{"mmu 20000x20", binary(Mmu, tall, ka, narrow, kn)},
		{"cpd 20000x20", binary(Cpd, tall, ka, tall2, kb)},
		{"opd 20000x20", binary(Opd, tall, ka, narrow, kn)},
		{"add 100000x20", binary(Add, wide, kw, wide2, kv)},
		{"sub 100000x20", binary(Sub, wide, kw, wide2, kv)},
		{"emu 100000x20", binary(Emu, wide, kw, wide2, kv)},
	}
	for _, tc := range cases {
		for _, p := range []Policy{PolicyBAT, PolicyDense} {
			if _, _, err := invocationAlloc(tc.run, p); err != nil {
				t.Fatalf("%s %v: %v", tc.name, p, err)
			}
			peak, alloc, err := invocationAlloc(tc.run, p)
			if err != nil {
				t.Fatalf("%s %v: warm run: %v", tc.name, p, err)
			}
			mib := func(b uint64) float64 { return float64(b) / (1 << 20) }
			t.Logf("%s %v: allocated %.2f MiB, tenant peak %.2f MiB", tc.name, p, mib(alloc), mib(uint64(peak)))
			if limit := 2*uint64(peak) + allocSlack; alloc > limit {
				t.Errorf("%s %v: allocated %.2f MiB, above 2 x tenant peak %.2f MiB + 1 MiB",
					tc.name, p, mib(alloc), mib(uint64(peak)))
			}
		}
	}
}
