package sql

import (
	"testing"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/rel"
)

// TestStatementRunsOnce runs an ORDER BY whose parallel merge sort peaks
// above its serial one under a budget between the two peaks (two keys,
// so the sort is the merge sort, not the single-key radix sort). The
// statement is admitted and executed exactly once: the sort falls back to
// its serial body inside the statement, the result equals the workers-1
// result, the tenant peak stays within the budget, and the statement's
// charges are all released afterwards.
func TestStatementRunsOnce(t *testing.T) {
	const query = `SELECT x FROM t ORDER BY x * 2, x`
	n := 12*bat.SerialCutoff + 7
	run := func(workers int, budget int64) (*rel.Relation, *exec.Governor, error) {
		gov := exec.NewGovernor(0, 0)
		db := NewDB()
		db.Register("t", wideRelation(n))
		res, err := db.QueryWith(query, &core.Options{
			Tenant: "once", Governor: gov, MemoryBudget: budget, Parallelism: workers,
		})
		return res, gov, err
	}
	want, serialGov, err := run(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, parGov, err := run(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	p1, p8 := serialGov.Tenant("once", 0).PeakBytes(), parGov.Tenant("once", 0).PeakBytes()
	if p8 <= p1 {
		t.Fatalf("peaks: workers=1 %d, workers=8 %d; want the parallel sort's scratch above the serial one", p1, p8)
	}
	budget := (p1 + p8) / 2

	gov := exec.NewGovernor(0, 0)
	db := NewDB()
	db.Register("t", wideRelation(n))
	before := gov.Metrics().Admitted
	got, err := db.QueryWith(query, &core.Options{
		Tenant: "once", Governor: gov, MemoryBudget: budget, Parallelism: 8,
	})
	if err != nil {
		t.Fatalf("statement under %d bytes: %v", budget, err)
	}
	if admitted := gov.Metrics().Admitted - before; admitted != 1 {
		t.Fatalf("statement admitted %d times, want once", admitted)
	}
	if err := equalBits(want, got); err != nil {
		t.Fatalf("result differs from workers=1: %v", err)
	}
	tn := gov.Tenant("once", 0)
	if peak := tn.PeakBytes(); peak > budget {
		t.Fatalf("peak %d exceeds budget %d", peak, budget)
	}
	if live := tn.LiveBytes(); live != 0 {
		t.Fatalf("tenant live = %d after the statement, want 0", live)
	}
}

// TestRadixSortDegradesInPlace runs a single-key ORDER BY, which
// radix-sorts, under the workers-1 peak of the same sort on two keys,
// which merge-sorts. The radix sort's n-int scratch does not fit beside
// its result there, so it gives both back and the merge sort runs in
// its place: the statement succeeds within the budget, bitwise equal to
// its unbudgeted result. No sort needs more memory than the merge sort.
func TestRadixSortDegradesInPlace(t *testing.T) {
	n := 12*bat.SerialCutoff + 7
	run := func(query string, budget int64) (*rel.Relation, int64, error) {
		gov := exec.NewGovernor(0, 0)
		db := NewDB()
		db.Register("t", wideRelation(n))
		res, err := db.QueryWith(query, &core.Options{
			Tenant: "radix", Governor: gov, MemoryBudget: budget, Parallelism: 1,
		})
		return res, gov.Tenant("radix", 0).PeakBytes(), err
	}
	_, budget, err := run(`SELECT x FROM t ORDER BY x * 2, x`, 0)
	if err != nil {
		t.Fatal(err)
	}
	const query = `SELECT x FROM t ORDER BY x * 2`
	want, _, err := run(query, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, peak, err := run(query, budget)
	if err != nil {
		t.Fatalf("single-key ORDER BY under the merge sort's peak %d: %v", budget, err)
	}
	if peak > budget {
		t.Fatalf("peak %d exceeds budget %d", peak, budget)
	}
	if err := equalBits(want, got); err != nil {
		t.Fatalf("budgeted result differs from the unbudgeted one: %v", err)
	}
}
