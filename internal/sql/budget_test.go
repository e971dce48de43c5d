package sql

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/rel"
)

// wideRelation registers an n-row float relation large enough that the
// ORDER BY permutation and gather traffic dominate a small budget.
func wideRelation(n int) *rel.Relation {
	f := make([]float64, n)
	for i := range f {
		f[i] = float64((i*7919 + 13) % n)
	}
	return rel.MustNew("t", rel.Schema{{Name: "x", Type: bat.Float}},
		[]*bat.BAT{bat.FromFloats(f)})
}

// TestStatementTenantAccounting checks that a tenant-configured DB
// routes statement arena traffic through the tenant: the metrics show
// the tenant with a nonzero peak, and every statement's charges are
// released when it finishes.
func TestStatementTenantAccounting(t *testing.T) {
	db := NewDB()
	db.SetRMAOptions(&core.Options{Governor: exec.NewGovernor(0, 0), Tenant: "alice", MemoryBudget: 64 << 20})
	db.Register("t", wideRelation(1<<16))

	if _, err := db.Query(`SELECT x FROM t ORDER BY x LIMIT 5`); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if len(m.Tenants) != 1 || m.Tenants[0].Tenant != "alice" {
		t.Fatalf("metrics tenants = %+v, want [alice]", m.Tenants)
	}
	alice := m.Tenants[0]
	if alice.PeakBytes == 0 {
		t.Fatal("tenant peak is zero; statement traffic did not charge the tenant")
	}
	if alice.LiveBytes != 0 {
		t.Fatalf("tenant live = %d after the statement closed, want 0", alice.LiveBytes)
	}
	if alice.BudgetBytes != 64<<20 {
		t.Fatalf("tenant budget = %d", alice.BudgetBytes)
	}
	if m.Admitted == 0 {
		t.Fatal("no statements admitted through the governor")
	}
}

// TestStatementBudgetError checks that a statement that cannot fit its
// memory budget fails with the typed error — no panic escapes the SQL
// layer — and strands no bytes against the tenant.
func TestStatementBudgetError(t *testing.T) {
	db := NewDB()
	gov := exec.NewGovernor(0, 0)
	db.SetRMAOptions(&core.Options{Governor: gov, Tenant: "bob", MemoryBudget: 4096})
	db.Register("t", wideRelation(1<<16))

	_, err := db.Query(`SELECT x FROM t ORDER BY x`)
	if err == nil {
		t.Fatal("64Ki-row sort succeeded under a 4 KiB budget")
	}
	if !errors.Is(err, exec.ErrMemoryBudget) {
		t.Fatalf("error = %v, want ErrMemoryBudget", err)
	}
	if got := gov.Tenant("bob", 0).LiveBytes(); got != 0 {
		t.Fatalf("tenant live = %d after the failed statement, want 0", got)
	}

	// The same query under an adequate budget succeeds on the same DB.
	db.SetRMAOptions(&core.Options{Governor: gov, Tenant: "bob", MemoryBudget: 64 << 20})
	if _, err := db.Query(`SELECT x FROM t ORDER BY x LIMIT 3`); err != nil {
		t.Fatal(err)
	}
}

// TestOrderByPermutationWarmsTenantPool checks that the ORDER BY sort
// permutation goes back to the statement's tenant pool: a repeat of the
// same ORDER BY draws its permutation as a pool hit instead of missing
// the tenant's Ints pool every time.
func TestOrderByPermutationWarmsTenantPool(t *testing.T) {
	db := NewDB()
	gov := exec.NewGovernor(0, 0)
	db.SetRMAOptions(&core.Options{Governor: gov, Tenant: "warm", MemoryBudget: 64 << 20})
	db.Register("t", wideRelation(1<<12))
	tn := gov.Tenant("warm", 0)
	// sync.Pool drops a fraction of Puts under the race detector: retry.
	hit := false
	for i := 0; i < 64 && !hit; i++ {
		before := tn.Stats().Ints.PoolHits
		if _, err := db.Query(`SELECT x FROM t ORDER BY x`); err != nil {
			t.Fatal(err)
		}
		hit = tn.Stats().Ints.PoolHits > before
	}
	if !hit {
		t.Fatalf("ORDER BY never reused its permutation buffer: %+v", tn.Stats().Ints)
	}
}

// TestOptionsGovernorUnifiesAccounting is the regression test for the
// split-books bug: an explicit Options.Governor (set via SetRMAOptions)
// must carry the statement pipeline, admission,
// and Metrics — not just the RMA table functions — so one tenant's
// budget is enforced on a single set of books.
func TestOptionsGovernorUnifiesAccounting(t *testing.T) {
	gov := exec.NewGovernor(0, 0)
	db := NewDB()
	db.SetRMAOptions(&core.Options{Governor: gov, Tenant: "carol", MemoryBudget: 64 << 20})
	db.Register("t", wideRelation(1<<16))

	if _, err := db.Query(`SELECT x FROM t ORDER BY x LIMIT 5`); err != nil {
		t.Fatal(err)
	}
	// The statement pipeline's sort traffic must land on gov's tenant,
	// and db.Metrics must read the same books.
	if got := gov.Tenant("carol", 0).PeakBytes(); got == 0 {
		t.Fatal("statement traffic bypassed Options.Governor")
	}
	m := db.Metrics()
	if len(m.Tenants) != 1 || m.Tenants[0].Tenant != "carol" {
		t.Fatalf("db.Metrics tenants = %+v, want [carol] from Options.Governor", m.Tenants)
	}
	if m.Admitted == 0 {
		t.Fatal("statement was not admitted through Options.Governor")
	}
	// The process default governor saw none of it.
	for _, tn := range exec.DefaultGovernor().Metrics().Tenants {
		if tn.Tenant == "carol" {
			t.Fatal("tenant carol leaked onto the default governor")
		}
	}
}

// TestStatementAdmissionSerializes runs concurrent scripts through a
// single-slot governor: all must complete (queueing, not failing), and
// the governor must drain to idle.
func TestStatementAdmissionSerializes(t *testing.T) {
	db := NewDB()
	gov := exec.NewGovernor(0, 1)
	db.SetRMAOptions(&core.Options{Governor: gov, Tenant: "q", MemoryBudget: 64 << 20})
	db.Register("t", wideRelation(1<<12))

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := db.Query(`SELECT x FROM t ORDER BY x LIMIT 2`); err != nil {
				t.Errorf("concurrent query failed: %v", err)
			}
		}()
	}
	wg.Wait()
	m := db.Metrics()
	if m.Running != 0 || m.Queued != 0 || m.ReservedBytes != 0 {
		t.Fatalf("governor not idle after drain: %+v", m)
	}
	if m.Admitted < 4 {
		t.Fatalf("Admitted = %d, want >= 4", m.Admitted)
	}
}
