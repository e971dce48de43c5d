package core

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/exec"
	"repro/internal/matrix"
	"repro/internal/rel"
)

func TestSkinnyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	r := randRelation(rng, "r", 9, 4)
	skinny, err := ToSkinny(r, []string{"Kr"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if skinny.NumRows() != 9*4 {
		t.Fatalf("skinny rows = %d, want 36", skinny.NumRows())
	}
	if got := skinny.Schema.Names(); got[1] != SkinnyAttr || got[2] != SkinnyValue {
		t.Fatalf("skinny schema = %v", got)
	}
	wide, err := FromSkinny(skinny, []string{"Kr"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Same matrix after reduction by the key (attribute names of the
	// generator sort alphabetically, so column order is preserved).
	if !matrix.ApproxEqual(inputMatrix(t, wide), inputMatrix(t, r), 1e-12) {
		t.Error("skinny round trip changed values")
	}
}

func TestSkinnyIsRelationalInput(t *testing.T) {
	// The skinny form is an ordinary relation: RMA operations work on it.
	rng := rand.New(rand.NewSource(78))
	r := randRelation(rng, "r", 5, 2)
	skinny, err := ToSkinny(r, []string{"Kr"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// (Kr, attr) is a key of the skinny relation; val is the single
	// application column — qqr over it must work.
	q, err := Qqr(skinny, []string{"Kr", SkinnyAttr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumRows() != 10 || q.NumCols() != 3 {
		t.Fatalf("qqr over skinny = %dx%d", q.NumRows(), q.NumCols())
	}
}

func TestSkinnyErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	r := randRelation(rng, "r", 4, 2)
	if _, err := ToSkinny(r, []string{"nope"}, nil); err == nil {
		t.Error("bad order attribute accepted")
	}
	// Name collision with the generated attributes.
	coll := rel.MustNew("c", rel.Schema{
		{Name: "K", Type: bat.Int},
		{Name: SkinnyAttr, Type: bat.Float},
	}, []*bat.BAT{bat.FromInts([]int64{1}), bat.FromFloats([]float64{2})})
	if _, err := ToSkinny(coll, []string{"K"}, nil); err == nil {
		t.Error("attr collision accepted")
	}

	skinny, err := ToSkinny(r, []string{"Kr"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Remove one row: no longer dense.
	idx := make([]int, skinny.NumRows()-1)
	for i := range idx {
		idx[i] = i
	}
	if _, err := FromSkinny(skinny.Gather(nil, idx), []string{"Kr"}, nil); err == nil {
		t.Error("non-dense skinny accepted")
	}
	// Duplicate a row: duplicate cell.
	dup := make([]int, skinny.NumRows()+1)
	for i := range dup {
		dup[i] = i % skinny.NumRows()
	}
	if _, err := FromSkinny(skinny.Gather(nil, dup), []string{"Kr"}, nil); err == nil {
		t.Error("duplicate cell accepted")
	}
	if _, err := FromSkinny(r, []string{"Kr"}, nil); err == nil {
		t.Error("relation without attr/val accepted")
	}
	if _, err := FromSkinny(skinny, []string{SkinnyAttr}, nil); err == nil {
		t.Error("attr as order attribute accepted")
	}
	if _, err := FromSkinny(skinny, []string{"nope"}, nil); err == nil {
		t.Error("missing order attribute accepted")
	}
}

// TestSkinnyWideTableScenario exercises the paper's motivation: a wide
// relation stored skinny, pivoted on demand for a matrix operation.
func TestSkinnyWideTableScenario(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	wide := randRelation(rng, "w", 40, 30) // 30 application attributes
	skinny, err := ToSkinny(wide, []string{"Kw"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if skinny.NumCols() != 3 {
		t.Fatalf("skinny arity = %d", skinny.NumCols())
	}
	back, err := FromSkinny(skinny, []string{"Kw"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Matrix operation on the recovered wide view.
	q, err := Rqr(back, []string{"Kw"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumRows() != 30 {
		t.Fatalf("rqr rows = %d", q.NumRows())
	}
}

// TestSkinnyBudgetBoundary pins the CatchBudget contract on the skinny
// boundaries: a governed invocation whose budget cannot fit the gather
// buffers must fail with the typed error, never unwind the caller with
// a panic. (rmalint/budgetboundary flagged both functions before they
// installed the handler.)
func TestSkinnyBudgetBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	r := randRelation(rng, "r", 64, 4)
	opts := &Options{Tenant: "skinny-budget", MemoryBudget: 1, Governor: exec.NewGovernor(0, 0)}
	if _, err := ToSkinny(r, []string{"Kr"}, opts); !errors.Is(err, exec.ErrMemoryBudget) {
		t.Fatalf("ToSkinny under a 1-byte budget: err = %v, want ErrMemoryBudget", err)
	}
	skinny, err := ToSkinny(r, []string{"Kr"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromSkinny(skinny, []string{"Kr"}, opts); !errors.Is(err, exec.ErrMemoryBudget) {
		t.Fatalf("FromSkinny under a 1-byte budget: err = %v, want ErrMemoryBudget", err)
	}
}

// TestSkinnyTypedKeys holds FromSkinny to the engine's typed key
// equality. Order keys ("a\x00", "b") and ("a", "\x00b") are two keys,
// so their relation round-trips; rows keyed +0 and −0 are one key given
// the same cell twice, so the relation is not dense.
func TestSkinnyTypedKeys(t *testing.T) {
	nul := rel.MustNew("n", rel.Schema{
		{Name: "A", Type: bat.String},
		{Name: "B", Type: bat.String},
		{Name: "x", Type: bat.Float},
	}, []*bat.BAT{
		bat.FromStrings([]string{"a\x00", "a"}),
		bat.FromStrings([]string{"b", "\x00b"}),
		bat.FromFloats([]float64{1, 2}),
	})
	skinny, err := ToSkinny(nul, []string{"A", "B"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromSkinny(skinny, []string{"A", "B"}, nil)
	if err != nil {
		t.Fatalf("FromSkinny over NUL-bearing keys: %v", err)
	}
	if back.NumRows() != 2 {
		t.Fatalf("round trip has %d rows, want 2", back.NumRows())
	}
	for i, want := range []struct {
		a, b string
		x    float64
	}{{"a", "\x00b", 2}, {"a\x00", "b", 1}} {
		if a, b, x := back.Cols[0].Get(i).S, back.Cols[1].Get(i).S, back.Cols[2].Get(i).F; a != want.a || b != want.b || x != want.x {
			t.Errorf("row %d = (%q, %q, %v), want (%q, %q, %v)", i, a, b, x, want.a, want.b, want.x)
		}
	}

	zeros := rel.MustNew("z", rel.Schema{
		{Name: "K", Type: bat.Float},
		{Name: SkinnyAttr, Type: bat.String},
		{Name: SkinnyValue, Type: bat.Float},
	}, []*bat.BAT{
		bat.FromFloats([]float64{0, math.Copysign(0, -1)}),
		bat.FromStrings([]string{"a", "a"}),
		bat.FromFloats([]float64{1, 2}),
	})
	if _, err := FromSkinny(zeros, []string{"K"}, nil); err == nil || !strings.Contains(err.Error(), "not dense") {
		t.Fatalf("FromSkinny over keys +0 and -0: err = %v, want the not-dense error", err)
	}
}
