package rel

import (
	"testing"

	"repro/internal/bat"
	"repro/internal/exec"
)

// boundaryRel builds a deterministic relation of n rows with a
// moderate-cardinality int key, a float value, and a low-cardinality
// string tag, using direct column construction (fast enough for
// chunk-boundary sizes).
func boundaryRel(name string, n int, card int64) *Relation {
	keys := make([]int64, n)
	vals := make([]float64, n)
	tags := make([]string, n)
	tagset := []string{"x", "y", "z"}
	for i := 0; i < n; i++ {
		keys[i] = (int64(i)*7919 + 13) % card
		vals[i] = float64((int64(i)*104729+7)%2000-1000) / 3.0
		tags[i] = tagset[(i*31)%len(tagset)]
	}
	return MustNew(name, Schema{
		{Name: name + "_k", Type: bat.Int},
		{Name: name + "_v", Type: bat.Float},
		{Name: name + "_t", Type: bat.String},
	}, []*bat.BAT{bat.FromInts(keys), bat.FromFloats(vals), bat.FromStrings(tags)})
}

// boundarySizes probes the fixed-chunk decomposition of the relational
// operators exactly where it changes shape, matching the PR-1 pattern in
// bat/parallel_test.go.
func boundarySizes() []int {
	return []int{1, 7, bat.SerialCutoff - 1, bat.SerialCutoff, bat.SerialCutoff + 1, 2*bat.SerialCutoff + 3}
}

// TestGroupByBitwiseIdenticalAcrossWorkers asserts that grouped
// aggregation — group order, counts, and float sums — is bitwise-identical
// at worker budgets 1, 2, and 8, across chunk-boundary sizes. Under -race
// this also exercises the parallel partial tables for data races.
func TestGroupByBitwiseIdenticalAcrossWorkers(t *testing.T) {
	aggs := []AggSpec{
		{Func: Count, As: "n"},
		{Func: Sum, Attr: "r_v", As: "s"},
		{Func: Avg, Attr: "r_v", As: "a"},
		{Func: Min, Attr: "r_v", As: "lo"},
		{Func: Max, Attr: "r_v", As: "hi"},
	}
	for _, n := range boundarySizes() {
		r := boundaryRel("r", n, 64)
		want, err := GroupBy(exec.New(1), r, []string{"r_k", "r_t"}, aggs)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 8} {
			got, err := GroupBy(exec.New(w), r, []string{"r_k", "r_t"}, aggs)
			if err != nil {
				t.Fatal(err)
			}
			if !equalRelations(got, want) {
				t.Fatalf("GroupBy n=%d workers=%d differs from serial", n, w)
			}
		}
		// Global group (no keys): the chunked sum must also be stable.
		wantG, _ := GroupBy(exec.New(1), r, nil, aggs)
		for _, w := range []int{2, 8} {
			got, _ := GroupBy(exec.New(w), r, nil, aggs)
			if !equalRelations(got, wantG) {
				t.Fatalf("global GroupBy n=%d workers=%d differs from serial", n, w)
			}
		}
	}
}

// TestHashJoinBitwiseIdenticalAcrossWorkers asserts the hash join
// produces the same rows in the same order at worker budgets 1, 2, and 8,
// across chunk-boundary sizes (duplicate keys included).
func TestHashJoinBitwiseIdenticalAcrossWorkers(t *testing.T) {
	for _, n := range []int{1, 7, bat.SerialCutoff - 1, bat.SerialCutoff + 1} {
		r := boundaryRel("r", n, int64(n/3+2))
		s := boundaryRel("s", n, int64(n/3+2))
		for _, jt := range []JoinType{Inner, Left} {
			want, err := HashJoin(exec.New(1), r, s, []string{"r_k"}, []string{"s_k"}, jt)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 8} {
				got, err := HashJoin(exec.New(w), r, s, []string{"r_k"}, []string{"s_k"}, jt)
				if err != nil {
					t.Fatal(err)
				}
				if !equalRelations(got, want) {
					t.Fatalf("HashJoin n=%d jt=%d workers=%d differs from serial", n, jt, w)
				}
			}
		}
	}
}

// TestSortBitwiseIdenticalAcrossWorkers asserts relation sorting through
// bat.SortStable yields identical row orders at any worker budget,
// including descending and multi-key specs with heavy duplication.
func TestSortBitwiseIdenticalAcrossWorkers(t *testing.T) {
	for _, n := range boundarySizes() {
		r := boundaryRel("r", n, 16)
		specs := []OrderSpec{{Attr: "r_t"}, {Attr: "r_k", Desc: true}}
		want, err := r.Sort(exec.New(1), specs...)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 8} {
			got, err := r.Sort(exec.New(w), specs...)
			if err != nil {
				t.Fatal(err)
			}
			if !equalRelations(got, want) {
				t.Fatalf("Sort n=%d workers=%d differs from serial", n, w)
			}
		}
	}
}

// nulRel builds the two-string-column relation whose rows collided under
// the former NUL-joined composite keys: ("a\x00", "b") and ("a", "\x00b")
// both rendered as "a\x00\x00b\x00".
func nulRel(name, a1, a2 string) *Relation {
	return MustNew(name, Schema{
		{Name: a1, Type: bat.String},
		{Name: a2, Type: bat.String},
	}, []*bat.BAT{
		bat.FromStrings([]string{"a\x00", "a"}),
		bat.FromStrings([]string{"b", "\x00b"}),
	})
}

// TestHashJoinNulSeparatorRegression: keys containing NUL bytes must not
// alias across cell boundaries.
func TestHashJoinNulSeparatorRegression(t *testing.T) {
	l := nulRel("l", "A", "B")
	r := nulRel("r", "C", "D")
	j, err := HashJoin(nil, l, r, []string{"A", "B"}, []string{"C", "D"}, Inner)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 matches row 0, row 1 matches row 1 — and nothing crosses.
	if j.NumRows() != 2 {
		t.Fatalf("NUL-key join rows = %d, want 2 (cell-boundary aliasing)", j.NumRows())
	}
	for i := 0; i < 2; i++ {
		if j.Value(i, 0).S != l.Value(i, 0).S || j.Value(i, 1).S != l.Value(i, 1).S {
			t.Errorf("row %d joined across the NUL boundary: %v", i, j.Row(i))
		}
	}
}

// TestDistinctNulSeparatorRegression: the two distinct rows must both
// survive.
func TestDistinctNulSeparatorRegression(t *testing.T) {
	d, err := GroupBy(nil, nulRel("r", "A", "B"), []string{"A", "B"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.NumRows(); got != 2 {
		t.Fatalf("distinct over NUL keys = %d rows, want 2", got)
	}
}

// TestGroupByNulSeparatorRegression: the two rows form two groups.
func TestGroupByNulSeparatorRegression(t *testing.T) {
	g, err := GroupBy(nil, nulRel("r", "A", "B"), []string{"A", "B"}, []AggSpec{{Func: Count, As: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRows() != 2 {
		t.Fatalf("NUL-key groups = %d, want 2", g.NumRows())
	}
}
