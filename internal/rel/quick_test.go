package rel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bat"
)

// randRel builds a relation with an int key (with duplicates), a float
// value, and a low-cardinality string tag.
func randRel(rng *rand.Rand, name string, n int) *Relation {
	b := NewBuilder(name, Schema{
		{Name: name + "_k", Type: bat.Int},
		{Name: name + "_v", Type: bat.Float},
		{Name: name + "_t", Type: bat.String},
	})
	tags := []string{"a", "b", "c"}
	for i := 0; i < n; i++ {
		b.MustAdd(
			bat.IntValue(int64(rng.Intn(n/2+1))),
			bat.FloatValue(rng.NormFloat64()),
			bat.StringValue(tags[rng.Intn(len(tags))]),
		)
	}
	return b.Relation()
}

// TestQuickJoinCardinality: |r ⋈ s| equals the sum over keys of
// count_r(key)·count_s(key).
func TestQuickJoinCardinality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randRel(rng, "r", 1+rng.Intn(60))
		s := randRel(rng, "s", 1+rng.Intn(60))
		j, err := HashJoin(nil, r, s, []string{"r_k"}, []string{"s_k"}, Inner)
		if err != nil {
			return false
		}
		// Count occurrences per key on both sides.
		rc := map[int64]int{}
		sc := map[int64]int{}
		rk, _ := r.Col("r_k")
		sk, _ := s.Col("s_k")
		for _, v := range rk.Vector().Ints() {
			rc[v]++
		}
		for _, v := range sk.Vector().Ints() {
			sc[v]++
		}
		want := 0
		for k, n := range rc {
			want += n * sc[k]
		}
		return j.NumRows() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickGroupBySums: the per-group sums add up to the global sum, and
// the counts add up to the relation size.
func TestQuickGroupBySums(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randRel(rng, "r", 1+rng.Intn(80))
		g, err := GroupBy(nil, r, []string{"r_t"}, []AggSpec{
			{Func: Count, As: "n"},
			{Func: Sum, Attr: "r_v", As: "s"},
		})
		if err != nil {
			return false
		}
		var totalN int64
		var totalS float64
		for i := 0; i < g.NumRows(); i++ {
			totalN += g.Value(i, 1).I
			totalS += g.Value(i, 2).F
		}
		vc, _ := r.Col("r_v")
		var want float64
		for _, v := range vc.Vector().Floats() {
			want += v
		}
		return totalN == int64(r.NumRows()) && approxEq(totalS, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func approxEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := 1.0
	if b > 1 || b < -1 {
		if b < 0 {
			m = -b
		} else {
			m = b
		}
	}
	return d < 1e-9*m
}

// TestQuickSelectPartition: a predicate and its negation partition the
// relation.
func TestQuickSelectPartition(t *testing.T) {
	f := func(seed int64, cut float64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randRel(rng, "r", 1+rng.Intn(80))
		pred, err := r.FloatPred("r_v", func(v float64) bool { return v < cut })
		if err != nil {
			return false
		}
		neg, err := r.FloatPred("r_v", func(v float64) bool { return !(v < cut) })
		if err != nil {
			return false
		}
		return r.Select(nil, pred).NumRows()+r.Select(nil, neg).NumRows() == r.NumRows()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickDistinctIdempotent: distinct(distinct(r)) == distinct(r) and
// never grows.
func TestQuickDistinctIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randRel(rng, "r", 1+rng.Intn(60))
		d1, err1 := GroupBy(nil, r, r.Schema.Names(), nil)
		d2, err2 := GroupBy(nil, d1, d1.Schema.Names(), nil)
		return err1 == nil && err2 == nil && d1.NumRows() <= r.NumRows() && d1.NumRows() == d2.NumRows()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickSortPermutation: sorting preserves the multiset of rows and
// orders the sort column.
func TestQuickSortPermutation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randRel(rng, "r", 1+rng.Intn(60))
		s, err := r.Sort(nil, OrderSpec{Attr: "r_v"})
		if err != nil {
			return false
		}
		if s.NumRows() != r.NumRows() {
			return false
		}
		vc, _ := s.Col("r_v")
		vals := vc.Vector().Floats()
		for i := 1; i < len(vals); i++ {
			if vals[i-1] > vals[i] {
				return false
			}
		}
		var sumR, sumS float64
		rc, _ := r.Col("r_v")
		for _, v := range rc.Vector().Floats() {
			sumR += v
		}
		for _, v := range vals {
			sumS += v
		}
		return approxEq(sumR, sumS)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickUnionCardinality: |r ∪ s| = |r| + |s| under bag semantics.
func TestQuickUnionCardinality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randRel(rng, "r", 1+rng.Intn(40))
		s2 := randRel(rng, "r", 1+rng.Intn(40)) // same schema names
		u, err := Union(r, s2)
		if err != nil {
			return false
		}
		return u.NumRows() == r.NumRows()+s2.NumRows()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
