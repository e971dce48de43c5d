package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bat"
	"repro/internal/matrix"
	"repro/internal/rel"
)

// relFromSeed builds a deterministic random relation from a seed: n rows
// (2..17), k app columns (1..4), shuffled int key.
func relFromSeed(seed int64, name string) *rel.Relation {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(16)
	k := 1 + rng.Intn(4)
	return randRelation(rng, name, n, k)
}

// TestQuickAddCommutes: add_U;V(r, s) and add_V;U(s, r) contain the same
// numeric base result (matrix addition commutes; the origins swap).
func TestQuickAddCommutes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(16)
		k := 1 + rng.Intn(4)
		r := randRelation(rng, "r", n, k)
		s := randRelation(rng, "s", n, k)
		rs, err := Add(r, []string{"Kr"}, s, []string{"Ks"}, nil)
		if err != nil {
			return false
		}
		sr, err := Add(s, []string{"Ks"}, r, []string{"Kr"}, nil)
		if err != nil {
			return false
		}
		a, err := rs.Drop("Ks")
		if err != nil {
			return false
		}
		b, err := sr.Drop("Kr")
		if err != nil {
			return false
		}
		ma := reduce(t, a, []string{"Kr"})
		mb := reduce(t, b, []string{"Ks"})
		return matrix.ApproxEqual(ma, mb, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickSubInverseOfAdd: sub(add(r,s), s') recovers r's values.
func TestQuickSubInverseOfAdd(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(16)
		k := 1 + rng.Intn(4)
		r := randRelation(rng, "r", n, k)
		s := randRelation(rng, "s", n, k)
		sum, err := Add(r, []string{"Kr"}, s, []string{"Ks"}, nil)
		if err != nil {
			return false
		}
		sum2, err := sum.Drop("Ks")
		if err != nil {
			return false
		}
		back, err := Sub(sum2, []string{"Kr"}, s, []string{"Ks"}, nil)
		if err != nil {
			return false
		}
		back2, err := back.Drop("Ks")
		if err != nil {
			return false
		}
		return matrix.ApproxEqual(
			reduce(t, back2, []string{"Kr"}),
			inputMatrix(t, r), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickTraTwiceIsIdentityModuloOrder: tra(tra(r)) holds the same
// tuples as r (sorted by the key), per the paper's Figure 10.
func TestQuickTraTwiceIsIdentityModuloOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := relFromSeed(seed, "r")
		t1, err := Tra(r, []string{"Kr"}, nil)
		if err != nil {
			return false
		}
		t2, err := Tra(t1, []string{"C"}, nil)
		if err != nil {
			return false
		}
		// t2 columns are the app schema names; its C column holds the
		// stringified key values.
		m2 := reduce(t, t2, []string{"C"})
		// Compare against r reduced by the key, with rows ordered by the
		// *string* rendering of the key (the C sort order of t2).
		keyCol, _ := r.Col("Kr")
		n := r.NumRows()
		keys := make([]string, n)
		for i := 0; i < n; i++ {
			keys[i] = keyCol.Get(i).String()
		}
		strKeys := bat.FromStrings(keys)
		schema := append(rel.Schema{{Name: "Sk", Type: bat.String}}, r.Schema[1:]...)
		cols := append([]*bat.BAT{strKeys}, r.Cols[1:]...)
		rs, err := rel.New("rs", schema, cols)
		if err != nil {
			return false
		}
		m1 := reduce(t, rs, []string{"Sk"})
		return matrix.ApproxEqual(m1, m2, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickQqrOrthonormal: the application part of qqr(r) always has
// orthonormal columns, for any relation with a key and enough rows.
func TestQuickQqrOrthonormal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(4)
		n := k + 1 + rng.Intn(16) // rows > cols
		r := randRelation(rng, "r", n, k)
		q, err := Qqr(r, []string{"Kr"}, nil)
		if err != nil {
			return false
		}
		m := reduce(t, q, []string{"Kr"})
		qtq := matrix.New(k, k)
		for a := 0; a < k; a++ {
			for b := 0; b < k; b++ {
				var s float64
				for i := 0; i < n; i++ {
					s += m.At(i, a) * m.At(i, b)
				}
				if a == b {
					s-- // QᵀQ − I
				}
				qtq.Set(a, b, s)
			}
		}
		return matrix.ApproxEqual(qtq, matrix.New(k, k), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickDetInvReciprocal: det(inv(A)) = 1/det(A) for well-conditioned
// square relations.
func TestQuickDetInvReciprocal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		r := spdRelation(rng, n)
		d1, err := Det(r, []string{"K"}, nil)
		if err != nil {
			return false
		}
		inv, err := Inv(r, []string{"K"}, nil)
		if err != nil {
			return false
		}
		d2, err := Det(inv, []string{"K"}, nil)
		if err != nil {
			return false
		}
		a, b := d1.Value(0, 1).F, d2.Value(0, 1).F
		return math.Abs(a*b-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestQuickOriginsAlwaysPresent: for every unary op applicable to a tall
// relation, the result relation has at least one contextual attribute and
// numeric base columns — relations with origins, never bare matrices.
func TestQuickOriginsAlwaysPresent(t *testing.T) {
	ops := []Op{OpTRA, OpQQR, OpRQR, OpDSV, OpUSV, OpVSV, OpRNK}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		n := k + 2 + rng.Intn(10)
		r := randRelation(rng, "r", n, k)
		for _, op := range ops {
			v, err := Unary(op, r, []string{"Kr"}, nil)
			if err != nil {
				return false
			}
			// First attribute is contextual: the key (Int) or C (String).
			if v.Schema[0].Type == bat.Float {
				return false
			}
			for _, attr := range v.Schema[1:] {
				if attr.Type != bat.Float {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestQuickSortModesAgree: optimized and full sorting always produce the
// same set of tuples for the no-sort class and the relative-sort class.
func TestQuickSortModesAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		n := k + 2 + rng.Intn(12)
		r := randRelation(rng, "r", n, k)
		s := randRelation(rng, "s", n, k)
		full, err := Emu(r, []string{"Kr"}, s, []string{"Ks"}, &Options{SortMode: SortFull})
		if err != nil {
			return false
		}
		opt, err := Emu(r, []string{"Kr"}, s, []string{"Ks"}, &Options{SortMode: SortOptimized})
		if err != nil {
			return false
		}
		fd, err := full.Drop("Ks")
		if err != nil {
			return false
		}
		od, err := opt.Drop("Ks")
		if err != nil {
			return false
		}
		return matrix.ApproxEqual(
			reduce(t, fd, []string{"Kr"}),
			reduce(t, od, []string{"Kr"}), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
