package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/dataset"
	"repro/internal/rel"
)

// identityRuns lists the policy × worker grid the algebra's identities
// hold on.
func identityRuns() []*Options {
	var out []*Options
	for _, p := range []Policy{PolicyBAT, PolicyDense} {
		for _, w := range []int{1, 2, 8} {
			out = append(out, &Options{Policy: p, Parallelism: w})
		}
	}
	return out
}

func optsName(o *Options) string {
	return fmt.Sprintf("policy=%d workers=%d", o.Policy, o.Parallelism)
}

// TestAddSparseStaysZeroSuppressed is Table 5's mechanism: ADD under the
// BAT policy over two zero-suppressed relations runs bat.SparseAdd, the
// one kernel that returns a zero-suppressed column, so every application
// column of the result is sparse; its values are the dense sums.
func TestAddSparseStaysZeroSuppressed(t *testing.T) {
	const n = 3000
	r := dataset.Sparse(n, 4, 0.7, 500)
	s, err := dataset.Sparse(n, 4, 0.7, 501).Rename(map[string]string{"k": "k2"})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []SortMode{SortFull, SortOptimized} {
		for _, w := range []int{1, 2, 8} {
			at := fmt.Sprintf("mode=%d workers=%d", mode, w)
			got, err := Add(r, []string{"k"}, s, []string{"k2"}, &Options{Policy: PolicyBAT, SortMode: mode, Parallelism: w})
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			apps := 0
			for k, a := range got.Schema {
				if !strings.HasPrefix(a.Name, "a") {
					continue
				}
				apps++
				if !got.Cols[k].IsSparse() {
					t.Fatalf("%s: column %s is dense; ADD over sparse inputs must stay zero-suppressed", at, a.Name)
				}
				rc, _ := r.Col(a.Name)
				sc := s.Cols[k-1] // s's application columns follow its one key
				for i := 0; i < n; i++ {
					want := rc.Get(i).F + sc.Get(i).F
					if g := got.Cols[k].Get(i).F; math.Float64bits(g) != math.Float64bits(want) {
						t.Fatalf("%s: %s[%d] = %v, want %v", at, a.Name, i, g, want)
					}
				}
			}
			if apps != 4 {
				t.Fatalf("%s: %d application columns in %v, want 4", at, apps, got.Schema.Names())
			}
		}
	}
}

// TestTraInvolution checks that tra is an involution: transposing a
// relation by its key K, then the result by C, returns the relation
// bitwise, ordered by K, with K renamed C.
func TestTraInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n, k = 300, 5
	schema := rel.Schema{{Name: "K", Type: bat.String}}
	cols := []*bat.BAT{}
	keys := make([]string, n)
	for i, p := range rng.Perm(n) {
		keys[i] = fmt.Sprintf("k%03d", p)
	}
	cols = append(cols, bat.FromStrings(keys))
	for j := 0; j < k; j++ {
		f := make([]float64, n)
		for i := range f {
			f[i] = rng.NormFloat64()
		}
		schema = append(schema, rel.Attr{Name: fmt.Sprintf("x%d", j), Type: bat.Float})
		cols = append(cols, bat.FromFloats(f))
	}
	r := rel.MustNew("r", schema, cols)
	want, err := r.Sort(nil, rel.OrderSpec{Attr: "K"})
	if err != nil {
		t.Fatal(err)
	}
	if want, err = want.Rename(map[string]string{"K": "C"}); err != nil {
		t.Fatal(err)
	}
	for _, o := range identityRuns() {
		once, err := Tra(r, []string{"K"}, o)
		if err != nil {
			t.Fatalf("%s: %v", optsName(o), err)
		}
		twice, err := Tra(once, []string{"C"}, o)
		if err != nil {
			t.Fatalf("%s: %v", optsName(o), err)
		}
		if !relsBitwiseEqual(want, twice) {
			t.Fatalf("%s: tra(tra(r)) is not r: schema %v", optsName(o), twice.Schema.Names())
		}
	}
}

// TestCpdSelfMatchesCopy checks that cpd(A, A), which takes the dense
// kernel's symmetric self case, is bitwise cpd(A, A′) over a distinct
// copy A′ of the same values, on a tall and on a wide (300 columns)
// relation.
func TestCpdSelfMatchesCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, shape := range [][2]int{{600, 6}, {40, 300}} {
		a := randRelation(rng, "a", shape[0], shape[1])
		cp := make([]*bat.BAT, len(a.Cols))
		for k, col := range a.Cols {
			cp[k] = col.Clone()
		}
		acopy := rel.MustNew("a2", a.Schema, cp)
		for _, o := range identityRuns() {
			at := fmt.Sprintf("%dx%d %s", shape[0], shape[1], optsName(o))
			self, err := Cpd(a, []string{"Ka"}, a.WithName("a2"), []string{"Ka"}, o)
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			other, err := Cpd(a, []string{"Ka"}, acopy, []string{"Ka"}, o)
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			if !relsBitwiseEqual(self, other) {
				t.Fatalf("%s: cpd(A, A) differs from cpd(A, A')", at)
			}
		}
	}
}

// absMatrix returns |r| as a row-major matrix in r's key order: the
// absolute values of its Float columns, rows sorted by key.
func absMatrix(t *testing.T, r *rel.Relation, key string) [][]float64 {
	t.Helper()
	s, err := r.Sort(nil, rel.OrderSpec{Attr: key})
	if err != nil {
		t.Fatal(err)
	}
	cols := floatCols(t, s)
	out := make([][]float64, s.NumRows())
	for i := range out {
		out[i] = make([]float64, len(cols))
		for j, c := range cols {
			out[i][j] = math.Abs(c[i])
		}
	}
	return out
}

// mul is the plain triple loop over row-major matrices.
func mul(a, b [][]float64) [][]float64 {
	out := make([][]float64, len(a))
	for i := range a {
		out[i] = make([]float64, len(b[0]))
		for k := range b {
			for j := range b[k] {
				out[i][j] += a[i][k] * b[k][j]
			}
		}
	}
	return out
}

// closeWithin checks that got and want, both sorted by key, share their
// schema and contextual cells and that every float cell (i, j) differs
// by at most tol·bound[i][j], float columns taken in schema order.
func closeWithin(t *testing.T, at, key string, got, want *rel.Relation, tol float64, bound [][]float64) {
	t.Helper()
	var err error
	if got, err = got.Sort(nil, rel.OrderSpec{Attr: key}); err != nil {
		t.Fatal(err)
	}
	if want, err = want.Sort(nil, rel.OrderSpec{Attr: key}); err != nil {
		t.Fatal(err)
	}
	sameContext(t, at, got, want)
	g, w := floatCols(t, got), floatCols(t, want)
	for j := range w {
		for i := range w[j] {
			if d := math.Abs(g[j][i] - w[j][i]); d > tol*bound[i][j] {
				t.Fatalf("%s: cell (%d,%d) %v vs %v differ by %g > %g", at, i, j, g[j][i], w[j][i], d, tol*bound[i][j])
			}
		}
	}
}

// TestMmuAssociativeAndDistributive checks mmu's laws to rounding:
// (AB)C = A(BC) within 2(p+q)·ε·(|A||B||C|)ᵢⱼ, and A(B+B₂) = AB + AB₂
// within 2(p+1)·ε·(|A|(|B|+|B₂|))ᵢⱼ, for A n×p, B and B₂ p×q, C q×m —
// the forward error bound of the inner products on either side.
func TestMmuAssociativeAndDistributive(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const n, p, q, m = 300, 7, 5, 4
	a := randRelation(rng, "a", n, p)
	b := randRelation(rng, "b", p, q)
	b2 := randRelation(rng, "d", p, q)
	c := randRelation(rng, "c", q, m)
	absA, absB, absB2, absC := absMatrix(t, a, "Ka"), absMatrix(t, b, "Kb"), absMatrix(t, b2, "Kd"), absMatrix(t, c, "Kc")
	assocBound := mul(mul(absA, absB), absC)
	sumB := make([][]float64, p)
	for i := range sumB {
		sumB[i] = make([]float64, q)
		for j := range sumB[i] {
			sumB[i][j] = absB[i][j] + absB2[i][j]
		}
	}
	distBound := mul(absA, sumB)
	eps := math.Nextafter(1, 2) - 1
	for _, o := range identityRuns() {
		at := optsName(o)
		must := func(r *rel.Relation, err error) *rel.Relation {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			return r
		}
		ab := must(Mmu(a, []string{"Ka"}, b, []string{"Kb"}, o))
		left := must(Mmu(ab, []string{"Ka"}, c, []string{"Kc"}, o))
		bc := must(Mmu(b, []string{"Kb"}, c, []string{"Kc"}, o))
		right := must(Mmu(a, []string{"Ka"}, bc, []string{"Kb"}, o))
		closeWithin(t, at+" (AB)C vs A(BC)", "Ka", left, right, 2*(p+q)*eps, assocBound)

		sum := must(Add(b, []string{"Kb"}, b2, []string{"Kd"}, o))
		left = must(Mmu(a, []string{"Ka"}, sum, []string{"Kb", "Kd"}, o))
		ab2 := must(Mmu(a, []string{"Ka"}, b2, []string{"Kd"}, o))
		ab2 = must(ab2.Rename(map[string]string{"Ka": "Ka2"}))
		right = must(Add(ab, []string{"Ka"}, ab2, []string{"Ka2"}, o))
		right = must(right.Project(append([]string{"Ka"}, right.Schema.Names()[2:]...)...))
		closeWithin(t, at+" A(B+B2) vs AB+AB2", "Ka", left, right, 2*(p+1)*eps, distBound)
	}
}
