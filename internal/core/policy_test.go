package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/batlin"
	"repro/internal/linalg"
	"repro/internal/rel"
)

// policyTol is the agreement bound between the BAT-native and the dense
// policy for every op outside the bitwise family: an element may differ
// by policyTol·(1 + the largest magnitude in the dense result). The two
// policies sum in different orders (chunked column dot products against
// the dense kernels' one ascending accumulator per element), and the
// factorizations differ outright (Gauss-Jordan vs LU, Gram-Schmidt vs
// Householder), so only rounding separates them on the
// well-conditioned inputs below.
const policyTol = 1e-9

// squareRel builds an n×n relation, rows in shuffled key order, whose
// application part ordered by the key is strictly diagonally dominant
// (so INV, DET and square SOL are well conditioned).
func squareRel(rng *rand.Rand, n int) *rel.Relation {
	schema := rel.Schema{{Name: "Kq", Type: bat.Int}}
	for j := 0; j < n; j++ {
		schema = append(schema, rel.Attr{Name: fmt.Sprintf("q%02d", j), Type: bat.Float})
	}
	b := rel.NewBuilder("q", schema)
	for _, i := range rng.Perm(n) {
		vals := []bat.Value{bat.IntValue(int64(i))}
		for j := 0; j < n; j++ {
			v := rng.NormFloat64()
			if i == j {
				v += float64(2 * n)
			}
			vals = append(vals, bat.FloatValue(v))
		}
		b.MustAdd(vals...)
	}
	return b.Relation()
}

// floatCols returns the float columns of a result relation.
func floatCols(t *testing.T, r *rel.Relation) [][]float64 {
	t.Helper()
	var out [][]float64
	for k, attr := range r.Schema {
		if attr.Type != bat.Float {
			continue
		}
		f, err := r.Cols[k].Floats()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f)
	}
	return out
}

// sameContext checks that two results have the same schema and the
// same non-float (contextual) cells.
func sameContext(t *testing.T, name string, got, want *rel.Relation) {
	t.Helper()
	if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for k := range want.Schema {
		if got.Schema[k] != want.Schema[k] {
			t.Fatalf("%s: attribute %d is %v, want %v", name, k, got.Schema[k], want.Schema[k])
		}
		if want.Schema[k].Type == bat.Float {
			continue
		}
		for i := 0; i < want.NumRows(); i++ {
			if !got.Cols[k].Get(i).Equal(want.Cols[k].Get(i)) {
				t.Fatalf("%s: context cell (%d,%d) = %v, want %v", name, i, k, got.Cols[k].Get(i), want.Cols[k].Get(i))
			}
		}
	}
}

// closeCols checks float columns element-wise within policyTol.
func closeCols(t *testing.T, name string, got, want [][]float64) {
	t.Helper()
	scale := 0.0
	for _, col := range want {
		for _, v := range col {
			scale = math.Max(scale, math.Abs(v))
		}
	}
	bound := policyTol * (1 + scale)
	for j := range want {
		for i := range want[j] {
			if d := math.Abs(got[j][i] - want[j][i]); !(d <= bound) {
				t.Fatalf("%s: element (%d,%d) = %v, want %v (|diff| %.3g > %.3g)", name, i, j, got[j][i], want[j][i], d, bound)
			}
		}
	}
}

// positiveDiagonal flips the signs of R's rows and Q's columns so that
// R's diagonal is non-negative: Gram-Schmidt always yields a positive
// diagonal, Householder picks the sign that avoids cancellation.
func positiveDiagonal(q, r [][]float64) {
	for k := range r {
		if r[k][k] >= 0 {
			continue
		}
		for j := range r { // row k of R lives at index k of every column
			r[j][k] = -r[j][k]
		}
		for i := range q[k] {
			q[k][i] = -q[k][i]
		}
	}
}

type policyRun func(*Options) (*rel.Relation, error)

// runPolicy runs op under one policy and asserts which engine computed
// the base result, so an agreement never compares a path with itself.
func runPolicy(t *testing.T, name string, op policyRun, p Policy, workers int) *rel.Relation {
	t.Helper()
	st := &Stats{}
	res, err := op(&Options{Policy: p, Parallelism: workers, Stats: st})
	if err != nil {
		t.Fatalf("%s %v workers=%d: %v", name, p, workers, err)
	}
	if st.UsedDense != (p == PolicyDense) {
		t.Fatalf("%s %v workers=%d: UsedDense = %v", name, p, workers, st.UsedDense)
	}
	return res
}

// TestPolicyAgreement is the policy-agreement law over every op with
// both a BAT-native and a dense implementation: PolicyBAT and
// PolicyDense agree bitwise on ADD, SUB, EMU and TRA, and within
// policyTol on MMU, CPD (self and not), OPD, SOL (square and
// overdetermined), INV, DET, and QQR/RQR after normalising R's diagonal
// to be positive. Keys are shuffled, so both policies really sort.
func TestPolicyAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	r := randRelation(rng, "r", 40, 4)
	s := randRelation(rng, "s", 40, 4)
	m4 := randRelation(rng, "m", 4, 3)
	od := randRelation(rng, "o", 30, 4)
	v := randRelation(rng, "v", 40, 1)
	sq := squareRel(rng, 6)
	v6 := randRelation(rng, "w", 6, 1)
	kr, ks, kq := []string{"Kr"}, []string{"Ks"}, []string{"Kq"}

	bitwise := []struct {
		name string
		op   policyRun
	}{
		{"add", func(o *Options) (*rel.Relation, error) { return Add(r, kr, s, ks, o) }},
		{"sub", func(o *Options) (*rel.Relation, error) { return Sub(r, kr, s, ks, o) }},
		{"emu", func(o *Options) (*rel.Relation, error) { return Emu(r, kr, s, ks, o) }},
		{"tra", func(o *Options) (*rel.Relation, error) { return Tra(r, kr, o) }},
	}
	bounded := []struct {
		name string
		op   policyRun
	}{
		{"mmu", func(o *Options) (*rel.Relation, error) { return Mmu(r, kr, m4, []string{"Km"}, o) }},
		{"cpd", func(o *Options) (*rel.Relation, error) { return Cpd(r, kr, s, ks, o) }},
		{"cpd-self", func(o *Options) (*rel.Relation, error) { return Cpd(r, kr, r, kr, o) }},
		{"opd", func(o *Options) (*rel.Relation, error) { return Opd(r, kr, od, []string{"Ko"}, o) }},
		{"sol", func(o *Options) (*rel.Relation, error) { return Sol(r, kr, v, []string{"Kv"}, o) }},
		{"sol-square", func(o *Options) (*rel.Relation, error) { return Sol(sq, kq, v6, []string{"Kw"}, o) }},
		{"inv", func(o *Options) (*rel.Relation, error) { return Inv(sq, kq, o) }},
		{"det", func(o *Options) (*rel.Relation, error) { return Det(sq, kq, o) }},
	}
	for _, workers := range []int{1, 2, 8} {
		for _, tc := range bitwise {
			got := runPolicy(t, tc.name, tc.op, PolicyBAT, workers)
			want := runPolicy(t, tc.name, tc.op, PolicyDense, workers)
			if !relsBitwiseEqual(got, want) {
				t.Fatalf("%s workers=%d: PolicyBAT and PolicyDense differ in bits", tc.name, workers)
			}
		}
		for _, tc := range bounded {
			got := runPolicy(t, tc.name, tc.op, PolicyBAT, workers)
			want := runPolicy(t, tc.name, tc.op, PolicyDense, workers)
			sameContext(t, tc.name, got, want)
			closeCols(t, fmt.Sprintf("%s workers=%d", tc.name, workers), floatCols(t, got), floatCols(t, want))
		}
		var qRels, rRels [2]*rel.Relation
		var q, rr [2][][]float64
		for k, p := range []Policy{PolicyBAT, PolicyDense} {
			qRels[k] = runPolicy(t, "qqr", func(o *Options) (*rel.Relation, error) { return Qqr(r, kr, o) }, p, workers)
			rRels[k] = runPolicy(t, "rqr", func(o *Options) (*rel.Relation, error) { return Rqr(r, kr, o) }, p, workers)
			q[k], rr[k] = floatCols(t, qRels[k]), floatCols(t, rRels[k])
			positiveDiagonal(q[k], rr[k])
		}
		sameContext(t, "qqr", qRels[0], qRels[1])
		sameContext(t, "rqr", rRels[0], rRels[1])
		closeCols(t, fmt.Sprintf("qqr workers=%d", workers), q[0], q[1])
		closeCols(t, fmt.Sprintf("rqr workers=%d", workers), rr[0], rr[1])
	}
}

// intRel builds an n-row relation in shuffled key order whose
// application columns hold small integers, then fills column dep as the
// exact sum of columns 0 and 1 (rank deficient) or, with zero, as an
// exactly zero column.
func intRel(rng *rand.Rand, key string, n, k, dep int, zero bool) *rel.Relation {
	schema := rel.Schema{{Name: key, Type: bat.Int}}
	for j := 0; j < k; j++ {
		schema = append(schema, rel.Attr{Name: fmt.Sprintf("%s%02d", key, j), Type: bat.Float})
	}
	b := rel.NewBuilder(key, schema)
	for _, i := range rng.Perm(n) {
		row := make([]float64, k)
		for j := range row {
			row[j] = float64(rng.Intn(11) - 5)
		}
		row[dep] = row[0] + row[1]
		if zero {
			row[dep] = 0
		}
		vals := []bat.Value{bat.IntValue(int64(i))}
		for _, v := range row {
			vals = append(vals, bat.FloatValue(v))
		}
		b.MustAdd(vals...)
	}
	return b.Relation()
}

// TestPolicyAgreementRankDeficient pins where the two policies part on
// singular input instead of excluding it from the law. Gram-Schmidt
// (batlin.QR) refuses a column whose residual norm falls to 1e-12 of
// its own, so BAT QQR, RQR and SOL fail with batlin.ErrSingular on a
// rank-deficient input. Householder QR factors any input, so dense QQR
// and RQR succeed, and dense SOL fails with linalg.ErrSingular only when
// a reflected column is exactly zero.
func TestPolicyAgreementRankDeficient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dep := intRel(rng, "Kd", 12, 3, 2, false) // column 2 = column 0 + column 1
	zero := intRel(rng, "Kz", 12, 3, 1, true) // column 1 = 0
	rhs := randRelation(rng, "b", 12, 1)
	for _, workers := range []int{1, 2, 8} {
		batOpts := &Options{Policy: PolicyBAT, Parallelism: workers}
		denseOpts := &Options{Policy: PolicyDense, Parallelism: workers}
		for _, in := range []struct {
			name string
			r    *rel.Relation
			key  string
		}{{"dependent", dep, "Kd"}, {"zero column", zero, "Kz"}} {
			k := []string{in.key}
			if _, err := Qqr(in.r, k, batOpts); !errors.Is(err, batlin.ErrSingular) {
				t.Fatalf("%s: BAT qqr err = %v, want batlin.ErrSingular", in.name, err)
			}
			if _, err := Rqr(in.r, k, batOpts); !errors.Is(err, batlin.ErrSingular) {
				t.Fatalf("%s: BAT rqr err = %v, want batlin.ErrSingular", in.name, err)
			}
			if _, err := Sol(in.r, k, rhs, []string{"Kb"}, batOpts); !errors.Is(err, batlin.ErrSingular) {
				t.Fatalf("%s: BAT sol err = %v, want batlin.ErrSingular", in.name, err)
			}
			if _, err := Qqr(in.r, k, denseOpts); err != nil {
				t.Fatalf("%s: dense qqr: %v", in.name, err)
			}
			rRel, err := Rqr(in.r, k, denseOpts)
			if err != nil {
				t.Fatalf("%s: dense rqr: %v", in.name, err)
			}
			// The deficiency shows as a (near-)zero last diagonal of R.
			if d := math.Abs(floatCols(t, rRel)[2][2]); in.name == "dependent" && d > 1e-12 {
				t.Fatalf("%s: dense R[2][2] = %v, want ~0", in.name, d)
			}
		}
		if _, err := Sol(zero, []string{"Kz"}, rhs, []string{"Kb"}, denseOpts); !errors.Is(err, linalg.ErrSingular) {
			t.Fatalf("zero column: dense sol err = %v, want linalg.ErrSingular", err)
		}
		if _, err := Sol(dep, []string{"Kd"}, rhs, []string{"Kb"}, denseOpts); err != nil {
			t.Fatalf("dependent: dense sol err = %v, want a (meaningless) solution", err)
		}
	}
}
