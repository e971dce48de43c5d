package bat

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestValueOrdering(t *testing.T) {
	if !FloatValue(1).Less(FloatValue(2)) {
		t.Error("1.0 < 2.0 expected")
	}
	if FloatValue(2).Less(FloatValue(2)) {
		t.Error("2.0 < 2.0 unexpected")
	}
	if !IntValue(-5).Less(IntValue(0)) {
		t.Error("-5 < 0 expected")
	}
	if !StringValue("a").Less(StringValue("b")) {
		t.Error(`"a" < "b" expected`)
	}
	if !FloatValue(9).Less(IntValue(-9)) {
		t.Error("cross-type order: Float tag sorts before Int tag")
	}
	if FloatValue(1).Equal(IntValue(1)) {
		t.Error("values of different types are not equal")
	}
	if !StringValue("x").Equal(StringValue("x")) {
		t.Error(`"x" == "x" expected`)
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{FloatValue(1.5), "1.5"},
		{IntValue(-7), "-7"},
		{StringValue("Ann"), "Ann"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestVectorBasics(t *testing.T) {
	v := NewFloatVector([]float64{3, 1, 2})
	if v.Len() != 3 || v.Type() != Float {
		t.Fatalf("Len/Type = %d/%v", v.Len(), v.Type())
	}
	if got := v.Get(1); got.F != 1 {
		t.Errorf("Get(1) = %v", got)
	}
	v.Set(1, FloatValue(9))
	if v.Floats()[1] != 9 {
		t.Errorf("Set did not write")
	}
	v.Append(FloatValue(4))
	if v.Len() != 4 {
		t.Errorf("Append length = %d", v.Len())
	}
	c := v.Clone()
	c.Set(0, FloatValue(-1))
	if v.Floats()[0] == -1 {
		t.Error("Clone shares storage")
	}
}

func TestVectorGather(t *testing.T) {
	v := NewStringVector([]string{"a", "b", "c", "d"})
	g := v.Gather(nil, []int{3, 1, 1})
	want := []string{"d", "b", "b"}
	for k, s := range g.Strings() {
		if s != want[k] {
			t.Errorf("gather[%d] = %q, want %q", k, s, want[k])
		}
	}
}

// TestGatherPadded gathers each domain into a View in the middle of a
// larger vector, as a join writes one morsel's block at its offset:
// index -1 writes the zero value, and nothing outside the view moves.
func TestGatherPadded(t *testing.T) {
	idx := []int{2, -1, 0, 0, -1}
	for _, v := range []*Vector{
		NewFloatVector([]float64{1.5, -2, 3}),
		NewIntVector([]int64{7, 8, 9}),
		NewStringVector([]string{"x", "y", "z"}),
	} {
		dst := NewVectorCtx(nil, v.Type(), len(idx)+2)
		for k := 0; k < dst.Len(); k++ {
			dst.Set(k, v.Get(1))
		}
		v.GatherPadded(dst.View(1, 1+len(idx)), idx)
		zero := NewEmptyVector(v.Type(), 1)
		zero.Append(Value{Type: v.Type()})
		for k := 0; k < dst.Len(); k++ {
			want := v.Get(1)
			if k >= 1 && k <= len(idx) {
				if j := idx[k-1]; j >= 0 {
					want = v.Get(j)
				} else {
					want = zero.Get(0)
				}
			}
			if dst.Get(k) != want {
				t.Fatalf("%v: dst[%d] = %v, want %v", v.Type(), k, dst.Get(k), want)
			}
		}
	}
}

func TestVectorAsFloats(t *testing.T) {
	iv := NewIntVector([]int64{1, 2, 3})
	f, shared := iv.AsFloats()
	if shared {
		t.Error("int conversion must not be shared")
	}
	if f[2] != 3.0 {
		t.Errorf("AsFloats int = %v", f)
	}
	fv := NewFloatVector([]float64{1.5})
	f2, shared2 := fv.AsFloats()
	if !shared2 || f2[0] != 1.5 {
		t.Errorf("AsFloats float shared=%v val=%v", shared2, f2)
	}
}

func TestVectorTypePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on Floats() of string vector")
		}
	}()
	NewStringVector([]string{"x"}).Floats()
}

func TestBATKernels(t *testing.T) {
	a := FromFloats([]float64{1, 2, 3})
	b := FromFloats([]float64{10, 20, 30})
	check := func(name string, got *BAT, want []float64) {
		t.Helper()
		f, err := got.Floats()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for k := range want {
			if f[k] != want[k] {
				t.Errorf("%s[%d] = %v, want %v", name, k, f[k], want[k])
			}
		}
	}
	check("add", Add(nil, a, nil, b, nil), []float64{11, 22, 33})
	check("sub", Sub(nil, b, nil, a, nil), []float64{9, 18, 27})
	check("mul", Mul(nil, a, nil, b, nil), []float64{10, 40, 90})
	check("addScalar", AddScalar(nil, a, 1), []float64{2, 3, 4})
	check("mulScalar", MulScalar(nil, a, 2), []float64{2, 4, 6})
	check("divScalar", DivScalar(nil, b, 10), []float64{1, 2, 3})
	axpy := append([]float64(nil), 10, 20, 30)
	AXPYInto(nil, axpy, a, 2)
	check("axpyInto", FromFloats(axpy), []float64{8, 16, 24})
	if s := Sum(nil, a); s != 6 {
		t.Errorf("Sum = %v", s)
	}
	if d := Dot(nil, a, b); d != 140 {
		t.Errorf("Dot = %v", d)
	}
	if v := Sel(b, 2); v != 30 {
		t.Errorf("Sel = %v", v)
	}
}

func TestBATIntTail(t *testing.T) {
	a := FromInts([]int64{1, 2, 3})
	if s := Sum(nil, a); s != 6 {
		t.Errorf("int Sum = %v", s)
	}
	f, err := a.Floats()
	if err != nil || f[1] != 2 {
		t.Errorf("int Floats = %v, %v", f, err)
	}
	if _, err := FromStrings([]string{"x"}).Floats(); err == nil {
		t.Error("string Floats should error")
	}
}

func TestSortIndexSingleKey(t *testing.T) {
	b := FromFloats([]float64{3, 1, 2, 1})
	idx := SortIndex(nil, []*BAT{b})
	want := []int{1, 3, 2, 0} // stable: the two 1s keep input order
	for k := range want {
		if idx[k] != want[k] {
			t.Fatalf("idx = %v, want %v", idx, want)
		}
	}
	if KeyUnique([]*BAT{b}, idx) {
		t.Error("column with duplicates reported as key")
	}
}

func TestSortIndexMultiKey(t *testing.T) {
	a := FromStrings([]string{"b", "a", "b", "a"})
	c := FromInts([]int64{1, 2, 0, 1})
	idx := SortIndex(nil, []*BAT{a, c})
	want := []int{3, 1, 2, 0} // (a,1),(a,2),(b,0),(b,1)
	for k := range want {
		if idx[k] != want[k] {
			t.Fatalf("idx = %v, want %v", idx, want)
		}
	}
	if !KeyUnique([]*BAT{a, c}, idx) {
		t.Error("unique pair columns not recognized as key")
	}
}

func TestSortIndexIntAndString(t *testing.T) {
	bi := FromInts([]int64{5, -1, 3})
	if idx := SortIndex(nil, []*BAT{bi}); idx[0] != 1 || idx[1] != 2 || idx[2] != 0 {
		t.Errorf("int sort idx = %v", idx)
	}
	bs := FromStrings([]string{"pear", "apple", "fig"})
	if idx := SortIndex(nil, []*BAT{bs}); idx[0] != 1 || idx[1] != 2 || idx[2] != 0 {
		t.Errorf("string sort idx = %v", idx)
	}
}

func TestIsSortedIndexAndIdentity(t *testing.T) {
	if !IsSortedIndex(Identity(nil, 5)) {
		t.Error("identity should be sorted")
	}
	if IsSortedIndex([]int{0, 2, 1}) {
		t.Error("permutation reported sorted")
	}
	if SortIndex(nil, nil) != nil {
		t.Error("SortIndex(nil) should be nil")
	}
}

func TestSparseRoundTrip(t *testing.T) {
	dense := []float64{0, 1.5, 0, 0, -2, 0}
	sp := Compress(dense)
	if sp.Len() != 6 || len(sp.val) != 2 {
		t.Fatalf("Len/NNZ = %d/%d", sp.Len(), len(sp.val))
	}
	back := sp.Densify(nil)
	for k := range dense {
		if back[k] != dense[k] {
			t.Fatalf("round trip mismatch at %d: %v vs %v", k, back[k], dense[k])
		}
	}
	if sp.Get(1) != 1.5 || sp.Get(0) != 0 {
		t.Errorf("Get = %v, %v", sp.Get(1), sp.Get(0))
	}
	if sp.Sum(nil) != -0.5 {
		t.Errorf("Sum = %v", sp.Sum(nil))
	}
}

func TestSparseGather(t *testing.T) {
	sp := Compress([]float64{0, 1, 0, 3})
	g := sp.Gather(nil, []int{3, 0, 1})
	want := []float64{3, 0, 1}
	got := g.Densify(nil)
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("gather = %v, want %v", got, want)
		}
	}
}

func TestSparseAddMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(n int) bool {
		if n < 0 {
			n = -n
		}
		n = n%200 + 1
		a := make([]float64, n)
		b := make([]float64, n)
		for k := 0; k < n; k++ {
			if rng.Intn(3) == 0 {
				a[k] = rng.Float64()*10 - 5
			}
			if rng.Intn(3) == 0 {
				b[k] = rng.Float64()*10 - 5
			}
		}
		got := SparseAdd(nil, Compress(a), Compress(b)).Densify(nil)
		for k := 0; k < n; k++ {
			if math.Abs(got[k]-(a[k]+b[k])) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSparseAddViaBAT(t *testing.T) {
	a := FromSparse(Compress([]float64{0, 1, 0}))
	b := FromSparse(Compress([]float64{2, 0, 0}))
	sum := Add(nil, a, nil, b, nil)
	if !sum.IsSparse() {
		t.Error("sparse+sparse should stay sparse")
	}
	f, _ := sum.Floats()
	if f[0] != 2 || f[1] != 1 || f[2] != 0 {
		t.Errorf("sparse add = %v", f)
	}
	// Cancellation removes the entry.
	c := FromSparse(Compress([]float64{0, -1, 0}))
	z := Add(nil, a, nil, c, nil)
	if len(z.Sparse().val) != 0 {
		t.Errorf("cancellation kept %d entries", len(z.Sparse().val))
	}
}

func TestSparseBATOps(t *testing.T) {
	sp := FromSparse(Compress([]float64{0, 4, 0, 6}))
	if sp.Type() != Float || sp.Len() != 4 {
		t.Fatalf("Type/Len = %v/%d", sp.Type(), sp.Len())
	}
	if got := sp.Get(3); got.F != 6 {
		t.Errorf("Get(3) = %v", got)
	}
	if Sel(sp, 1) != 4 {
		t.Errorf("Sel = %v", Sel(sp, 1))
	}
	g := sp.Gather(nil, []int{1, 3})
	if f, _ := g.Floats(); f[0] != 4 || f[1] != 6 {
		t.Errorf("gather floats = %v", f)
	}
	cl := sp.Clone()
	if !cl.IsSparse() || cl.Len() != 4 {
		t.Error("sparse clone broken")
	}
	v := sp.Vector()
	if v.Len() != 4 || v.Floats()[1] != 4 {
		t.Error("sparse Vector() densify broken")
	}
	// Dense + sparse mixes densify transparently.
	d := FromFloats([]float64{1, 1, 1, 1})
	f, _ := Add(nil, sp, nil, d, nil).Floats()
	if f[0] != 1 || f[1] != 5 {
		t.Errorf("mixed add = %v", f)
	}
}

// Property: Gather(SortIndex) yields an ordered column, and the multiset of
// values is preserved.
func TestSortGatherProperty(t *testing.T) {
	f := func(xs []float64) bool {
		for k, x := range xs {
			if math.IsNaN(x) {
				xs[k] = 0
			}
		}
		b := FromFloats(xs)
		idx := SortIndex(nil, []*BAT{b})
		g, _ := b.Gather(nil, idx).Floats()
		want := append([]float64(nil), xs...)
		sort.Float64s(want)
		if len(g) != len(want) {
			return false
		}
		for k := range want {
			if g[k] != want[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
