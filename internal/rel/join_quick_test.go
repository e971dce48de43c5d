package rel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bat"
	"repro/internal/exec"
)

// naiveJoin is the nested-loop reference implementation HashJoin is tested
// against: probe rows in r order, matches per probe row in s order, key
// equality by typed value comparison.
func naiveJoin(t *testing.T, r, s *Relation, rKeys, sKeys []string, jt JoinType) *Relation {
	t.Helper()
	rc := make([]*bat.BAT, len(rKeys))
	sc := make([]*bat.BAT, len(sKeys))
	for k := range rKeys {
		var err error
		if rc[k], err = r.Col(rKeys[k]); err != nil {
			t.Fatal(err)
		}
		if sc[k], err = s.Col(sKeys[k]); err != nil {
			t.Fatal(err)
		}
	}
	eq := func(i, j int) bool {
		for k := range rc {
			va, vb := rc[k].Get(i), sc[k].Get(j)
			if va.Type == bat.String || vb.Type == bat.String {
				if va.Type != vb.Type || va.S != vb.S {
					return false
				}
			} else if va.AsFloat() != vb.AsFloat() {
				return false
			}
		}
		return true
	}
	var li, ri []int
	for i := 0; i < r.NumRows(); i++ {
		found := false
		for j := 0; j < s.NumRows(); j++ {
			if eq(i, j) {
				li = append(li, i)
				ri = append(ri, j)
				found = true
			}
		}
		if !found && jt == Left {
			li = append(li, i)
			ri = append(ri, -1)
		}
	}
	dropped := make(map[string]bool, len(sKeys))
	for _, a := range sKeys {
		dropped[a] = true
	}
	left := r.Gather(nil, li)
	schema := left.Schema.Clone()
	cols := append([]*bat.BAT(nil), left.Cols...)
	for _, a := range s.Schema {
		if dropped[a.Name] {
			continue
		}
		c := s.Cols[s.Schema.Index(a.Name)]
		v := bat.NewEmptyVector(c.Type(), len(ri))
		for _, j := range ri {
			if j < 0 {
				switch c.Type() {
				case bat.Float:
					v.Append(bat.FloatValue(0))
				case bat.Int:
					v.Append(bat.IntValue(0))
				case bat.String:
					v.Append(bat.StringValue(""))
				}
				continue
			}
			v.Append(c.Get(j))
		}
		schema = append(schema, a)
		cols = append(cols, bat.FromVector(v))
	}
	out, err := New(r.Name, schema, cols)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// equalRelations compares schema names and every cell; floats compare
// bitwise.
func equalRelations(a, b *Relation) bool {
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		return false
	}
	for k := range a.Schema {
		if a.Schema[k] != b.Schema[k] {
			return false
		}
	}
	for i := 0; i < a.NumRows(); i++ {
		for k := range a.Cols {
			va, vb := a.Cols[k].Get(i), b.Cols[k].Get(i)
			if va.Type != vb.Type {
				return false
			}
			switch va.Type {
			case bat.Float:
				if math.Float64bits(va.F) != math.Float64bits(vb.F) {
					return false
				}
			case bat.Int:
				if va.I != vb.I {
					return false
				}
			case bat.String:
				if va.S != vb.S {
					return false
				}
			}
		}
	}
	return true
}

// TestQuickHashJoinMatchesNaive checks the hash join against
// the nested-loop reference on randomized relations with duplicate keys:
// Inner and Left, single (int) and multi (int, string) key, at worker
// budgets 1, 2, and 8.
func TestQuickHashJoinMatchesNaive(t *testing.T) {
	cases := []struct {
		name  string
		jt    JoinType
		multi bool
	}{
		{"inner-single", Inner, false},
		{"inner-multi", Inner, true},
		{"left-single", Left, false},
		{"left-multi", Left, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				r := randRel(rng, "r", 1+rng.Intn(60))
				s := randRel(rng, "s", 1+rng.Intn(60))
				rKeys, sKeys := []string{"r_k"}, []string{"s_k"}
				if tc.multi {
					rKeys = append(rKeys, "r_t")
					sKeys = append(sKeys, "s_t")
				}
				want := naiveJoin(t, r, s, rKeys, sKeys, tc.jt)
				for _, w := range []int{1, 2, 8} {
					got, err := HashJoin(exec.New(w), r, s, rKeys, sKeys, tc.jt)
					if err != nil || !equalRelations(got, want) {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestHashJoinEmptyInputs pins the degenerate shapes: empty probe, empty
// build (Inner drops everything, Left zero-fills).
func TestHashJoinEmptyInputs(t *testing.T) {
	empty := Empty("r", Schema{{Name: "r_k", Type: bat.Int}, {Name: "r_v", Type: bat.Float}})
	s := MustNew("s", Schema{{Name: "s_k", Type: bat.Int}, {Name: "s_v", Type: bat.Float}},
		[]*bat.BAT{bat.FromInts([]int64{1, 2}), bat.FromFloats([]float64{10, 20})})
	j, err := HashJoin(nil, empty, s, []string{"r_k"}, []string{"s_k"}, Inner)
	if err != nil || j.NumRows() != 0 {
		t.Fatalf("empty probe: %v rows, err %v", j.NumRows(), err)
	}
	sEmpty := Empty("s", Schema{{Name: "s_k", Type: bat.Int}, {Name: "s_v", Type: bat.Float}})
	r := MustNew("r", Schema{{Name: "r_k", Type: bat.Int}},
		[]*bat.BAT{bat.FromInts([]int64{1, 2})})
	if j, err = HashJoin(nil, r, sEmpty, []string{"r_k"}, []string{"s_k"}, Inner); err != nil || j.NumRows() != 0 {
		t.Fatalf("empty build inner: %v rows, err %v", j.NumRows(), err)
	}
	if j, err = HashJoin(nil, r, sEmpty, []string{"r_k"}, []string{"s_k"}, Left); err != nil || j.NumRows() != 2 {
		t.Fatalf("empty build left: %v rows, err %v", j.NumRows(), err)
	}
	v, _ := j.Col("s_v")
	f, _ := v.Floats()
	if f[0] != 0 || f[1] != 0 {
		t.Errorf("left join zero fill = %v", f)
	}
}
