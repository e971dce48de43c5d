package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/rel"
)

// elementwiseSpecials are the values every Float column of
// elementwiseRel carries besides random ones. The two NaN payloads make
// the operand order visible: a sum of two NaNs keeps one of them.
var elementwiseSpecials = []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xfff8_0000_0000_0bad), math.Inf(1), math.Inf(-1)}

// elementwiseRel builds an n-row relation keyed by key, a seed-shuffled
// Int id 0..n-1, with w application columns: Float columns (random
// values with ±0, NaN and ±Inf every few rows), Int columns, or, for
// kind "mixed", the two alternating.
func elementwiseRel(name, key string, n, w int, kind string, seed int64) *rel.Relation {
	rng := rand.New(rand.NewSource(seed))
	ids := make([]int64, n)
	for i, p := range rng.Perm(n) {
		ids[i] = int64(p)
	}
	schema := rel.Schema{{Name: key, Type: bat.Int}}
	cols := []*bat.BAT{bat.FromInts(ids)}
	for j := 0; j < w; j++ {
		attr := fmt.Sprintf("%s%02d", name, j)
		if kind == "int" || (kind == "mixed" && j%2 == 1) {
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = int64(rng.Intn(2001) - 1000)
			}
			schema, cols = append(schema, rel.Attr{Name: attr, Type: bat.Int}), append(cols, bat.FromInts(xs))
			continue
		}
		f := make([]float64, n)
		for i := range f {
			f[i] = rng.NormFloat64() * 10
			if rng.Intn(4) == 0 {
				f[i] = elementwiseSpecials[rng.Intn(len(elementwiseSpecials))]
			}
		}
		schema, cols = append(schema, rel.Attr{Name: attr, Type: bat.Float}), append(cols, bat.FromFloats(f))
	}
	return rel.MustNew(name, schema, cols)
}

// gatherThenKernel is the elementwise route the permuted-read kernels
// replaced, written out: the rows of r and s that meet in each result
// row, the application columns gathered into that order as floats, and
// the two gathered columns combined row by row. Under SortFull result row
// k pairs the rows of both arguments holding id k; under SortOptimized
// r's rows stay in input order and s's row with the same id joins each.
func gatherThenKernel(op Op, r, s *rel.Relation, mode SortMode) *rel.Relation {
	n := r.NumRows()
	rk, sk := r.Cols[0].Vector().Ints(), s.Cols[0].Vector().Ints()
	rowOfR, rowOfS := make([]int, n), make([]int, n)
	for i := 0; i < n; i++ {
		rowOfR[rk[i]], rowOfS[sk[i]] = i, i
	}
	ia, ib := make([]int, n), make([]int, n)
	for k := 0; k < n; k++ {
		if mode == SortFull {
			ia[k], ib[k] = rowOfR[k], rowOfS[k]
		} else {
			ia[k], ib[k] = k, rowOfS[rk[k]]
		}
	}
	schema := rel.Schema{r.Schema[0], s.Schema[0]}
	cols := []*bat.BAT{r.Cols[0].Gather(nil, ia), s.Cols[0].Gather(nil, ib)}
	for j := 1; j < r.NumCols(); j++ {
		fa, _ := r.Cols[j].Gather(nil, ia).Floats()
		fb, _ := s.Cols[j].Gather(nil, ib).Floats()
		out := make([]float64, n)
		for k := range out {
			switch op {
			case OpADD:
				out[k] = fa[k] + fb[k]
			case OpSUB:
				out[k] = fa[k] - fb[k]
			default:
				out[k] = fa[k] * fb[k]
			}
		}
		schema = append(schema, rel.Attr{Name: r.Schema[j].Name, Type: bat.Float})
		cols = append(cols, bat.FromFloats(out))
	}
	return rel.MustNew(r.Name, schema, cols)
}

// TestElementwisePermutedReadBitwise holds ADD, SUB and EMU, whose BAT
// kernels read each argument through its sort permutation instead of
// gathering it, bit for bit to the gather-then-kernel route written out
// in gatherThenKernel and to the dense policy: over seed-shuffled
// Int-keyed relations of 40 and 3·SerialCutoff+5 rows, one and ten
// Float, Int or mixed application columns with ±0, NaN and ±Inf, under
// SortFull (both arguments permuted) and SortOptimized (the first in
// place, the second aligned to it), at workers 1, 2 and 8.
func TestElementwisePermutedReadBitwise(t *testing.T) {
	ops := []struct {
		op  Op
		run func(*rel.Relation, []string, *rel.Relation, []string, *Options) (*rel.Relation, error)
	}{{OpADD, Add}, {OpSUB, Sub}, {OpEMU, Emu}}
	for _, n := range []int{40, 3*bat.SerialCutoff + 5} {
		for _, w := range []int{1, 10} {
			for _, kind := range []string{"float", "int", "mixed"} {
				r := elementwiseRel("r", "kr", n, w, kind, int64(n+w))
				s := elementwiseRel("s", "ks", n, w, kind, int64(n+w+1))
				for _, tc := range ops {
					for _, mode := range []SortMode{SortFull, SortOptimized} {
						want := gatherThenKernel(tc.op, r, s, mode)
						for _, workers := range []int{1, 2, 8} {
							at := fmt.Sprintf("%s n=%d w=%d %s mode=%d workers=%d", tc.op, n, w, kind, mode, workers)
							got, err := tc.run(r, []string{"kr"}, s, []string{"ks"}, &Options{Policy: PolicyBAT, SortMode: mode, Parallelism: workers})
							if err != nil {
								t.Fatalf("%s: %v", at, err)
							}
							dense, err := tc.run(r, []string{"kr"}, s, []string{"ks"}, &Options{Policy: PolicyDense, SortMode: mode, Parallelism: workers})
							if err != nil {
								t.Fatalf("%s dense: %v", at, err)
							}
							if err := sameBits(got, want); err != nil {
								t.Fatalf("%s: against gather-then-kernel: %v", at, err)
							}
							if err := sameBits(got, dense); err != nil {
								t.Fatalf("%s: against the dense policy: %v", at, err)
							}
						}
					}
				}
			}
		}
	}
}

// TestElementwiseOfEmptyRelations holds ADD, SUB and EMU of two empty
// relations to the empty relation of shape (r*,c*): both order schemas,
// then the first argument's application schema, under every policy and
// sort mode, as TRA of an empty relation already is. The other binary
// operations keep rejecting an empty argument.
func TestElementwiseOfEmptyRelations(t *testing.T) {
	empty := func(name, key string) *rel.Relation {
		return rel.MustNew(name, rel.Schema{{Name: key, Type: bat.Int}, {Name: name + "x", Type: bat.Float}, {Name: name + "y", Type: bat.Int}},
			[]*bat.BAT{bat.FromInts(nil), bat.FromFloats(nil), bat.FromInts(nil)})
	}
	r, s := empty("r", "kr"), empty("s", "ks")
	ops := []struct {
		op  Op
		run func(*rel.Relation, []string, *rel.Relation, []string, *Options) (*rel.Relation, error)
	}{{OpADD, Add}, {OpSUB, Sub}, {OpEMU, Emu}}
	for _, tc := range ops {
		for _, p := range []Policy{PolicyAuto, PolicyBAT, PolicyDense} {
			for _, mode := range []SortMode{SortFull, SortOptimized} {
				at := fmt.Sprintf("%s %v mode=%d", tc.op, p, mode)
				got, err := tc.run(r, []string{"kr"}, s, []string{"ks"}, &Options{Policy: p, SortMode: mode})
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				if names := fmt.Sprint(got.Schema.Names()); got.NumRows() != 0 || names != "[kr ks rx ry]" {
					t.Errorf("%s: %d rows of %s, want 0 rows of [kr ks rx ry]", at, got.NumRows(), names)
				}
			}
		}
	}
	for _, tc := range []struct {
		run  func(*rel.Relation, []string, *rel.Relation, []string, *Options) (*rel.Relation, error)
		want string
	}{
		{Mmu, "rma: mmu inner dimensions: 2 application attributes vs 0 rows"},
		{Opd, "rma: opd over an empty relation"},
		{Cpd, "rma: cpd over an empty relation"},
		{Sol, "rma: sol needs a single application attribute on the right, got 2"},
	} {
		if _, err := tc.run(r, []string{"kr"}, s, []string{"ks"}, nil); err == nil || err.Error() != tc.want {
			t.Errorf("error %v, want %q", err, tc.want)
		}
	}
}
