package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/bat"
	"repro/internal/rel"
)

// shuffledRows returns r with its rows in a seeded random order.
func shuffledRows(r *rel.Relation, seed int64) *rel.Relation {
	return r.Gather(nil, rand.New(rand.NewSource(seed)).Perm(r.NumRows()))
}

// pairKeyed replaces r's Int key column key, which holds 0..n-1, by an
// (Int, String) pair that is a key in the same order: key/3, and "a",
// "b" or "c" for key%3 = 0, 1, 2, so the string breaks the Int's ties
// (and an SPD argument stays SPD). It returns the relation and its
// order schema.
func pairKeyed(r *rel.Relation, key string) (*rel.Relation, []string) {
	col, err := r.Col(key)
	if err != nil {
		panic(err)
	}
	ks := col.Vector().Ints()
	grp, tag := make([]int64, len(ks)), make([]string, len(ks))
	for i, k := range ks {
		grp[i], tag[i] = k/3, string(rune('a'+k%3))
	}
	order := []string{"G" + key, "S" + key}
	schema := rel.Schema{{Name: order[0], Type: bat.Int}, {Name: order[1], Type: bat.String}}
	cols := []*bat.BAT{bat.FromInts(grp), bat.FromStrings(tag)}
	for j, a := range r.Schema {
		if a.Name != key {
			schema, cols = append(schema, a), append(cols, r.Cols[j])
		}
	}
	return rel.MustNew(r.Name, schema, cols), order
}

// TestRowPermutationInvariance is the law that a relation has no row
// order: shuffling the rows of every argument leaves the result of each
// of the 19 operations bitwise equal — schema, row order and every bit —
// under both policies, at workers 1, 2 and 8, with the default SortFull.
// Every argument is ordered once by its Int key (the radix sort) and
// once by an (Int, String) pair (the merge sort); an operation whose
// result columns are a column cast of an order schema rejects the pair,
// and must reject it alike.
func TestRowPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	inputs := map[string]*rel.Relation{
		"Kr": randRelation(rng, "r", 40, 4),
		"Ks": randRelation(rng, "s", 40, 4),
		"Km": randRelation(rng, "m", 4, 3),
		"Ko": randRelation(rng, "o", 30, 4),
		"Kv": randRelation(rng, "v", 40, 1),
		"Kq": squareRel(rng, 6),
		"K":  spdRelation(rng, 6),
	}
	ops := []struct {
		name string
		args []string // the key of each argument
		run  func(rs []*rel.Relation, keys [][]string, o *Options) (*rel.Relation, error)
	}{
		{"emu", []string{"Kr", "Ks"}, binaryRun(Emu)},
		{"mmu", []string{"Kr", "Km"}, binaryRun(Mmu)},
		{"opd", []string{"Kr", "Ko"}, binaryRun(Opd)},
		{"cpd", []string{"Kr", "Ks"}, binaryRun(Cpd)},
		{"add", []string{"Kr", "Ks"}, binaryRun(Add)},
		{"sub", []string{"Kr", "Ks"}, binaryRun(Sub)},
		{"tra", []string{"Kr"}, unaryRun(Tra)},
		{"sol", []string{"Kr", "Kv"}, binaryRun(Sol)},
		{"inv", []string{"Kq"}, unaryRun(Inv)},
		{"evc", []string{"K"}, unaryRun(Evc)},
		{"evl", []string{"K"}, unaryRun(Evl)},
		{"qqr", []string{"Kr"}, unaryRun(Qqr)},
		{"rqr", []string{"Kr"}, unaryRun(Rqr)},
		{"dsv", []string{"Kr"}, unaryRun(Dsv)},
		{"usv", []string{"Kr"}, unaryRun(Usv)},
		{"vsv", []string{"Kr"}, unaryRun(Vsv)},
		{"det", []string{"Kq"}, unaryRun(Det)},
		{"rnk", []string{"Kr"}, unaryRun(Rnk)},
		{"chf", []string{"K"}, unaryRun(Chf)},
	}
	if len(ops) != len(Ops) {
		t.Fatalf("%d operations under test, want all %d", len(ops), len(Ops))
	}
	for _, pair := range []bool{false, true} {
		for _, tc := range ops {
			rs, shuf := make([]*rel.Relation, len(tc.args)), make([]*rel.Relation, len(tc.args))
			keys := make([][]string, len(tc.args))
			for k, key := range tc.args {
				rs[k], keys[k] = inputs[key], []string{key}
				if pair {
					rs[k], keys[k] = pairKeyed(rs[k], key)
				}
				shuf[k] = shuffledRows(rs[k], int64(31*k+len(key)))
			}
			col := ShapeOf(Op(tc.name)).Col
			cast := pair && (col == DimR1 || col == DimR2)
			for _, p := range []Policy{PolicyBAT, PolicyDense} {
				for _, workers := range []int{1, 2, 8} {
					name := fmt.Sprintf("%s order=%v %v workers=%d", tc.name, keys, p, workers)
					want, wantErr := tc.run(rs, keys, &Options{Policy: p, Parallelism: workers})
					got, err := tc.run(shuf, keys, &Options{Policy: p, Parallelism: workers})
					if cast {
						if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
							t.Fatalf("%s: error %v on the input, %v on its shuffle, want the column cast's", name, wantErr, err)
						}
						continue
					}
					if wantErr != nil || err != nil {
						t.Fatalf("%s: error %v on the input, %v on its shuffle", name, wantErr, err)
					}
					if !relsBitwiseEqual(got, want) {
						t.Fatalf("%s: the shuffled input's result differs", name)
					}
				}
			}
		}
	}
}

// TestSortOptimizedElementwiseRowPermutation is the law of
// TestRowPermutationInvariance for the elementwise family under the
// paper's §8.1 SortOptimized, where the first argument keeps its input
// order and the result's row order follows it: ADD, SUB and EMU of
// shuffled arguments under SortOptimized return the rows that SortFull
// returns on the unshuffled ones, as multisets of rows compared bit for
// bit, under both policies at workers 1, 2 and 8. Each argument is keyed
// by its Int id (the radix sort) and by an (Int, String) pair (the merge
// sort), at 40 rows and above the parallel cutoff, with mixed Float and
// Int columns carrying ±0, NaN and ±Inf.
func TestSortOptimizedElementwiseRowPermutation(t *testing.T) {
	ops := []struct {
		name string
		run  func(*rel.Relation, []string, *rel.Relation, []string, *Options) (*rel.Relation, error)
	}{{"add", Add}, {"sub", Sub}, {"emu", Emu}}
	for _, n := range []int{40, 3*bat.SerialCutoff + 5} {
		for _, pair := range []bool{false, true} {
			r, rk := elementwiseRel("r", "Kr", n, 4, "mixed", int64(n)), []string{"Kr"}
			s, sk := elementwiseRel("s", "Ks", n, 4, "mixed", int64(n+1)), []string{"Ks"}
			if pair {
				r, rk = pairKeyed(r, "Kr")
				s, sk = pairKeyed(s, "Ks")
			}
			rShuf, sShuf := shuffledRows(r, int64(n+2)), shuffledRows(s, int64(n+3))
			for _, tc := range ops {
				for _, p := range []Policy{PolicyBAT, PolicyDense} {
					full, err := tc.run(r, rk, s, sk, &Options{Policy: p, SortMode: SortFull, Parallelism: 1})
					if err != nil {
						t.Fatal(err)
					}
					want := rowMultiset(full)
					for _, workers := range []int{1, 2, 8} {
						at := fmt.Sprintf("%s n=%d order=%v,%v %v workers=%d", tc.name, n, rk, sk, p, workers)
						got, err := tc.run(rShuf, rk, sShuf, sk, &Options{Policy: p, SortMode: SortOptimized, Parallelism: workers})
						if err != nil {
							t.Fatalf("%s: %v", at, err)
						}
						if !slices.Equal(got.Schema, full.Schema) {
							t.Fatalf("%s: schema %v, want %v", at, got.Schema, full.Schema)
						}
						if !slices.Equal(rowMultiset(got), want) {
							t.Fatalf("%s: SortOptimized on the shuffle returns other rows than SortFull", at)
						}
					}
				}
			}
		}
	}
}

// rowMultiset renders each row of r as one string, Float cells by their
// bit pattern, and returns the strings sorted: equal results are equal
// multisets of rows, whatever their row order.
func rowMultiset(r *rel.Relation) []string {
	vecs := make([]*bat.Vector, len(r.Cols))
	for j, col := range r.Cols {
		vecs[j] = col.Vector()
	}
	rows := make([]string, r.NumRows())
	var buf []byte
	for i := range rows {
		buf = buf[:0]
		for _, v := range vecs {
			switch v.Type() {
			case bat.Float:
				buf = strconv.AppendUint(buf, math.Float64bits(v.Floats()[i]), 16)
			case bat.Int:
				buf = strconv.AppendInt(buf, v.Ints()[i], 10)
			default:
				buf = strconv.AppendQuote(buf, v.Strings()[i])
			}
			buf = append(buf, '|')
		}
		rows[i] = string(buf)
	}
	slices.Sort(rows)
	return rows
}

// unaryRun and binaryRun adapt an operation to the table of
// TestRowPermutationInvariance.
func unaryRun(op func(*rel.Relation, []string, *Options) (*rel.Relation, error)) func([]*rel.Relation, [][]string, *Options) (*rel.Relation, error) {
	return func(rs []*rel.Relation, keys [][]string, o *Options) (*rel.Relation, error) {
		return op(rs[0], keys[0], o)
	}
}

func binaryRun(op func(*rel.Relation, []string, *rel.Relation, []string, *Options) (*rel.Relation, error)) func([]*rel.Relation, [][]string, *Options) (*rel.Relation, error) {
	return func(rs []*rel.Relation, keys [][]string, o *Options) (*rel.Relation, error) {
		return op(rs[0], keys[0], rs[1], keys[1], o)
	}
}
