package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/bat"
	"repro/internal/rel"
)

// This file holds the concurrency stress tests of the per-query execution
// context refactor — the acceptance criterion of the Ctx plumbing: two
// concurrent queries with Parallelism 1 and 8 produce bitwise-identical
// results to their serial runs under -race, and Stats.Workers reports
// each query's own budget with no shared-global cross-talk. CI runs this
// file in a dedicated -race step with GOMAXPROCS=4.

// mixedRel builds an n-row relation with a shuffled unique int key (so
// sortArg really sorts, in parallel above the cutoff) and w float
// application columns.
func mixedRel(name string, n, w int, seed int64) *rel.Relation {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i)
	}
	rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	schema := rel.Schema{{Name: "k", Type: bat.Int}}
	cols := []*bat.BAT{bat.FromInts(keys)}
	for c := 0; c < w; c++ {
		f := make([]float64, n)
		for i := range f {
			f[i] = rng.NormFloat64() * 10
		}
		schema = append(schema, rel.Attr{Name: string(rune('a' + c)), Type: bat.Float})
		cols = append(cols, bat.FromFloats(f))
	}
	return rel.MustNew(name, schema, cols)
}

// relsBitwiseEqual compares two relations exactly: schema, row count, and
// cell-for-cell equality with float payloads compared by bit pattern.
func relsBitwiseEqual(a, b *rel.Relation) bool { return sameBits(a, b) == nil }

// sameBits is relsBitwiseEqual naming the first difference: the schema,
// the row count, then a column whose Int or String cells differ or a
// Float cell whose bit pattern does.
func sameBits(got, want *rel.Relation) error {
	if !slices.Equal(got.Schema, want.Schema) || got.NumRows() != want.NumRows() {
		return fmt.Errorf("schema %v of %d rows, want %v of %d", got.Schema, got.NumRows(), want.Schema, want.NumRows())
	}
	for j, col := range want.Cols {
		g, w := got.Cols[j].Vector(), col.Vector()
		switch w.Type() {
		case bat.Float:
			gf, wf := g.Floats(), w.Floats()
			for i := range wf {
				if math.Float64bits(gf[i]) != math.Float64bits(wf[i]) {
					return fmt.Errorf("%s[%d] has bits %#x, want %#x", want.Schema[j].Name, i, math.Float64bits(gf[i]), math.Float64bits(wf[i]))
				}
			}
		case bat.Int:
			if !slices.Equal(g.Ints(), w.Ints()) {
				return fmt.Errorf("column %s differs", want.Schema[j].Name)
			}
		default:
			if !slices.Equal(g.Strings(), w.Strings()) {
				return fmt.Errorf("column %s differs", want.Schema[j].Name)
			}
		}
	}
	return nil
}

// mixedQuery runs one representative query pipeline under the given
// options: a BAT-path elementwise add (parallel kernels + parallel sort of
// the shuffled key) followed by a dense-path cross product (toMatrix
// copy-in, SYRK, copy-out) over its result. It returns an error instead
// of failing the test so goroutines other than the test's own can call it
// (FailNow must not run off the test goroutine).
func mixedQuery(r, s *rel.Relation, opts *Options) (*rel.Relation, error) {
	sum, err := Add(r, []string{"k"}, s, []string{"k2"}, opts)
	if err != nil {
		return nil, err
	}
	return Cpd(sum, []string{"k"}, sum, []string{"k"}, opts)
}

// TestConcurrentMixedBudgetQueries is the -race stress test of the
// refactor's acceptance criterion. Serial baselines are computed first;
// then one goroutine per budget in {1, 2, 8} runs the same query stream
// concurrently, each under its own per-invocation context, and every
// result must be bitwise-identical to the baseline while Stats.Workers
// reports that goroutine's budget.
func TestConcurrentMixedBudgetQueries(t *testing.T) {
	n := bat.SerialCutoff + 257 // above the cutoff: kernels and sort fan out
	r := mixedRel("r", n, 3, 1)
	s, err := mixedRel("s", n, 3, 2).Rename(map[string]string{"k": "k2"})
	if err != nil {
		t.Fatal(err)
	}

	want, err := mixedQuery(r, s, &Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 4
	var wg sync.WaitGroup
	for _, budget := range []int{1, 2, 8} {
		wg.Add(1)
		go func(budget int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				stats := &Stats{}
				got, err := mixedQuery(r, s, &Options{Parallelism: budget, Stats: stats})
				if err != nil {
					t.Errorf("budget %d: %v", budget, err)
					return
				}
				if stats.Workers != budget {
					t.Errorf("budget %d: Stats.Workers = %d", budget, stats.Workers)
					return
				}
				if budget > 1 && stats.ParallelSections == 0 {
					t.Errorf("budget %d recorded no parallel sections", budget)
					return
				}
				if !relsBitwiseEqual(got, want) {
					t.Errorf("budget %d: result differs from serial baseline", budget)
					return
				}
			}
		}(budget)
	}
	wg.Wait()
}

// TestZeroParallelismFallsBackToDefault is the regression test that an
// absent budget (Options.Parallelism == 0, or nil Options) resolves to
// the process default (GOMAXPROCS at start-up) rather than panicking or
// forcing serial execution.
func TestZeroParallelismFallsBackToDefault(t *testing.T) {
	r := mixedRel("r", 64, 2, 3)
	stats := &Stats{}
	if _, err := Tra(r, []string{"k"}, &Options{Stats: stats}); err != nil {
		t.Fatal(err)
	}
	if def := runtime.GOMAXPROCS(0); stats.Workers != def {
		t.Fatalf("Stats.Workers = %d, want the default budget %d", stats.Workers, def)
	}
	// nil Options must keep working end to end.
	if _, err := Tra(r, []string{"k"}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestStatsWorkersNoCrossTalk hammers two option sets with different
// budgets from two goroutines and asserts every invocation reports its
// own budget — the exact failure mode of a process-wide worker-count
// override under concurrency.
func TestStatsWorkersNoCrossTalk(t *testing.T) {
	r := mixedRel("r", 512, 2, 4)
	var wg sync.WaitGroup
	for _, budget := range []int{1, 8} {
		wg.Add(1)
		go func(budget int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				stats := &Stats{}
				if _, err := Tra(r, []string{"k"}, &Options{Parallelism: budget, Stats: stats}); err != nil {
					t.Errorf("tra: %v", err)
					return
				}
				if stats.Workers != budget {
					t.Errorf("invocation with budget %d saw Workers=%d", budget, stats.Workers)
					return
				}
			}
		}(budget)
	}
	wg.Wait()
}
