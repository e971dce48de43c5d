package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/exec"
	"repro/internal/rel"
)

// sortKeyRows is above the serial cutoff, so at eight workers the order
// schema would take the parallel path of a comparison sort.
const sortKeyRows = 3 * bat.SerialCutoff

// floatKeyRel builds a relation with the dense Float order column key
// holding keys and one dense application column.
func floatKeyRel(name, key string, keys []float64) *rel.Relation {
	vals := make([]float64, len(keys))
	for i := range vals {
		vals[i] = float64(i % 17)
	}
	return rel.MustNew(name, rel.Schema{
		{Name: key, Type: bat.Float},
		{Name: "v", Type: bat.Float},
	}, []*bat.BAT{bat.FromFloats(keys), bat.FromFloats(vals)})
}

// shuffledKeys returns the distinct keys 1..n in a seeded order.
func shuffledKeys(n int, seed int64) []float64 {
	keys := make([]float64, n)
	for i, p := range rand.New(rand.NewSource(seed)).Perm(n) {
		keys[i] = float64(p + 1)
	}
	return keys
}

// TestAddFloatOrderKeyErrors pins the error an ADD reports when its dense
// Float order column is not a key because it holds a NaN, or both −0 and
// +0 (equal under IEEE comparison), on either argument and at any worker
// budget.
func TestAddFloatOrderKeyErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  func(keys []float64)
	}{
		{"nan", func(keys []float64) { keys[sortKeyRows/2] = math.NaN() }},
		{"signed-zeros", func(keys []float64) {
			keys[7] = math.Copysign(0, -1)
			keys[sortKeyRows-3] = 0
		}},
	} {
		bad := shuffledKeys(sortKeyRows, 1)
		tc.bad(bad)
		good := shuffledKeys(sortKeyRows, 2)
		for _, workers := range []int{1, 8} {
			opts := &Options{Parallelism: workers}
			_, err := Add(floatKeyRel("r", "ka", bad), []string{"ka"}, floatKeyRel("s", "kb", good), []string{"kb"}, opts)
			if want := "rma: order schema [ka] of r is not a key"; err == nil || err.Error() != want {
				t.Errorf("%s workers=%d, first argument: err = %v, want %q", tc.name, workers, err, want)
			}
			_, err = Add(floatKeyRel("r", "ka", good), []string{"ka"}, floatKeyRel("s", "kb", bad), []string{"kb"}, opts)
			if want := "rma: order schema [kb] of s is not a key"; err == nil || err.Error() != want {
				t.Errorf("%s workers=%d, second argument: err = %v, want %q", tc.name, workers, err, want)
			}
		}
	}
}

// TestRadixSortScratchAccounted checks that a governed ADD over dense
// numeric order columns charges the radix sort's scratch to the tenant —
// each of the two sorts draws its permutation and one scratch buffer, even
// serially — and that nothing stays charged once the invocation returns.
func TestRadixSortScratchAccounted(t *testing.T) {
	gov := exec.NewGovernor(0, 0)
	r := floatKeyRel("r", "ka", shuffledKeys(sortKeyRows, 3))
	s := floatKeyRel("s", "kb", shuffledKeys(sortKeyRows, 4))
	for _, workers := range []int{1, 8} {
		st := &Stats{}
		if _, err := Add(r, []string{"ka"}, s, []string{"kb"}, &Options{
			Policy:       PolicyBAT,
			Parallelism:  workers,
			Tenant:       "radix",
			MemoryBudget: 1 << 30,
			Governor:     gov,
			Stats:        st,
		}); err != nil {
			t.Fatal(err)
		}
		if st.Arena.LiveBytes != 0 {
			t.Errorf("workers=%d: Stats.Arena.LiveBytes = %d after the ADD, want 0", workers, st.Arena.LiveBytes)
		}
		if got := gov.Tenant("radix", 0).LiveBytes(); got != 0 {
			t.Errorf("workers=%d: tenant live = %d after the ADD, want 0", workers, got)
		}
	}
	// Two invocations, each sorting two order columns into a permutation
	// plus one scratch buffer.
	if got := gov.Tenant("radix", 0).Stats().Ints.Allocs; got < 8 {
		t.Errorf("tenant int allocations = %d over two ADDs, want >= 8 (permutation + radix scratch per sort)", got)
	}
}
