package bat

import (
	"math/rand"
	"os"
	"testing"

	"repro/internal/exec"
)

// TestSortStableSpillBitwise checks that the out-of-core merge produces
// the exact permutation of the in-memory path, records its spill
// activity, and leaves no run files behind.
func TestSortStableSpillBitwise(t *testing.T) {
	n := 5*SerialCutoff + 321
	rng := rand.New(rand.NewSource(7))
	keys := make([]float64, n)
	for k := range keys {
		keys[k] = float64(rng.Intn(n / 4)) // many duplicates: stability matters
	}
	less := func(a, b int) bool { return keys[a] < keys[b] }

	cm := exec.NewCtx(4, nil, nil)
	want := SortStable(cm, n, less)

	dir := t.TempDir()
	sp := exec.NewSpill(dir, 1)
	defer sp.Cleanup()
	var stats exec.Stats
	cs := exec.NewCtx(4, nil, &stats).WithSpill(sp)
	got := SortStable(cs, n, less)

	if len(got) != len(want) {
		t.Fatalf("length %d != %d", len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("permutation diverges at %d: %d != %d", k, got[k], want[k])
		}
	}
	st := sp.Stats()
	if st.SpilledBytes == 0 || st.Partitions < 2 {
		t.Fatalf("spill not recorded: %+v", st)
	}
	if stats.SpilledBytes.Load() != st.SpilledBytes {
		t.Fatalf("Stats.SpilledBytes %d != spill manager %d", stats.SpilledBytes.Load(), st.SpilledBytes)
	}
	// Run files are removed eagerly after the merge.
	d, err := sp.Dir()
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill dir not empty after merge: %d entries", len(ents))
	}
}

// TestSortStableSpillSerialNoop: a serial context never reaches the
// parallel merge, so a one-byte spill threshold must not change anything.
func TestSortStableSpillSerialNoop(t *testing.T) {
	n := 2 * SerialCutoff
	keys := make([]float64, n)
	for k := range keys {
		keys[k] = float64(n - k)
	}
	less := func(a, b int) bool { return keys[a] < keys[b] }
	sp := exec.NewSpill(t.TempDir(), 1)
	defer sp.Cleanup()
	c := exec.NewCtx(1, nil, nil).WithSpill(sp)
	got := SortStable(c, n, less)
	for k := 1; k < n; k++ {
		if keys[got[k-1]] > keys[got[k]] {
			t.Fatalf("not sorted at %d", k)
		}
	}
	if st := sp.Stats(); st.SpilledBytes != 0 {
		t.Fatalf("serial sort spilled: %+v", st)
	}
}
