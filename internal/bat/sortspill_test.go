package bat

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/exec"
	"repro/internal/store"
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
	cs := exec.NewCtx(4, nil, nil).WithSpill(sp)
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

// TestSortStableSpillScratchBounded runs a sort whose tenant budget covers
// the permutation plus one run-sized scratch per worker but not a second
// n-int buffer. With the automatic threshold (half the budget) the sort
// must take the spilled path and complete there, never exceeding the
// budget, and still return the stable permutation.
func TestSortStableSpillScratchBounded(t *testing.T) {
	const workers = 2
	n := 4 * store.SegRows
	idxBytes := int64(n) * int64(intSizeOf())
	budget := idxBytes + idxBytes*3/4 // idx + workers·SegRows ints < budget < 2·idx
	if scratch := int64(workers*store.SegRows) * int64(intSizeOf()); idxBytes+scratch >= budget {
		t.Fatalf("budget %d does not cover idx + scratch %d", budget, idxBytes+scratch)
	}
	rng := rand.New(rand.NewSource(3))
	keys := make([]int, n)
	for k := range keys {
		keys[k] = rng.Intn(n / 16)
	}
	less := func(a, b int) bool { return keys[a] < keys[b] }

	g := exec.NewGovernor(0, 0)
	tn := g.Tenant("sort-scratch", budget)
	a := tn.NewArena()
	defer a.Close()
	sp := exec.NewSpill(t.TempDir(), 0)
	defer sp.Cleanup()
	c := exec.NewCtx(workers, a, nil).WithSpill(sp)
	var got []int
	err := func() (err error) {
		defer exec.CatchBudget(&err)
		got = SortStable(c, n, less)
		return nil
	}()
	if err != nil {
		t.Fatalf("sort under a %d-byte budget: %v", budget, err)
	}
	if st := sp.Stats(); st.SpilledBytes == 0 {
		t.Fatalf("sort did not spill: %+v", st)
	}
	if peak := tn.PeakBytes(); peak > budget {
		t.Fatalf("peak %d bytes over the %d-byte budget", peak, budget)
	}
	permsEqual(t, "spill-bounded", n, workers, got, refStablePerm(n, less))
	a.FreeInts(got)
}

// TestSortStableSerialScratch pins a serial sort's arena peak to the
// permutation plus a half-length scratch, below the two n-int buffers of a
// parallel sort, and checks what that buys: under a budget between the two
// peaks the parallel sort falls back to its serial body in place, records
// the fallback, stays within the budget and returns the same permutation.
func TestSortStableSerialScratch(t *testing.T) {
	n := 3*SerialCutoff + 7
	keys := rand.New(rand.NewSource(5)).Perm(n)
	less := func(a, b int) bool { return keys[a]/3 < keys[b]/3 }
	want := refStablePerm(n, less)
	var fallbacks int64
	sortUnder := func(workers int, budget int64) (int64, error) {
		tn := exec.NewGovernor(0, 0).Tenant("sort", budget)
		a := tn.NewArena()
		defer a.Close()
		st := &exec.Stats{}
		err := func() (err error) {
			defer exec.CatchBudget(&err)
			got := SortStable(exec.NewCtx(workers, a, st), n, less)
			permsEqual(t, "budgeted", n, workers, got, want)
			a.FreeInts(got)
			return nil
		}()
		fallbacks = st.SerialFallbacks.Load()
		return tn.PeakBytes(), err
	}
	charge := func(m int) int64 {
		tn := exec.NewGovernor(0, 0).Tenant("charge", 0)
		a := tn.NewArena()
		defer a.Close()
		a.Ints(m)
		return tn.LiveBytes()
	}
	serial, err := sortUnder(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := sortUnder(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lim := charge(n) + charge(n/2); serial > lim {
		t.Fatalf("serial sort peak %d bytes, want at most idx + n/2 ints = %d", serial, lim)
	}
	if parallel < 2*charge(n) {
		t.Fatalf("parallel sort peak %d bytes, want its two n-int buffers %d", parallel, 2*charge(n))
	}
	budget := (serial + parallel) / 2
	if peak, err := sortUnder(2, budget); err != nil || peak > budget || fallbacks == 0 {
		t.Fatalf("parallel sort under %d bytes: peak %d, err %v, %d serial fallbacks, want a fallback within the budget",
			budget, peak, err, fallbacks)
	}
	if peak, err := sortUnder(1, budget); err != nil || peak > budget {
		t.Fatalf("serial sort under %d bytes: peak %d, err %v", budget, peak, err)
	}
}

// TestSortMergeSpilledManyRuns drives the disk merge's loser tree over
// run counts from 2 to past a power of two, the last run short, on keys
// with many ties across runs, against the stable reference.
func TestSortMergeSpilledManyRuns(t *testing.T) {
	const size = 97
	for _, runs := range []int{2, 3, 5, 8, 64, 100, 257} {
		n := runs*size - size/2
		rng := rand.New(rand.NewSource(int64(runs)))
		keys := make([]int, n)
		for k := range keys {
			keys[k] = rng.Intn(n/8 + 1)
		}
		less := func(a, b int) bool { return keys[a] < keys[b] }
		sp := exec.NewSpill(t.TempDir(), 1)
		c := exec.New(2).WithSpill(sp)
		idx := Identity(c, n)
		sortRuns(c, idx, make([]int, 2*(size/2)), size/2, size, less)
		if !sortMergeSpilled(c, idx, size, less) {
			t.Fatalf("runs=%d: disk merge failed", runs)
		}
		permsEqual(t, fmt.Sprintf("runs-%d", runs), n, 2, idx, refStablePerm(n, less))
		if got := sp.Stats().Partitions; got != int64(runs) {
			t.Fatalf("runs=%d: %d run files recorded", runs, got)
		}
		sp.Cleanup()
	}
}

// BenchmarkSortMergeSpilled times the disk merge alone (write the sorted
// runs, merge them back) over 4 to 256 runs of 8192 rows.
func BenchmarkSortMergeSpilled(b *testing.B) {
	const size = 8192
	for _, runs := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprint(runs), func(b *testing.B) {
			n := runs * size
			rng := rand.New(rand.NewSource(1))
			keys := make([]int, n)
			for k := range keys {
				keys[k] = rng.Intn(n)
			}
			less := func(a, b int) bool { return keys[a] < keys[b] }
			sp := exec.NewSpill(b.TempDir(), 1)
			defer sp.Cleanup()
			c := exec.New(1).WithSpill(sp)
			sorted := Identity(c, n)
			sortRuns(c, sorted, make([]int, size/2), size/2, size, less)
			idx := make([]int, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(idx, sorted)
				sortMergeSpilled(c, idx, size, less)
			}
		})
	}
}
