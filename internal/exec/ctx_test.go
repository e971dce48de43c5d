package exec

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

// TestNilAndZeroCtxFallBackToDefault is the regression test for the
// documented budget fallback: a nil context, the zero value, and a
// context built with a non-positive budget all resolve Workers to the
// process default, GOMAXPROCS at start-up.
func TestNilAndZeroCtxFallBackToDefault(t *testing.T) {
	def := runtime.GOMAXPROCS(0)
	var nilCtx *Ctx
	if got := nilCtx.Workers(); got != def {
		t.Errorf("nil ctx Workers = %d, want %d", got, def)
	}
	if got := (&Ctx{}).Workers(); got != def {
		t.Errorf("zero ctx Workers = %d, want %d", got, def)
	}
	if got := New(0).Workers(); got != def {
		t.Errorf("New(0).Workers = %d, want %d", got, def)
	}
	if got := New(-5).Workers(); got != def {
		t.Errorf("New(-5).Workers = %d, want %d", got, def)
	}
	st := &Stats{}
	if got := NewCtx(0, nil, st).Workers(); got != def || st.Workers != def {
		t.Errorf("NewCtx(0) Workers = %d, Stats.Workers = %d, want %d", got, st.Workers, def)
	}
	if got := New(2).Workers(); got != 2 {
		t.Errorf("New(2).Workers = %d, want 2", got)
	}
	// Nil-safe arena and stats accessors.
	if nilCtx.Arena() != Shared() {
		t.Error("nil ctx Arena() is not the shared arena")
	}
	if nilCtx.Stats() != nil {
		t.Error("nil ctx Stats() is not nil")
	}
}

// TestConcurrentBudgetsAreIsolated asserts the property the refactor
// exists for: two contexts with different budgets running simultaneously
// each observe their own worker count, with no cross-talk through a
// process-wide knob.
func TestConcurrentBudgetsAreIsolated(t *testing.T) {
	budgets := []int{1, 2, 8}
	const rounds = 200
	var wg sync.WaitGroup
	for _, b := range budgets {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			c := New(b)
			for r := 0; r < rounds; r++ {
				if got := c.Workers(); got != b {
					t.Errorf("ctx budget %d observed Workers = %d", b, got)
					return
				}
				total := 0
				mu := sync.Mutex{}
				c.ParallelFor(1000, 10, func(lo, hi int) {
					mu.Lock()
					total += hi - lo
					mu.Unlock()
				})
				if total != 1000 {
					t.Errorf("budget %d: ParallelFor covered %d of 1000", b, total)
					return
				}
			}
		}(b)
	}
	wg.Wait()
}

// TestReduceBitwiseStableAcrossBudgets asserts the fixed-chunk reduction
// contract: identical float bits at any budget, including right at the
// chunk boundary.
func TestReduceBitwiseStableAcrossBudgets(t *testing.T) {
	for _, n := range []int{1, SerialCutoff - 1, SerialCutoff, SerialCutoff + 1, 3*SerialCutoff + 17} {
		f := make([]float64, n)
		for k := range f {
			f[k] = float64((k*7919)%1000) / 3.0
		}
		partial := func(lo, hi int) float64 {
			var s float64
			for k := lo; k < hi; k++ {
				s += f[k]
			}
			return s
		}
		want := New(1).Reduce(n, partial)
		for _, b := range []int{2, 8} {
			got := New(b).Reduce(n, partial)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d budget=%d: Reduce %v != serial %v", n, b, got, want)
			}
		}
	}
}

// TestStatsSink checks that the context's stats record the resolved
// budget and count parallel fan-outs, and that serial work stays
// uncounted.
func TestStatsSink(t *testing.T) {
	st := &Stats{}
	c := NewCtx(4, nil, st)
	if st.Workers != 4 {
		t.Fatalf("Stats.Workers = %d, want 4", st.Workers)
	}
	c.ParallelFor(100, 1000, func(lo, hi int) {}) // under minWork: serial
	if got := st.Sections.Load(); got != 0 {
		t.Fatalf("serial ParallelFor counted %d sections", got)
	}
	c.ParallelFor(100, 10, func(lo, hi int) {})
	if got := st.Sections.Load(); got != 1 {
		t.Fatalf("Sections = %d, want 1", got)
	}
	if g := st.Goroutines.Load(); g < 2 || g > 4 {
		t.Fatalf("Goroutines = %d, want 2..4", g)
	}
}

// TestParallelRunsEmptyAndTiny is the regression test for the
// ParallelRuns divide-by-zero: n == 0 used to yield runs == 0 and panic
// on size = (n+runs-1)/runs. An empty range must decompose into zero
// runs with a positive size; a single element into one run of one.
func TestParallelRunsEmptyAndTiny(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		c := New(workers)
		runs, size := c.ParallelRuns(0)
		if runs != 0 || size < 1 {
			t.Fatalf("workers=%d: ParallelRuns(0) = (%d, %d), want (0, >=1)", workers, runs, size)
		}
		runs, size = c.ParallelRuns(1)
		if runs != 1 || size != 1 {
			t.Fatalf("workers=%d: ParallelRuns(1) = (%d, %d), want (1, 1)", workers, runs, size)
		}
		// The decomposition must cover [0, n) exactly for a spread of n.
		for _, n := range []int{2, SerialCutoff, SerialCutoff + 1, 5 * SerialCutoff} {
			runs, size = c.ParallelRuns(n)
			if runs < 1 || size < 1 || (runs-1)*size >= n || runs*size < n {
				t.Fatalf("workers=%d n=%d: ParallelRuns = (%d, %d) does not tile the range",
					workers, n, runs, size)
			}
		}
	}
}

// TestParallelForPanicReachesCaller checks that a panic inside a worker
// goroutine — a memory-budget overrun in a kernel body, most
// importantly — unwinds the calling goroutine instead of killing the
// process from an unrecoverable worker.
func TestParallelForPanicReachesCaller(t *testing.T) {
	c := New(4)
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the worker's panic value", r)
		}
	}()
	c.ParallelFor(4*SerialCutoff, 1, func(lo, hi int) {
		if lo == 0 {
			panic("boom")
		}
	})
	t.Fatal("ParallelFor returned past a worker panic")
}

// TestArenaClasses checks the size-class mapping and the round-trip
// behavior of all four element domains, including the string-clearing
// contract.
func TestArenaClasses(t *testing.T) {
	a := Shared()
	f := a.Floats(100)
	if len(f) != 100 || cap(f) != 128 {
		t.Fatalf("Floats(100): len=%d cap=%d, want 100/128", len(f), cap(f))
	}
	for k := range f {
		f[k] = 42
	}
	a.FreeFloats(f)
	z := a.FloatsZero(100)
	for k, v := range z {
		if v != 0 {
			t.Fatalf("FloatsZero: element %d = %v after recycling a dirty buffer", k, v)
		}
	}
	a.FreeFloats(z)

	got := a.Floats(0)
	if len(got) != 0 {
		t.Fatalf("Floats(0): len=%d", len(got))
	}
	a.FreeFloats(got)
	a.FreeFloats(make([]float64, 100)) // cap 100 is no class size: dropped, not pooled
	huge := 1<<maxPoolShift + 1
	if c := classFor(huge); c != -1 {
		t.Fatalf("classFor(%d) = %d, want -1", huge, c)
	}
	if c := capClass(100); c != -1 {
		t.Fatalf("capClass(100) = %d, want -1", c)
	}

	idx := a.Ints(1000)
	if len(idx) != 1000 || cap(idx) != 1024 {
		t.Fatalf("Ints(1000): len=%d cap=%d", len(idx), cap(idx))
	}
	a.FreeInts(idx)

	xs := a.Int64s(70)
	if len(xs) != 70 || cap(xs) != 128 {
		t.Fatalf("Int64s(70): len=%d cap=%d", len(xs), cap(xs))
	}
	a.FreeInt64s(xs)

	ss := a.Strings(64)
	for k := range ss {
		ss[k] = "pinned"
	}
	a.FreeStrings(ss)
	ss2 := a.Strings(64)
	for k, v := range ss2 {
		if v != "" {
			t.Fatalf("Strings after free: element %d = %q, want cleared", k, v)
		}
	}
	a.FreeStrings(ss2)

	// A nil arena delegates to the shared one instead of panicking.
	var nilArena *Arena
	nilArena.FreeFloats(nilArena.Floats(64))
}
