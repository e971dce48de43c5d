package exec

import (
	"math"
	"testing"
)

// TestArenaTryRefusesWithoutCharging checks the Try allocators'
// contract: within the budget they behave like Ints/Floats (charged,
// counted, freeable), past it they return nil with nothing charged or
// counted, and unaccounted arenas never refuse.
func TestArenaTryRefusesWithoutCharging(t *testing.T) {
	tn := NewGovernor(0, 0).Tenant("try", 16*1024)
	a := tn.NewArena()
	defer a.Close()

	f := a.TryFloats(1000) // the 1024-cap class: 8 KiB
	is := a.TryInts(1000)
	if f == nil || is == nil || len(f) != 1000 || len(is) != 1000 {
		t.Fatalf("in-budget Try: floats %d, ints %d elements", len(f), len(is))
	}
	if got := tn.LiveBytes(); got != 16*1024 {
		t.Fatalf("live after two in-budget Trys = %d, want 16384", got)
	}
	allocs := tn.Stats().Total().Allocs
	if a.TryFloats(1) != nil || a.TryInts(1) != nil {
		t.Fatal("Try past the budget returned a buffer")
	}
	if got := tn.LiveBytes(); got != 16*1024 {
		t.Fatalf("live after refused Trys = %d, want 16384", got)
	}
	if got := tn.Stats().Total().Allocs; got != allocs {
		t.Fatalf("refused Trys counted as allocations: %d -> %d", allocs, got)
	}
	a.FreeFloats(f)
	a.FreeInts(is)
	if got := tn.LiveBytes(); got != 0 {
		t.Fatalf("live after freeing the Try buffers = %d, want 0", got)
	}
	if got := a.TryFloats(0); got == nil {
		t.Fatal("a zero-length Try was refused")
	}

	if Shared().TryFloats(1<<20) == nil || Shared().TryInts(1<<20) == nil {
		t.Fatal("the shared arena refused a Try")
	}
}

// TestReduceSerialFallback runs a parallel Reduce on an arena with no
// room for its per-chunk partials: it completes on its serial loop with
// the same bits, records the fallback, and leaves nothing charged.
func TestReduceSerialFallback(t *testing.T) {
	n := 3*SerialCutoff + 17
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
	want := New(8).Reduce(n, partial)

	tn := NewGovernor(0, 0).Tenant("reduce", 1)
	a := tn.NewArena()
	defer a.Close()
	st := &Stats{}
	got := NewCtx(8, a, st).Reduce(n, partial)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("fallback Reduce %v != parallel %v", got, want)
	}
	if st.SerialFallbacks.Load() != 1 || st.Sections.Load() != 0 {
		t.Fatalf("%d serial fallbacks, %d parallel sections; want 1 and 0",
			st.SerialFallbacks.Load(), st.Sections.Load())
	}
	if live := tn.LiveBytes(); live != 0 {
		t.Fatalf("live = %d after the fallback, want 0", live)
	}
}
