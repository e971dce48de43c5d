package exec

import (
	"sync"
	"testing"
)

// TestForeignFreeChargesOwnerUntilClose pins the foreign-free contract:
// a buffer freed into an arena that did not draw it — another tenant's
// arena or the shared one — stays charged to its owner until the owner's
// Close. The receiving tenant neither charges, counts nor pools it; the
// owner's own later free uncharges it once, a second free is a no-op,
// and Close never drives live bytes negative.
func TestForeignFreeChargesOwnerUntilClose(t *testing.T) {
	g := NewGovernor(0, 0)
	owner := g.Tenant("owner", 0)
	other := g.Tenant("other", 0)
	a1 := owner.NewArena()
	a2 := other.NewArena()
	defer a2.Close()

	live := func(tn *Tenant, want int64, when string) {
		t.Helper()
		if got := tn.LiveBytes(); got != want {
			t.Fatalf("%s live %s = %d, want %d", tn.Name(), when, got, want)
		}
	}

	// Freed into another tenant's arena: the owner stays at +512 B and
	// the receiver's books do not move.
	buf := a1.Floats(64)
	live(owner, 512, "after alloc")
	a2.FreeFloats(buf)
	live(owner, 512, "after a free into another tenant's arena")
	live(other, 0, "after receiving a foreign buffer")
	if st := other.Stats().Floats; st.Frees != 0 {
		t.Fatalf("receiving tenant counted %d frees for a foreign buffer", st.Frees)
	}
	if st := owner.Stats().Floats; st.Frees != 0 {
		t.Fatalf("owner counted %d frees for a buffer it never got back", st.Frees)
	}
	// The foreign buffer did not enter the receiver's pools: its next
	// allocation of the same class is a miss.
	x := a2.Floats(64)
	if got := other.Stats().Floats.PoolHits; got != 0 {
		t.Fatalf("receiving tenant's pool served %d hits after a foreign free", got)
	}
	a2.FreeFloats(x)
	live(other, 0, "after its own round trip")

	// Freed into the shared arena: the same, +512 B more.
	Shared().FreeFloats(a1.Floats(64))
	live(owner, 1024, "after a free into the shared arena")

	// Every element domain takes the same path.
	ints, i64s, strs := a1.Ints(64), a1.Int64s(64), a1.Strings(64)
	charged := owner.LiveBytes()
	a2.FreeInts(ints)
	Shared().FreeInt64s(i64s)
	a2.FreeStrings(strs)
	live(owner, charged, "after foreign frees across domains")
	live(other, 0, "after foreign frees across domains")
	if got := other.Stats().Total().Frees; got != 1 {
		t.Fatalf("receiving tenant counted %d frees, want 1 (its own round trip)", got)
	}

	// The owner's own free uncharges once; a second free is a no-op.
	a1.FreeFloats(buf)
	live(owner, charged-512, "after the owner's own free")
	a1.FreeFloats(buf)
	live(owner, charged-512, "after a double free")
	if got := owner.Stats().Floats.Frees; got != 1 {
		t.Fatalf("owner counted %d float frees, want 1", got)
	}

	// Close releases what is still charged and nothing more.
	a1.Close()
	live(owner, 0, "after Close")
	a1.FreeFloats(buf)
	a1.Close()
	live(owner, 0, "after frees and a second Close past the first")
}

// TestForeignFreeConcurrentClose runs the contract under -race: eight
// goroutines across two tenants allocate from their own arenas and free
// a third of the buffers into the other tenant's arena and a third into
// the shared one. While an arena is open its tenant holds at least the
// bytes that arena stranded; once every arena has closed, each tenant is
// back at exactly zero.
func TestForeignFreeConcurrentClose(t *testing.T) {
	g := NewGovernor(0, 0)
	t1 := g.Tenant("ff-a", 0)
	t2 := g.Tenant("ff-b", 0)

	const (
		workers  = 8
		rounds   = 200
		elements = 128
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine, theirs := t1, t2
			if w%2 == 1 {
				mine, theirs = t2, t1
			}
			a := mine.NewArena()
			defer a.Close()
			foreign := theirs.NewArena()
			defer foreign.Close()
			var stranded int64
			for r := 0; r < rounds; r++ {
				f := a.Floats(elements)
				i := a.Ints(elements)
				switch r % 3 {
				case 0: // owner free
					a.FreeFloats(f)
					a.FreeInts(i)
				case 1: // free into the other tenant's arena
					foreign.FreeFloats(f)
					foreign.FreeInts(i)
					stranded += int64(cap(f)*floatSize + cap(i)*intSize)
				default: // free into the shared arena
					Shared().FreeFloats(f)
					Shared().FreeInts(i)
					stranded += int64(cap(f)*floatSize + cap(i)*intSize)
				}
			}
			if got := mine.LiveBytes(); got < stranded {
				t.Errorf("%s live = %d before Close, below the %d B this arena stranded", mine.Name(), got, stranded)
			}
		}(w)
	}
	wg.Wait()
	for _, tn := range []*Tenant{t1, t2} {
		if got := tn.LiveBytes(); got != 0 {
			t.Fatalf("%s live after every arena closed = %d, want 0", tn.Name(), got)
		}
	}
}
