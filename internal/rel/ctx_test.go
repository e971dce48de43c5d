package rel

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bat"
	"repro/internal/exec"
)

// This file tests the per-query execution contexts of the relational
// operators: explicit exec.Ctx budgets (no process-wide knob), results
// bitwise-identical across budgets {1, 2, 8} while two contexts run
// simultaneously, and the JoinBuild entry point the SQL layer uses.

// relPipeline runs join → group → sort under one context, the mixed
// relational pipeline of the concurrency property test. It returns an
// error instead of failing the test so goroutines other than the test's
// own can call it (FailNow must not run off the test goroutine).
func relPipeline(c *exec.Ctx, r, s *Relation) (*Relation, error) {
	j, err := HashJoin(c, r, s, []string{"r_k"}, []string{"s_k"}, Inner)
	if err != nil {
		return nil, err
	}
	g, err := GroupBy(c, j, []string{"r_t"}, []AggSpec{
		{Func: Count, As: "n"},
		{Func: Sum, Attr: "r_v", As: "sv"},
		{Func: Sum, Attr: "s_v", As: "sw"},
	})
	if err != nil {
		return nil, err
	}
	return g.Sort(c, OrderSpec{Attr: "sv", Desc: true}, OrderSpec{Attr: "r_t"})
}

// TestSimultaneousCtxsBitwiseIdentical runs the join/group/sort pipeline
// under budgets {1, 2, 8} from concurrent goroutines — every context
// carries its own budget, nothing is process-wide — and asserts each
// result is bitwise-identical to the serial baseline. Run with -race this
// is the operator-level half of the mixed-budget acceptance criterion.
func TestSimultaneousCtxsBitwiseIdentical(t *testing.T) {
	n := bat.SerialCutoff + 101
	r := boundaryRel("r", n, 64)
	s := boundaryRel("s", n, 64)
	want, err := relPipeline(exec.New(1), r, s)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for _, budget := range []int{1, 2, 8} {
		wg.Add(1)
		go func(budget int) {
			defer wg.Done()
			c := exec.New(budget)
			for round := 0; round < 3; round++ {
				got, err := relPipeline(c, r, s)
				if err != nil {
					t.Errorf("budget %d: %v", budget, err)
					return
				}
				if !equalRelations(got, want) {
					t.Errorf("budget %d: pipeline differs from serial", budget)
					return
				}
			}
		}(budget)
	}
	wg.Wait()
}

// TestCrossTypeJoinBuildProbe asserts int and float key columns holding
// the same values join against each other (canonical float-bit hashing),
// the coercion the SQL layer leans on after dropping string keys, and
// that an empty key list yields the cross product.
func TestCrossTypeJoinBuildProbe(t *testing.T) {
	cross, err := NewJoinBuild(nil, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	li, ri, err := probePairs(nil, cross, 2, nil, false, bat.MorselSize)
	cross.Release(nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(li, ri) != "[0 0 1 1] [0 1 0 1]" {
		t.Errorf("empty key list: pairs %v %v, want the 2x2 cross product", li, ri)
	}
	ints := bat.FromInts([]int64{1, 2, 3, 4})
	floats := bat.FromFloats([]float64{2, 4, 6, 2})
	jb, err := NewJoinBuild(nil, 4, []*bat.BAT{floats})
	if err != nil {
		t.Fatal(err)
	}
	li, ri, err = probePairs(nil, jb, 4, []*bat.BAT{ints}, false, bat.MorselSize)
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ l, r int }
	want := []pair{{1, 0}, {1, 3}, {3, 1}} // 2 matches twice, 4 once
	if len(li) != len(want) {
		t.Fatalf("got %d pairs, want %d", len(li), len(want))
	}
	for k, w := range want {
		if li[k] != w.l || ri[k] != w.r {
			t.Fatalf("pair %d = (%d,%d), want (%d,%d)", k, li[k], ri[k], w.l, w.r)
		}
	}
}
