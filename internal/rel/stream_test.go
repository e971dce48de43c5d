package rel

import (
	"fmt"
	"testing"

	"repro/internal/bat"
	"repro/internal/exec"
)

// aggRel builds a relation with an int key column of the given
// cardinality, a string tag column, and two float value columns.
func aggRel(n, card int) *Relation {
	keys := make([]int64, n)
	tags := make([]string, n)
	v1 := make([]float64, n)
	v2 := make([]float64, n)
	for i := 0; i < n; i++ {
		keys[i] = int64((i*7919 + 13) % card)
		tags[i] = fmt.Sprintf("t%d", i%3)
		v1[i] = float64(i%101)*0.25 - 12.5
		v2[i] = float64((i*31)%997) * 0.125
	}
	r, err := New("r", Schema{
		{Name: "k", Type: bat.Int},
		{Name: "tag", Type: bat.String},
		{Name: "a", Type: bat.Float},
		{Name: "b", Type: bat.Float},
	}, []*bat.BAT{bat.FromInts(keys), bat.FromStrings(tags), bat.FromFloats(v1), bat.FromFloats(v2)})
	if err != nil {
		panic(err)
	}
	return r
}

// TestStreamingAggMatchesGroupBy feeds the same rows through StreamAgg
// one morsel at a time and through the materializing GroupBy at several
// worker budgets, asserting bitwise-identical results. Sizes straddle
// the SerialCutoff chunk edges (where the streaming accumulator flushes)
// and the morsel feed is deliberately not aligned to them.
func TestStreamingAggMatchesGroupBy(t *testing.T) {
	aggs := []AggSpec{
		{Func: Count, As: "n"},
		{Func: Sum, Attr: "a", As: "sa"},
		{Func: Avg, Attr: "b", As: "ab"},
		{Func: Min, Attr: "a", As: "ma"},
		{Func: Max, Attr: "b", As: "xb"},
	}
	sizes := []int{0, 1, bat.SerialCutoff - 1, bat.SerialCutoff, bat.SerialCutoff + 1, 3*bat.SerialCutoff + 257}
	for _, n := range sizes {
		for _, morsel := range []int{bat.MorselSize, 1000} {
			r := aggRel(n, 97)
			kcol, _ := r.Col("k")
			tcol, _ := r.Col("tag")
			acol, _ := r.Col("a")
			bcol, _ := r.Col("b")

			sa, err := NewStreamAgg(nil, "r", []string{"k", "tag"}, []bat.Type{bat.Int, bat.String}, aggs)
			if err != nil {
				t.Fatal(err)
			}
			ints := kcol.Vector().Ints()
			tags := tcol.Vector().Strings()
			af := acol.Vector().Floats()
			bf := bcol.Vector().Floats()
			for lo := 0; lo < n; lo += morsel {
				hi := min(lo+morsel, n)
				keys := []*bat.Vector{bat.NewIntVector(ints[lo:hi]), bat.NewStringVector(tags[lo:hi])}
				aggIn := [][]float64{nil, af[lo:hi], bf[lo:hi], af[lo:hi], bf[lo:hi]}
				sa.Consume(keys, aggIn, hi-lo)
			}
			streamed, err := sa.Finish()
			if err != nil {
				t.Fatal(err)
			}

			for _, workers := range []int{1, 2, 8} {
				c := exec.NewCtx(workers, nil, nil)
				want, err := GroupBy(c, r, []string{"k", "tag"}, aggs)
				if err != nil {
					t.Fatal(err)
				}
				if !equalRelations(streamed, want) {
					t.Fatalf("n=%d morsel=%d workers=%d: streamed aggregation differs from GroupBy", n, morsel, workers)
				}
			}
		}
	}
}

// TestStreamingAggGlobalGroup checks the keyless (single global group)
// path against GroupBy at chunk-edge sizes.
func TestStreamingAggGlobalGroup(t *testing.T) {
	aggs := []AggSpec{
		{Func: Count, As: "n"},
		{Func: Sum, Attr: "a", As: "sa"},
		{Func: Min, Attr: "b", As: "mb"},
	}
	for _, n := range []int{1, bat.SerialCutoff, 2*bat.SerialCutoff + 5} {
		r := aggRel(n, 7)
		acol, _ := r.Col("a")
		bcol, _ := r.Col("b")
		af := acol.Vector().Floats()
		bf := bcol.Vector().Floats()

		sa, err := NewStreamAgg(nil, "r", nil, nil, aggs)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < n; lo += bat.MorselSize {
			hi := min(lo+bat.MorselSize, n)
			sa.Consume(nil, [][]float64{nil, af[lo:hi], bf[lo:hi]}, hi-lo)
		}
		streamed, err := sa.Finish()
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 8} {
			want, err := GroupBy(exec.NewCtx(workers, nil, nil), r, nil, aggs)
			if err != nil {
				t.Fatal(err)
			}
			if !equalRelations(streamed, want) {
				t.Fatalf("n=%d workers=%d: streamed global aggregation differs from GroupBy", n, workers)
			}
		}
	}
}

// TestStreamingJoinProbeMatchesEquiJoinPairs probes a JoinBuild one
// morsel at a time and asserts the concatenated pair lists equal the
// all-at-once serial EquiJoinPairs output, inner and left outer, at
// several worker budgets. The second build side lies above
// bat.SerialCutoff, so under a parallel budget the JoinBuild is
// radix-partitioned; its keys repeat and cover only the even probe keys,
// so every probe morsel mixes duplicate matches with unmatched rows.
func TestStreamingJoinProbeMatchesEquiJoinPairs(t *testing.T) {
	pn := 3*bat.SerialCutoff + 41
	probe := make([]int64, pn)
	for i := range probe {
		probe[i] = int64((i*7919 + 3) % 1500)
	}
	probeKeys := []*bat.BAT{bat.FromInts(probe)}

	for _, bc := range []struct{ n, stride int }{{2000, 1}, {bat.SerialCutoff + 301, 2}} {
		build := make([]int64, bc.n)
		for j := range build {
			build[j] = int64((j*104729 + 1) % 1500 * bc.stride)
		}
		buildKeys := []*bat.BAT{bat.FromInts(build)}
		for _, leftOuter := range []bool{false, true} {
			wantLi, wantRi, err := EquiJoinPairs(exec.NewCtx(1, nil, nil), probeKeys, buildKeys, leftOuter)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 8} {
				c := exec.NewCtx(workers, nil, nil)
				jb, err := NewJoinBuild(c, buildKeys, 0)
				if err != nil {
					t.Fatal(err)
				}
				var gotLi, gotRi []int
				for lo := 0; lo < pn; lo += bat.MorselSize {
					hi := min(lo+bat.MorselSize, pn)
					mk := []*bat.BAT{bat.FromInts(probe[lo:hi])}
					li, ri, _, err := jb.Probe(c, mk, leftOuter)
					if err != nil {
						t.Fatal(err)
					}
					for k := range li {
						gotLi = append(gotLi, li[k]+lo)
						gotRi = append(gotRi, ri[k])
					}
					c.Arena().FreeInts(li)
					c.Arena().FreeInts(ri)
				}
				jb.Release(c)

				if len(gotLi) != len(wantLi) {
					t.Fatalf("build=%d leftOuter=%v workers=%d: %d streamed pairs, want %d", bc.n, leftOuter, workers, len(gotLi), len(wantLi))
				}
				for k := range wantLi {
					if gotLi[k] != wantLi[k] || gotRi[k] != wantRi[k] {
						t.Fatalf("build=%d leftOuter=%v workers=%d: pair %d = (%d,%d), want (%d,%d)",
							bc.n, leftOuter, workers, k, gotLi[k], gotRi[k], wantLi[k], wantRi[k])
					}
				}
			}
		}
	}
}
