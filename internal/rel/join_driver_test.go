package rel

import (
	"fmt"
	"testing"

	"repro/internal/bat"
	"repro/internal/exec"
)

// probePairs drains a probe of n rows against jb through Count and
// Scatter, at most block pairs at a time into arena scratch, and returns
// every pair with the probe's and the scratch's buffers handed back.
func probePairs(c *exec.Ctx, jb *JoinBuild, n int, probeKeys []*bat.BAT, leftOuter bool, block int) (li, ri []int, err error) {
	p, err := jb.Count(c, n, probeKeys, leftOuter)
	if err != nil {
		return nil, nil, err
	}
	defer p.Release(c)
	bl := c.Arena().Ints(block)
	defer c.Arena().FreeInts(bl)
	br := c.Arena().Ints(block)
	defer c.Arena().FreeInts(br)
	var cur PairCursor
	for {
		m := p.Scatter(&cur, n, bl, br)
		li, ri = append(li, bl[:m]...), append(ri, br[:m]...)
		if m < block {
			return li, ri, nil
		}
	}
}

// TestJoinProbeArity checks that a probe whose key list is shorter or
// longer than the build side's is refused: a shorter one would match on
// a key prefix, a longer one would index past the build keys.
func TestJoinProbeArity(t *testing.T) {
	a := bat.FromInts([]int64{1, 2, 3})
	b := bat.FromInts([]int64{4, 5, 6})
	jb, err := NewJoinBuild(nil, 3, []*bat.BAT{a, b})
	if err != nil {
		t.Fatal(err)
	}
	defer jb.Release(nil)
	for _, keys := range [][]*bat.BAT{nil, {a}, {a, b, a}} {
		if _, _, err := probePairs(nil, jb, 3, keys, false, bat.MorselSize); err == nil {
			t.Errorf("Probe with %d keys against 2 build keys: no error", len(keys))
		}
	}
	li, ri, err := probePairs(nil, jb, 3, []*bat.BAT{a, b}, false, bat.MorselSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(li) != 3 || li[2] != 2 || ri[2] != 2 {
		t.Fatalf("matching arity: pairs %v %v, want the diagonal", li, ri)
	}
}

// checkCrossPairs checks a zero-key JoinBuild against the nested-loop
// cross product of pn probe rows and bn build rows in i-major order
// (probe rows outer, build rows inner; a left-outer probe row meeting an
// empty build side pairs with -1), drained block pairs at a time at
// each worker budget, with the tenant's arena books back at their start.
func checkCrossPairs(tb testing.TB, label string, pn, bn, block int, workers []int) {
	tb.Helper()
	for _, leftOuter := range []bool{false, true} {
		var wantLi, wantRi []int
		for i := 0; i < pn; i++ {
			for j := 0; j < bn; j++ {
				wantLi, wantRi = append(wantLi, i), append(wantRi, j)
			}
			if bn == 0 && leftOuter {
				wantLi, wantRi = append(wantLi, i), append(wantRi, -1)
			}
		}
		for _, w := range workers {
			at := fmt.Sprintf("%s left=%v workers=%d", label, leftOuter, w)
			tc, tn := tenantCtx("cross")
			c := exec.NewCtx(w, tc.Arena(), nil)
			start := tn.LiveBytes()
			jb, err := NewJoinBuild(c, bn, nil)
			if err != nil {
				tb.Fatalf("%s: NewJoinBuild: %v", at, err)
			}
			li, ri, err := probePairs(c, jb, pn, nil, leftOuter, block)
			jb.Release(c)
			if err != nil {
				tb.Fatalf("%s: probe: %v", at, err)
			}
			samePairs(tb, at, li, ri, wantLi, wantRi)
			if live := tn.LiveBytes(); live != start {
				tb.Fatalf("%s: live bytes %d after release, want %d", at, live, start)
			}
		}
	}
}

// TestZeroKeyJoinBuildIsCross checks the join on the empty attribute set
// against the nested-loop cross product: an empty, a one-row and a
// MorselSize+7-row build side, inner and left outer. On the largest,
// every probe row's pairs span two scatter blocks, so the cursor
// resumes mid-chain.
func TestZeroKeyJoinBuildIsCross(t *testing.T) {
	for _, bn := range []int{0, 1, bat.MorselSize + 7} {
		checkCrossPairs(t, fmt.Sprintf("build=%d", bn), 3, bn, bat.MorselSize, []int{1, 2, 8})
	}
}

// sparseJoinRels builds a join whose payload columns are zero-suppressed
// on both sides: n probe rows over keys i%997, a build side holding keys
// below 900 twice (so probe morsels scatter in more than one block and
// pieces span morsel edges) and none of the rest (unmatched probe rows).
func sparseJoinRels(n int) (*Relation, *Relation) {
	pk := make([]int64, n)
	pv := make([]float64, n)
	for i := range pk {
		pk[i] = int64(i % 997)
		if i%3 == 0 {
			pv[i] = float64(i)*0.25 - 7
		}
	}
	const m = 1800
	bk := make([]int64, m)
	bv := make([]float64, m)
	for j := range bk {
		bk[j] = int64(j % 900)
		if j%5 != 0 {
			bv[j] = float64(j) * 1.5
		}
	}
	r := MustNew("p", Schema{{Name: "k", Type: bat.Int}, {Name: "pv", Type: bat.Float}},
		[]*bat.BAT{bat.FromInts(pk), bat.FromSparse(bat.Compress(pv))})
	s := MustNew("b", Schema{{Name: "kb", Type: bat.Int}, {Name: "bv", Type: bat.Float}},
		[]*bat.BAT{bat.FromInts(bk), bat.FromSparse(bat.Compress(bv))})
	return r, s
}

// TestHashJoinSparsePayloads drives sparse payload columns through the
// scatter of every worker range: Inner and Left joins (the Left one with
// unmatched rows) over 5·SerialCutoff+ probe rows at workers 1, 2 and 8.
// Every result column is dense; the values are bitwise those of the
// same join over dense copies, identical at every worker count; and
// once the result is released the tenant's live bytes are back where
// they started, so the densified payloads went back to the arena.
func TestHashJoinSparsePayloads(t *testing.T) {
	r, s := sparseJoinRels(5*bat.SerialCutoff + 123)
	dense := func(rel *Relation) *Relation {
		cols := make([]*bat.BAT, len(rel.Cols))
		for k, col := range rel.Cols {
			cols[k] = bat.FromVector(col.Vector())
		}
		return MustNew(rel.Name, rel.Schema, cols)
	}
	for _, jt := range []JoinType{Inner, Left} {
		want, err := HashJoin(exec.New(1), dense(r), dense(s), []string{"k"}, []string{"kb"}, jt)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			at := fmt.Sprintf("jt=%d workers=%d", jt, workers)
			c, tn := tenantCtx("sparse-join")
			c = exec.NewCtx(workers, c.Arena(), nil)
			start := tn.LiveBytes()
			got, err := HashJoin(c, r, s, []string{"k"}, []string{"kb"}, jt)
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			for k, col := range got.Cols {
				if col.IsSparse() {
					t.Fatalf("%s: column %s is sparse, want dense", at, got.Schema[k].Name)
				}
			}
			bitwiseSame(t, at, want, got)
			for _, col := range got.Cols {
				bat.Release(c, col)
			}
			if live := tn.LiveBytes(); live != start {
				t.Fatalf("%s: live bytes %d after releasing the result, want %d", at, live, start)
			}
		}
	}
}
