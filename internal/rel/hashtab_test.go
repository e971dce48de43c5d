package rel

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bat"
	"repro/internal/exec"
)

// Adversarial key pools: values that share a hash (Int keys hash through
// their float value, so 2^53 and 2^53+1 collide, as do MaxInt64 and
// MaxInt64-1), values that must match across a sign or a NaN payload,
// Int/Float pairs that must match across types, and strings that differ
// only in NUL bytes or cell boundaries.
var (
	advInts = []int64{0, 1, -1, 2, 7, 1 << 53, 1<<53 + 1, 1<<53 - 1,
		math.MinInt64, math.MaxInt64, math.MaxInt64 - 1, 42}
	advFloats = []float64{0, math.Copysign(0, -1), 1, 2, 0.5, math.NaN(),
		math.Float64frombits(0x7ff0_0000_0000_0001), math.Float64frombits(0xfff8_0000_0000_0000),
		1 << 53, 1 << 63, -(1 << 63), math.Inf(1)}
	advStrings = []string{"", "\x00", "\x00\x00", "a", "a\x00", "\x00a", "ab",
		"b", "é", "a\x00b", "ab\x00", "ba"}
)

// refKeys is a typed view of a relation's key columns for the reference
// operators, independent of keyCols.
type refKeys struct {
	n int
	t []bat.Type
	i [][]int64
	f [][]float64
	s [][]string
}

func refKeysOf(r *Relation, names []string) *refKeys {
	k := &refKeys{n: r.NumRows()}
	for _, name := range names {
		col, err := r.Col(name)
		if err != nil {
			panic(err)
		}
		v := col.Vector()
		k.t = append(k.t, v.Type())
		k.i, k.f, k.s = append(k.i, nil), append(k.f, nil), append(k.s, nil)
		switch v.Type() {
		case bat.Int:
			k.i[len(k.i)-1] = v.Ints()
		case bat.Float:
			k.f[len(k.f)-1] = v.Floats()
		default:
			k.s[len(k.s)-1] = v.Strings()
		}
	}
	return k
}

// refEq is the key equality the hash operators promise: Int against Int
// exactly, strings by bytes and never equal to a number, every other
// numeric pair by canonical float bits (±0 is one key, every NaN
// payload is one key, and an Int equals the Float it converts to).
func refEq(a *refKeys, i int, b *refKeys, j int) bool {
	for k := range a.t {
		ta, tb := a.t[k], b.t[k]
		switch {
		case ta == bat.Int && tb == bat.Int:
			if a.i[k][i] != b.i[k][j] {
				return false
			}
		case ta == bat.String || tb == bat.String:
			if ta != tb || a.s[k][i] != b.s[k][j] {
				return false
			}
		default:
			if bat.CanonBits(refNum(a, k, i)) != bat.CanonBits(refNum(b, k, j)) {
				return false
			}
		}
	}
	return true
}

func refNum(a *refKeys, k, i int) float64 {
	if a.t[k] == bat.Int {
		return float64(a.i[k][i])
	}
	return a.f[k][i]
}

// refJoin is the nested-loop join reference: probe rows in order, each
// one's matches in build order, (i, -1) for an unmatched left-outer row.
// Probe rows with equal keys share one scan of the build side.
func refJoin(p, b *refKeys, leftOuter bool) (li, ri []int) {
	var reps []int
	var matches [][]int
	for i := 0; i < p.n; i++ {
		cls := -1
		for c, rep := range reps {
			if refEq(p, i, p, rep) {
				cls = c
				break
			}
		}
		if cls < 0 {
			cls = len(reps)
			reps = append(reps, i)
			var m []int
			for j := 0; j < b.n; j++ {
				if refEq(p, i, b, j) {
					m = append(m, j)
				}
			}
			matches = append(matches, m)
		}
		for _, j := range matches[cls] {
			li, ri = append(li, i), append(ri, j)
		}
		if len(matches[cls]) == 0 && leftOuter {
			li, ri = append(li, i), append(ri, -1)
		}
	}
	return li, ri
}

// refGroups assigns every row its group in first-seen order and returns
// each group's first row.
func refGroups(k *refKeys) (first, gid []int) {
	gid = make([]int, k.n)
	for i := 0; i < k.n; i++ {
		g := -1
		for c, rep := range first {
			if refEq(k, i, k, rep) {
				g = c
				break
			}
		}
		if g < 0 {
			g = len(first)
			first = append(first, i)
		}
		gid[i] = g
	}
	return first, gid
}

// hashOpsAggs are the aggregates the group checks run. The value column
// holds non-integer floats, so a sum matches the reference bitwise only
// when it folds each group's rows in row order.
var hashOpsAggs = []AggSpec{
	{Func: Count, As: "n"},
	{Func: Sum, Attr: "bv", As: "s"},
	{Func: Min, Attr: "bv", As: "lo"},
	{Func: Max, Attr: "bv", As: "hi"},
}

// keyRel builds a relation with typed key columns <prefix>0.., a row-id
// column <prefix>id holding row+1, and a non-integer value column
// <prefix>v. cell(k, i) picks the pool index of key column k, row i.
func keyRel(prefix string, types []bat.Type, n int, cell func(k, i int) int) *Relation {
	var schema Schema
	var cols []*bat.BAT
	for k, t := range types {
		schema = append(schema, Attr{Name: fmt.Sprintf("%s%d", prefix, k), Type: t})
		switch t {
		case bat.Int:
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = advInts[cell(k, i)%len(advInts)]
			}
			cols = append(cols, bat.FromInts(xs))
		case bat.Float:
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = advFloats[cell(k, i)%len(advFloats)]
			}
			cols = append(cols, bat.FromFloats(xs))
		default:
			xs := make([]string, n)
			for i := range xs {
				xs[i] = advStrings[cell(k, i)%len(advStrings)]
			}
			cols = append(cols, bat.FromStrings(xs))
		}
	}
	ids := make([]int64, n)
	vs := make([]float64, n)
	for i := range ids {
		ids[i] = int64(i + 1)
		vs[i] = float64(i%7-3) + 0.1*float64(i%10)
	}
	schema = append(schema, Attr{Name: prefix + "id", Type: bat.Int}, Attr{Name: prefix + "v", Type: bat.Float})
	cols = append(cols, bat.FromInts(ids), bat.FromFloats(vs))
	return MustNew(prefix, schema, cols)
}

func keyNames(prefix string, m int) []string {
	names := make([]string, m)
	for k := range names {
		names[k] = fmt.Sprintf("%s%d", prefix, k)
	}
	return names
}

// joinedPairs reads the (probe, build) row pairs back from a HashJoin
// result through the row-id columns; build id 0 is a left-outer miss.
func joinedPairs(res *Relation) (li, ri []int) {
	pid, _ := res.Col("pid")
	bid, _ := res.Col("bid")
	for k, id := range pid.Vector().Ints() {
		li = append(li, int(id)-1)
		ri = append(ri, int(bid.Vector().Ints()[k])-1)
	}
	return li, ri
}

func samePairs(tb testing.TB, label string, li, ri, wantLi, wantRi []int) {
	tb.Helper()
	if len(li) != len(wantLi) {
		tb.Fatalf("%s: %d pairs, want %d", label, len(li), len(wantLi))
	}
	for k := range li {
		if li[k] != wantLi[k] || ri[k] != wantRi[k] {
			tb.Fatalf("%s: pair %d = (%d,%d), want (%d,%d)", label, k, li[k], ri[k], wantLi[k], wantRi[k])
		}
	}
}

// wantGrouped is the reference grouped relation of b over its key
// columns: first-seen order, the first row's key cells, and aggregates
// that fold each group's rows in row order.
func wantGrouped(b *Relation, keys []string) *Relation {
	first, gid := refGroups(refKeysOf(b, keys))
	rep := b.Gather(nil, first)
	var schema Schema
	var cols []*bat.BAT
	for _, name := range keys {
		j := rep.Schema.Index(name)
		schema = append(schema, rep.Schema[j])
		cols = append(cols, rep.Cols[j])
	}
	vcol, _ := b.Col("bv")
	v := vcol.Vector().Floats()
	cnt := make([]int64, len(first))
	sum := make([]float64, len(first))
	lo := make([]float64, len(first))
	hi := make([]float64, len(first))
	for g := range first {
		lo[g], hi[g] = math.Inf(1), math.Inf(-1)
	}
	for i, g := range gid {
		cnt[g]++
		sum[g] += v[i]
		lo[g] = math.Min(lo[g], v[i])
		hi[g] = math.Max(hi[g], v[i])
	}
	schema = append(schema, Attr{Name: "n", Type: bat.Int}, Attr{Name: "s", Type: bat.Float},
		Attr{Name: "lo", Type: bat.Float}, Attr{Name: "hi", Type: bat.Float})
	cols = append(cols, bat.FromInts(cnt), bat.FromFloats(sum), bat.FromFloats(lo), bat.FromFloats(hi))
	return MustNew("b", schema, cols)
}

// checkHashOps runs every operator on the hash index against the
// references: HashJoin inner and left, the streamed JoinBuild probe,
// GroupBy, StreamAgg and the zero-aggregate GroupBy that is DISTINCT (the
// last three over the build side),
// at each worker budget. Pairs and groups must match in order, bitwise.
func checkHashOps(tb testing.TB, label string, p, b *Relation, m int, workers []int) {
	tb.Helper()
	pk, bk := keyNames("p", m), keyNames("b", m)
	pref, bref := refKeysOf(p, pk), refKeysOf(b, bk)
	wantGroups := wantGrouped(b, bk)
	first, _ := refGroups(bref)
	wantDistinct := b.Gather(nil, first)
	bkeys, _ := b.Project(bk...)
	wantDistinct, _ = wantDistinct.Project(bk...)

	for _, leftOuter := range []bool{false, true} {
		wantLi, wantRi := refJoin(pref, bref, leftOuter)
		jt := Inner
		if leftOuter {
			jt = Left
		}
		for _, w := range workers {
			c := exec.NewCtx(w, nil, nil)
			at := fmt.Sprintf("%s left=%v workers=%d", label, leftOuter, w)
			res, err := HashJoin(c, p, b, pk, bk, jt)
			if err != nil {
				tb.Fatalf("%s: HashJoin: %v", at, err)
			}
			li, ri := joinedPairs(res)
			samePairs(tb, at+" HashJoin", li, ri, wantLi, wantRi)

			buildKeys := make([]*bat.BAT, m)
			probeCols := make([]*bat.BAT, m)
			for k := range bk {
				buildKeys[k], _ = b.Col(bk[k])
				probeCols[k], _ = p.Col(pk[k])
			}
			jb, err := NewJoinBuild(c, b.NumRows(), buildKeys)
			if err != nil {
				tb.Fatalf("%s: NewJoinBuild: %v", at, err)
			}
			li, ri = li[:0], ri[:0]
			const morsel = 13
			for lo := 0; lo < p.NumRows(); lo += morsel {
				hi := min(lo+morsel, p.NumRows())
				mk := make([]*bat.BAT, m)
				for k, col := range probeCols {
					mk[k] = col.Gather(nil, seqIdx(lo, hi))
				}
				ml, mr, err := probePairs(c, jb, hi-lo, mk, leftOuter, 5)
				if err != nil {
					tb.Fatalf("%s: Probe: %v", at, err)
				}
				for k := range ml {
					li, ri = append(li, ml[k]+lo), append(ri, mr[k])
				}
			}
			jb.Release(c)
			samePairs(tb, at+" JoinBuild.Scatter", li, ri, wantLi, wantRi)
		}
	}

	for _, w := range workers {
		c := exec.NewCtx(w, nil, nil)
		at := fmt.Sprintf("%s workers=%d", label, w)
		got, err := GroupBy(c, b, bk, hashOpsAggs)
		if err != nil {
			tb.Fatalf("%s: GroupBy: %v", at, err)
		}
		bitwiseSame(tb, at+" GroupBy", wantGroups, got)

		kt := make([]bat.Type, m)
		kv := make([]*bat.Vector, m)
		for k, name := range bk {
			col, _ := b.Col(name)
			kv[k] = col.Vector()
			kt[k] = kv[k].Type()
		}
		vcol, _ := b.Col("bv")
		v := vcol.Vector().Floats()
		sa, err := NewStreamAgg(c, "b", bk, kt, hashOpsAggs)
		if err != nil {
			tb.Fatal(err)
		}
		const morsel = 1000
		for lo := 0; lo < b.NumRows(); lo += morsel {
			hi := min(lo+morsel, b.NumRows())
			mk := make([]*bat.Vector, m)
			for k := range kv {
				mk[k] = kv[k].Gather(nil, seqIdx(lo, hi))
			}
			in := [][]float64{nil, v[lo:hi], v[lo:hi], v[lo:hi]}
			if err := sa.Consume(mk, in, hi-lo); err != nil {
				tb.Fatalf("%s: Consume: %v", at, err)
			}
		}
		got, err = sa.Finish()
		if err != nil {
			tb.Fatalf("%s: Finish: %v", at, err)
		}
		bitwiseSame(tb, at+" StreamAgg", wantGroups, got)

		distinct, err := GroupBy(c, bkeys, bk, nil)
		if err != nil {
			tb.Fatalf("%s: zero-aggregate GroupBy: %v", at, err)
		}
		bitwiseSame(tb, at+" Distinct", wantDistinct, distinct)
	}
}

func seqIdx(lo, hi int) []int {
	idx := make([]int, hi-lo)
	for k := range idx {
		idx[k] = lo + k
	}
	return idx
}

// keyShapes pair probe and build key types: same-type keys, Int against
// Float (Int 1 must match Float 1.0), and composite keys mixing strings
// with either.
var keyShapes = []struct{ probe, build []bat.Type }{
	{[]bat.Type{bat.Int}, []bat.Type{bat.Int}},
	{[]bat.Type{bat.Float}, []bat.Type{bat.Float}},
	{[]bat.Type{bat.Int}, []bat.Type{bat.Float}},
	{[]bat.Type{bat.String}, []bat.Type{bat.String}},
	{[]bat.Type{bat.String, bat.Int}, []bat.Type{bat.String, bat.Float}},
	{[]bat.Type{bat.Float, bat.Int}, []bat.Type{bat.Int, bat.Int}},
}

// TestHashIndexAdversarialKeys is the differential test of every hash
// operator against the nested-loop references on adversarial keys, at
// build sizes around the chunk and parallel cutoffs and workers 1, 2, 8.
func TestHashIndexAdversarialKeys(t *testing.T) {
	const probeRows = 64
	sizes := []int{0, 1, bat.SerialCutoff - 1, bat.SerialCutoff + 1, 3 * bat.SerialCutoff}
	for si, shape := range keyShapes {
		rng := rand.New(rand.NewSource(int64(si + 1)))
		pcells := make([]int, probeRows*len(shape.probe))
		for x := range pcells {
			pcells[x] = rng.Intn(1 << 16)
		}
		m := len(shape.probe)
		p := keyRel("p", shape.probe, probeRows, func(k, i int) int { return pcells[i*m+k] })
		for _, n := range sizes {
			bcells := make([]int, n*m)
			for x := range bcells {
				bcells[x] = rng.Intn(1 << 16)
			}
			b := keyRel("b", shape.build, n, func(k, i int) int { return bcells[i*m+k] })
			checkHashOps(t, fmt.Sprintf("shape=%d build=%d", si, n), p, b, m, []int{1, 2, 8})
		}
	}
}

// TestHashIndexChains checks the index itself on hashes crafted to share
// a bucket (equal low bits, different high bits): a chain walk from a
// bucket's head visits exactly the entries of that bucket, in ascending
// order when built in one pass, and as a set when linked one entry at a
// time in ascending order as a group table links its groups.
func TestHashIndexChains(t *testing.T) {
	const n = 1000
	h := make([]uint64, n)
	for j := range h {
		// Five buckets of any table with more than four buckets, each
		// holding eight distinct full hashes.
		h[j] = uint64(j%8)<<40 | uint64(j%5)
	}
	c := exec.NewCtx(1, nil, nil)
	bulk := indexRows(c, h)
	grown := &hashIndex{}
	grown.alloc(c, n)
	for j := range h {
		grown.link(j, h[j])
	}
	for _, ix := range []*hashIndex{bulk, grown} {
		for _, b := range []uint64{0, 1, 2, 3, 4, 7} {
			var want []int
			for j := range h {
				if h[j]&ix.mask == b {
					want = append(want, j)
				}
			}
			var got []int
			for e := ix.head[b]; e >= 0; e = ix.next[e] {
				got = append(got, e)
			}
			name := "bulk"
			if ix == grown {
				// Grown chains need not be ascending; compare as sets.
				name = "grown"
				sort.Ints(got)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: bucket %d visits %v, want %v", name, b, got, want)
			}
		}
	}
	bulk.release(c)
	grown.release(c)
}

// TestHashIndexArenaReleased checks the arena books of every operator on
// the hash index: the index is charged while it lives, and after
// HashJoin, GroupBy, JoinBuild.Release, StreamAgg.Finish (resident and
// spilled) and a zero-aggregate GroupBy (DISTINCT) — with the result
// columns handed back — the tenant's live bytes are where they started.
func TestHashIndexArenaReleased(t *testing.T) {
	const n = 5000
	cells := func(k, i int) int { return (i*7919 + k) % 4093 }
	p := keyRel("p", []bat.Type{bat.Int, bat.String}, n, cells)
	b := keyRel("b", []bat.Type{bat.Int, bat.String}, n, cells)
	pk, bk := keyNames("p", 2), keyNames("b", 2)
	// A bulk index over n rows holds at least 2n buckets and n links.
	indexBytes := int64(8 * 3 * n)

	c, tn := tenantCtx("hash-index")
	start := tn.LiveBytes()
	drained := func(label string, res *Relation) {
		t.Helper()
		if res != nil {
			for _, col := range res.Cols {
				bat.Release(c, col)
			}
		}
		if got := tn.LiveBytes(); got != start {
			t.Fatalf("%s: live bytes %d, want %d", label, got, start)
		}
	}

	res, err := HashJoin(c, p, b, pk, bk, Inner)
	if err != nil {
		t.Fatal(err)
	}
	if tn.PeakBytes()-start < indexBytes {
		t.Fatalf("HashJoin peak %d bytes over the start: the index is not charged", tn.PeakBytes()-start)
	}
	drained("HashJoin", res)

	res, err = GroupBy(c, b, bk, hashOpsAggs)
	if err != nil {
		t.Fatal(err)
	}
	drained("GroupBy", res)

	keys := make([]*bat.BAT, 2)
	for k, name := range bk {
		keys[k], _ = b.Col(name)
	}
	jb, err := NewJoinBuild(c, n, keys)
	if err != nil {
		t.Fatal(err)
	}
	if live := tn.LiveBytes() - start; live < indexBytes {
		t.Fatalf("JoinBuild holds %d live bytes, want at least %d", live, indexBytes)
	}
	jb.Release(c)
	drained("JoinBuild.Release", nil)

	kt := []bat.Type{bat.Int, bat.String}
	kv := make([]*bat.Vector, 2)
	for k := range keys {
		kv[k] = keys[k].Vector()
	}
	vcol, _ := b.Col("bv")
	v := vcol.Vector().Floats()
	in := [][]float64{nil, v, v, v}
	for _, spill := range []bool{false, true} {
		sc := c
		var sp *exec.Spill
		if spill {
			sp = exec.NewSpill(t.TempDir(), 1)
			sc = c.WithSpill(sp)
		}
		sa, err := NewStreamAgg(sc, "b", bk, kt, hashOpsAggs)
		if err != nil {
			t.Fatal(err)
		}
		if err := sa.Consume(kv, in, n); err != nil {
			t.Fatal(err)
		}
		if tn.LiveBytes() == start {
			t.Fatalf("StreamAgg spill=%v: the group index is not charged", spill)
		}
		res, err = sa.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if spill && sp.Stats().SpilledBytes == 0 {
			t.Fatal("StreamAgg did not spill")
		}
		sp.Cleanup()
		drained(fmt.Sprintf("StreamAgg.Finish spill=%v", spill), res)
	}

	bkeys, _ := b.Project(bk...)
	res, err = GroupBy(c, bkeys, bk, nil)
	if err != nil {
		t.Fatal(err)
	}
	drained("Distinct", res)
}

// FuzzHashJoinGroup runs the differential harness of
// TestHashIndexAdversarialKeys on fuzzed typed key columns: the first
// bytes pick the key arity and each side's column types, the next two
// the row counts, and the rest index the adversarial pools cell by cell.
// A zero-key JoinBuild over the same row counts is checked against the
// nested-loop cross product.
func FuzzHashJoinGroup(f *testing.F) {
	f.Add([]byte{1, 0, 1, 40, 90, 3, 5, 7, 6, 5, 4, 3, 2, 1, 0, 11, 9})
	f.Add([]byte{2, 2, 0, 2, 1, 17, 33, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{0, 1, 1, 200, 255, 5, 6, 5, 6, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		types := []bat.Type{bat.Int, bat.Float, bat.String}
		m := 1 + int(data[0])%2
		var pt, bt []bat.Type
		for k := 0; k < m; k++ {
			pt = append(pt, types[int(data[1+k])%3])
			bt = append(bt, types[int(data[1+k]>>2)%3])
		}
		pn, bn := int(data[1+m])%64, int(data[2+m])
		rest := data[3+m:]
		cell := func(off int) func(k, i int) int {
			return func(k, i int) int {
				if len(rest) == 0 {
					return 0
				}
				return int(rest[(off+i*m+k)%len(rest)])
			}
		}
		p := keyRel("p", pt, pn, cell(0))
		b := keyRel("b", bt, bn, cell(pn*m))
		checkHashOps(t, "fuzz", p, b, m, []int{1, 2})
		checkCrossPairs(t, "fuzz cross", pn, bn, 7, []int{1, 2})
	})
}
