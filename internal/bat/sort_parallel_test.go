package bat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/exec"
)

// refStablePerm is the single-goroutine reference permutation the parallel
// merge sort is pinned against.
func refStablePerm(n int, less func(a, b int) bool) []int {
	idx := make([]int, n)
	for k := range idx {
		idx[k] = k
	}
	sort.SliceStable(idx, func(a, b int) bool { return less(idx[a], idx[b]) })
	return idx
}

func permsEqual(t *testing.T, name string, n, workers int, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s n=%d workers=%d: length %d vs %d", name, n, workers, len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%s n=%d workers=%d: position %d = %d, want %d", name, n, workers, k, got[k], want[k])
		}
	}
}

// TestSortIndexIdenticalAcrossWorkers asserts the merge-sorted permutation
// over a duplicate-heavy float key is identical to the serial stable sort
// at worker budgets 1, 2, and 8, across the chunk-boundary sizes. Run with
// -race this also exercises the parallel run sorts and merges.
func TestSortIndexIdenticalAcrossWorkers(t *testing.T) {
	for _, n := range chunkBoundarySizes() {
		rng := rand.New(rand.NewSource(int64(n)))
		f := make([]float64, n)
		for k := range f {
			f[k] = float64(rng.Intn(97)) / 3 // heavy duplication → stability matters
		}
		want := refStablePerm(n, func(a, b int) bool { return f[a] < f[b] })
		b := FromFloats(f)
		for _, workers := range []int{1, 2, 8} {
			idx := SortIndex(exec.New(workers), []*BAT{b})
			permsEqual(t, "sortindex-float", n, workers, idx, want)
			exec.Shared().FreeInts(idx)
		}
	}
}

// TestSortIndexMultiKeyIdenticalAcrossWorkers covers the multi-key
// comparator path (int then string) above the serial cutoff.
func TestSortIndexMultiKeyIdenticalAcrossWorkers(t *testing.T) {
	n := SerialCutoff + 1
	rng := rand.New(rand.NewSource(42))
	ints := make([]int64, n)
	strs := make([]string, n)
	tags := []string{"p", "q", "r", "s"}
	for k := range ints {
		ints[k] = int64(rng.Intn(5))
		strs[k] = tags[rng.Intn(len(tags))]
	}
	bi, bs := FromInts(ints), FromStrings(strs)
	want := refStablePerm(n, func(a, b int) bool {
		if ints[a] != ints[b] {
			return ints[a] < ints[b]
		}
		return strs[a] < strs[b]
	})
	for _, workers := range []int{1, 2, 8} {
		idx := SortIndex(exec.New(workers), []*BAT{bi, bs})
		permsEqual(t, "sortindex-multikey", n, workers, idx, want)
		exec.Shared().FreeInts(idx)
	}
}

// TestSortStableIsStable verifies the defining property directly: among
// equal keys, original positions stay ascending — at sizes on both sides
// of the parallel boundary.
func TestSortStableIsStable(t *testing.T) {
	for _, n := range []int{SerialCutoff - 1, SerialCutoff + 1, 3*SerialCutoff + 17} {
		keys := make([]int, n)
		for k := range keys {
			keys[k] = k % 7
		}
		idx := SortStable(exec.New(8), n, func(a, b int) bool { return keys[a] < keys[b] })
		for k := 1; k < n; k++ {
			ka, kb := keys[idx[k-1]], keys[idx[k]]
			if ka > kb {
				t.Fatalf("n=%d: not sorted at %d", n, k)
			}
			if ka == kb && idx[k-1] > idx[k] {
				t.Fatalf("n=%d: stability violated at %d: %d before %d", n, k, idx[k-1], idx[k])
			}
		}
		exec.Shared().FreeInts(idx)
	}
}

// TestSortStableMatchesReference pins SortStable to the stable reference
// around its block and serial-cutoff widths and at a size of several
// parallel runs, on heavily duplicated and on distinct keys, at worker
// budgets 1, 2 and 8.
func TestSortStableMatchesReference(t *testing.T) {
	sizes := []int{0, 1, 2, sortBlock - 1, sortBlock, sortBlock + 1, SerialCutoff - 1, SerialCutoff,
		SerialCutoff + 1, 5*SerialCutoff + 321, 8*SerialCutoff + 5}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(int64(n)))
		dups := make([]int, n)
		distinct := rng.Perm(n)
		for k := range dups {
			dups[k] = rng.Intn(5)
		}
		for _, kc := range []struct {
			name string
			keys []int
		}{{"dups", dups}, {"distinct", distinct}} {
			name, keys := kc.name, kc.keys
			less := func(a, b int) bool { return keys[a] < keys[b] }
			want := refStablePerm(n, less)
			for _, workers := range []int{1, 2, 8} {
				c := exec.New(workers)
				got := SortStable(c, n, less)
				permsEqual(t, name, n, workers, got, want)
				c.Arena().FreeInts(got)
			}
		}
	}

	// One key around the bounds of the radix sort's counting pass, read
	// as Int and as float bits, ASC and DESC, through SortKeys: both
	// radix paths must return SortStable's permutation.
	const n = 1000
	for _, kc := range countingKeyCases(n) {
		fs := make([]float64, n)
		for i, x := range kc.keys {
			fs[i] = math.Float64frombits(uint64(x))
		}
		for _, key := range []*Vector{NewIntVector(kc.keys), NewFloatVector(fs)} {
			for _, desc := range []bool{false, true} {
				lessKey := keyLess([]*Vector{key}, []bool{false})
				less := func(a, b int) bool { return lessKey(a, b) }
				if desc {
					less = func(a, b int) bool { return lessKey(b, a) }
				}
				want := refStablePerm(n, less)
				name := fmt.Sprintf("counting %s %v desc=%v", kc.name, key.Type(), desc)
				for _, workers := range []int{1, 8} {
					c := exec.New(workers)
					got := SortKeys(c, []*Vector{key}, []bool{desc})
					permsEqual(t, name, n, workers, got, want)
					c.Arena().FreeInts(got)
				}
			}
		}
	}
}

// countingKeyCases are single keys of n rows (n above 512) around the
// bounds of radixSortIndex's counting pass, a span above 255 and below
// n: spans of n-1 (a permutation of [m, m+n) with m negative), n and
// n+1, 255 and 256, duplicates under a narrow span, narrow keys at either
// end of the Int domain and beside both extremes at once (a span that
// must not overflow into the pass), and words whose float reading has a
// narrow canonical span, positive and negative.
func countingKeyCases(n int) []struct {
	name string
	keys []int64
} {
	rng := rand.New(rand.NewSource(int64(n)))
	// spread returns n keys lo + [0, span], both ends present.
	spread := func(lo int64, span int) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = lo + int64(rng.Intn(span+1))
		}
		xs[rng.Intn(n/2)], xs[n/2+rng.Intn(n/2)] = lo, lo+int64(span)
		return xs
	}
	shifted := func(base int64, step int64) []int64 {
		xs := make([]int64, n)
		for i, p := range rng.Perm(n) {
			xs[i] = base + step*int64(p)
		}
		return xs
	}
	extremes := spread(-37, n/2)
	extremes[1], extremes[n-2] = math.MaxInt64, math.MinInt64
	return []struct {
		name string
		keys []int64
	}{
		{"perm-negative", shifted(-int64(n)-123, 1)},
		{"dups-narrow", spread(-300, n/2-1)},
		{"span-n-1", spread(5, n-1)},
		{"span-n", spread(-5, n)},
		{"span-n+1", spread(1<<40, n+1)},
		{"span-255", spread(-128, 255)},
		{"span-256", spread(-128, 256)},
		{"min-edge", shifted(math.MinInt64, 1)},
		{"max-edge", shifted(math.MaxInt64, -1)},
		{"extremes", extremes},
		{"float-narrow", shifted(0x3ff0_0000_0000_0000, 1)},
		{"float-narrow-negative", shifted(-0x4010_0000_0000_0000, 1)},
	}
}

// floatOrderLess is the total order SortIndex sorts a float key under:
// IEEE < (so −0 = +0), extended by one NaN class ordered after +Inf.
func floatOrderLess(x, y float64) bool {
	return x < y || (x == x && y != y)
}

var (
	intExtremes   = []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, -1, 0, 1}
	floatSpecials = []float64{
		math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0_0000_0000_0002), math.Float64frombits(0xfff8_0000_0000_0000),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1, -1,
	}
)

// intKeyCases and floatKeyCases cover signs, heavy duplication, the
// extremes, and keys that differ only in their top or only in their bottom
// byte, so the radix sort's digit skipping runs both ways.
var intKeyCases = []struct {
	name string
	gen  func(rng *rand.Rand, i int) int64
}{
	{"random", func(rng *rand.Rand, _ int) int64 { return rng.Int63() - 1<<62 }},
	{"dups", func(rng *rand.Rand, _ int) int64 { return int64(rng.Intn(7) - 3) }},
	{"extremes", func(rng *rand.Rand, _ int) int64 { return intExtremes[rng.Intn(len(intExtremes))] }},
	{"top-byte", func(rng *rand.Rand, _ int) int64 { return int64(uint64(rng.Intn(256)) << 56) }},
	{"bottom-byte", func(rng *rand.Rand, _ int) int64 { return -0x1234_5678_9abc_de00 + int64(rng.Intn(256)) }},
	{"descending", func(_ *rand.Rand, i int) int64 { return int64(-i) }},
}

var floatKeyCases = []struct {
	name string
	gen  func(rng *rand.Rand, i int) float64
}{
	{"random", func(rng *rand.Rand, _ int) float64 { return rng.NormFloat64() * 1e3 }},
	{"dups", func(rng *rand.Rand, _ int) float64 { return float64(rng.Intn(9)-4) / 2 }},
	{"specials", func(rng *rand.Rand, _ int) float64 { return floatSpecials[rng.Intn(len(floatSpecials))] }},
	{"top-byte", func(rng *rand.Rand, _ int) float64 { return math.Float64frombits(uint64(rng.Intn(256)) << 56) }},
	{"bottom-byte", func(rng *rand.Rand, _ int) float64 {
		return math.Float64frombits(0xbff0_0000_0000_0000 | uint64(rng.Intn(256)))
	}},
	{"ascending-zeros", func(_ *rand.Rand, i int) float64 {
		if i%2 == 0 {
			return math.Copysign(0, -1)
		}
		return 0
	}},
}

// checkSortIndex pins SortIndex over one dense key column to the stable
// reference permutation at the given worker budgets.
func checkSortIndex(t *testing.T, name string, b *BAT, want []int, workers ...int) {
	t.Helper()
	for _, w := range workers {
		c := exec.New(w)
		idx := SortIndex(c, []*BAT{b})
		permsEqual(t, name, b.Len(), w, idx, want)
		c.Arena().FreeInts(idx)
	}
}

// TestSortIndexRadixMatchesStable asserts that the radix-sorted
// permutation of a single dense Int or Float key equals sort.SliceStable's
// at every worker budget, around the radix (256) and parallel
// (SerialCutoff) boundaries.
func TestSortIndexRadixMatchesStable(t *testing.T) {
	sizes := []int{0, 1, 2, 255, 256, 257, SerialCutoff - 1, SerialCutoff + 1, 3 * SerialCutoff}
	for _, n := range sizes {
		for _, kc := range intKeyCases {
			rng := rand.New(rand.NewSource(int64(n)))
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = kc.gen(rng, i)
			}
			want := refStablePerm(n, func(a, b int) bool { return xs[a] < xs[b] })
			checkSortIndex(t, "int-"+kc.name, FromInts(xs), want, 1, 2, 8)
		}
		for _, kc := range floatKeyCases {
			rng := rand.New(rand.NewSource(int64(n)))
			f := make([]float64, n)
			for i := range f {
				f[i] = kc.gen(rng, i)
			}
			want := refStablePerm(n, func(a, b int) bool { return floatOrderLess(f[a], f[b]) })
			checkSortIndex(t, "float-"+kc.name, FromFloats(f), want, 1, 2, 8)
		}
	}
}

// TestSortIndexFloatOrder pins one float order on both SortIndex paths:
// a float key alone (radix sort) and the same key paired with a unique
// row id (merge sort under keyLess) order ±0, ±Inf and every
// NaN payload alike — NaN after +Inf — at workers 1, 2 and 8, with
// every fifth row NaN.
func TestSortIndexFloatOrder(t *testing.T) {
	n := 6*SerialCutoff + 13
	rng := rand.New(rand.NewSource(5))
	f := make([]float64, n)
	ids := make([]int64, n)
	for i := range f {
		ids[i] = int64(i)
		switch {
		case i%5 == 0:
			f[i] = math.NaN()
		case i%3 == 0:
			f[i] = floatSpecials[rng.Intn(len(floatSpecials))]
		default:
			f[i] = float64(rng.Intn(9)-4) / 2
		}
	}
	want := refStablePerm(n, func(a, b int) bool { return floatOrderLess(f[a], f[b]) })
	for _, w := range []int{1, 2, 8} {
		c := exec.New(w)
		idx := SortIndex(c, []*BAT{FromFloats(f)})
		permsEqual(t, "radix", n, w, idx, want)
		c.Arena().FreeInts(idx)
		idx = SortIndex(c, []*BAT{FromFloats(f), FromInts(ids)})
		permsEqual(t, "merge", n, w, idx, want)
		c.Arena().FreeInts(idx)
	}
}

// FuzzSortIndex reads 8-byte words as int64 keys (arithmetically shifted
// right by data[0]%64, which breeds duplicates and constant digits) and
// reinterprets the same bits as float keys; both columns must sort exactly
// like the stable reference through SortIndex's radix sort. data[1:3]
// then pick 1–3 keys for SortKeys, each an Int, Float or String column
// drawn from the same words and each with its own desc flag: one numeric
// key takes the radix path, every other list the merge path, and both
// must match the stable reference under the order spelled out here.
func FuzzSortIndex(f *testing.F) {
	f.Add([]byte{0, 12, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 255, 254, 253, 252, 251, 250, 249, 248})
	f.Add([]byte{60, 7, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Add([]byte{3, 0x5e, 0x9c, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0x80, 9, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	// The counting pass's bounds, each as one ascending key (spec 0), one
	// descending Int key (spec 9) and one descending Float key (spec 12).
	for _, kc := range countingKeyCases(600) {
		for _, spec := range []int{0, 9, 12} {
			seed := []byte{0, byte(spec), byte(spec >> 8)}
			for _, x := range kc.keys {
				seed = binary.LittleEndian.AppendUint64(seed, uint64(x))
			}
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		shift := data[0] % 64
		spec := int(data[1]) | int(data[2])<<8
		words := data[3:]
		n := len(words) / 8
		xs := make([]int64, n)
		fs := make([]float64, n)
		for i := range xs {
			xs[i] = int64(binary.LittleEndian.Uint64(words[8*i:])) >> shift
			fs[i] = math.Float64frombits(uint64(xs[i]))
		}
		lessI := func(a, b int) bool { return xs[a] < xs[b] }
		wantI := refStablePerm(n, lessI)
		checkSortIndex(t, "fuzz-int", FromInts(xs), wantI, 1, 8)
		checkTopKeys(t, "fuzz-topk-int", []*Vector{NewIntVector(xs)}, nil, wantI, lessI, int(shift), 1, 8)
		lessF := func(a, b int) bool { return floatOrderLess(fs[a], fs[b]) }
		wantF := refStablePerm(n, lessF)
		checkSortIndex(t, "fuzz-float", FromFloats(fs), wantF, 1, 8)
		checkTopKeys(t, "fuzz-topk-float", []*Vector{NewFloatVector(fs)}, nil, wantF, lessF, int(shift), 1, 8)

		// Key k reads word (i*(2k+1)+k) mod n at row i, so the keys
		// differ and tie in different places.
		nkeys := 1 + spec%3
		spec /= 3
		keys := make([]*Vector, nkeys)
		desc := make([]bool, nkeys)
		for k := range keys {
			typ := spec % 3
			desc[k] = spec/3%2 == 1
			spec /= 6
			is, gs, ss := make([]int64, n), make([]float64, n), make([]string, n)
			for i := range is {
				w := xs[(i*(2*k+1)+k)%n]
				var buf [8]byte
				binary.LittleEndian.PutUint64(buf[:], uint64(w))
				is[i], gs[i], ss[i] = w, math.Float64frombits(uint64(w)), string(buf[:uint64(w)%9])
			}
			keys[k] = [...]*Vector{NewIntVector(is), NewFloatVector(gs), NewStringVector(ss)}[typ]
		}
		less := refKeysLess(keys, desc)
		want := refStablePerm(n, less)
		for _, w := range []int{1, 8} {
			c := exec.New(w)
			idx := SortKeys(c, keys, desc)
			permsEqual(t, "fuzz-sortkeys", n, w, idx, want)
			c.Arena().FreeInts(idx)
		}
		checkTopKeys(t, "fuzz-topkeys", keys, desc, want, less, int(data[1]), 1, 8)
	})
}

// refKeysLess is the row order of the sort references: lexicographic
// over keys, desc[k] reversing key k, with floats under floatOrderLess.
func refKeysLess(keys []*Vector, desc []bool) func(a, b int) bool {
	return func(a, b int) bool {
		for k, v := range keys {
			x, y := a, b
			if desc[k] {
				x, y = b, a
			}
			var lt, gt bool
			switch v.Type() {
			case Int:
				lt, gt = v.Ints()[x] < v.Ints()[y], v.Ints()[x] > v.Ints()[y]
			case Float:
				lt, gt = floatOrderLess(v.Floats()[x], v.Floats()[y]), floatOrderLess(v.Floats()[y], v.Floats()[x])
			default:
				lt, gt = v.Strings()[x] < v.Strings()[y], v.Strings()[x] > v.Strings()[y]
			}
			if lt || gt {
				return lt
			}
		}
		return false
	}
}

// refIsKey is the plain reference of KeyIndex's verdict: no Float key
// holds a NaN, and the rows' key tuples are distinct in a map, each
// value spelled in bits, with −0 spelled as +0.
func refIsKey(keys []*Vector) bool {
	n := keys[0].Len()
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		var tuple []byte
		for _, v := range keys {
			switch v.Type() {
			case Int:
				tuple = binary.LittleEndian.AppendUint64(tuple, uint64(v.Ints()[i]))
			case Float:
				f := v.Floats()[i]
				if f != f {
					return false
				}
				if f == 0 {
					f = 0
				}
				tuple = binary.LittleEndian.AppendUint64(tuple, math.Float64bits(f))
			default:
				s := v.Strings()[i]
				tuple = binary.AppendUvarint(tuple, uint64(len(s)))
				tuple = append(tuple, s...)
			}
		}
		if seen[string(tuple)] {
			return false
		}
		seen[string(tuple)] = true
	}
	return true
}

// keyIndexSeed encodes n rows of FuzzKeyIndex input: the shift of the
// first key, the key spec and one word per row.
func keyIndexSeed(shift, spec byte, words []int64) []byte {
	seed := []byte{shift, spec}
	for _, w := range words {
		seed = binary.LittleEndian.AppendUint64(seed, uint64(w))
	}
	return seed
}

// FuzzKeyIndex pins KeyIndex, the sort that also says whether its keys
// are a key, to SortKeys' permutation and to refIsKey's verdict, at
// workers 1 and 8 and under a tenant budget of the merge sort's own
// serial buffers (n + n/2 ints), which refuses every radix buffer past
// the result whose path is then the merge sort; there it must also leave
// no byte charged once the permutation is handed back. data[1] picks
// 1–3 keys, each an Int, Float or String column, and the rows read 8-byte
// words: key 0 the words shifted right by data[0]%64 (which breeds
// repeats and narrow spans), key k > 0 word (i*(2k+1)+k) mod n.
func FuzzKeyIndex(f *testing.F) {
	const n = 600
	rng := rand.New(rand.NewSource(52))
	shuffled := func(id func(p int) int64) []int64 {
		xs := make([]int64, n)
		for i, p := range rng.Perm(n) {
			xs[i] = id(p)
		}
		return xs
	}
	dense := shuffled(func(p int) int64 { return int64(p) })                               // span n − 1
	gapped := shuffled(func(p int) int64 { return int64(p + p/2) })                        // span ~1.5n: LSD, then keyTies
	floatNarrow := shuffled(func(p int) int64 { return 0x3ff0_0000_0000_0000 + int64(p) }) // floats from 1, one ulp apart
	floatIDs := shuffled(func(p int) int64 { return int64(math.Float64bits(float64(p + 1))) })
	lastDup := append([]int64(nil), dense...)
	lastDup[n-1] = lastDup[0]
	ascending := make([]int64, n) // 0, 1, ..., n/2, n/2, ..., n − 2
	for i := range ascending {
		ascending[i] = int64(i)
		if i > n/2 {
			ascending[i]--
		}
	}
	nanKey := append([]int64(nil), floatIDs...)
	nanKey[1] = int64(math.Float64bits(math.NaN()))
	zeros := append([]int64(nil), floatIDs...)
	zeros[5], zeros[n-5] = 0, math.MinInt64 // +0 and −0 as float bits
	extremes := append([]int64(nil), dense...)
	extremes[3], extremes[n-3] = math.MinInt64, math.MaxInt64
	// spec: 1 + spec%3 keys, then each key's type (0 Int, 1 Float, 2
	// String) in base 3.
	for _, words := range [][]int64{dense, gapped, lastDup, ascending, extremes} {
		f.Add(keyIndexSeed(0, 0, words))
	}
	for _, words := range [][]int64{floatNarrow, floatIDs, nanKey, zeros} {
		f.Add(keyIndexSeed(0, 3, words))
	}
	f.Add(keyIndexSeed(1, 0, dense))                  // ids / 2: span below n − 1
	f.Add(keyIndexSeed(0, 6, extremes))               // one String key
	f.Add(keyIndexSeed(8, 1, dense))                  // (Int >> 8, Int): key 0 ties in runs
	f.Add(keyIndexSeed(9, 2+3*(0+3*(1+3*2)), gapped)) // (Int >> 9, Float, String)
	f.Add(keyIndexSeed(0, 2+3*(2+3*1), zeros))        // (String, Float, Int)
	f.Add(keyIndexSeed(0, 1+3*(0+3*1), nanKey))       // (Int, Float): a NaN off key 0
	for m := 0; m <= 2; m++ {
		f.Add(keyIndexSeed(0, 0, []int64{8, 7}[:m]))
		f.Add(keyIndexSeed(0, 3, nanKey[1:1+m]))
	}
	f.Add(keyIndexSeed(0, 0, []int64{7, 7}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		shift, spec := data[0]%64, int(data[1])
		words := data[2:]
		n := len(words) / 8
		nkeys := 1 + spec%3
		spec /= 3
		keys := make([]*Vector, nkeys)
		bats := make([]*BAT, nkeys)
		for k := range keys {
			typ := spec % 3
			spec /= 3
			is, fs, ss := make([]int64, n), make([]float64, n), make([]string, n)
			for i := range is {
				w := int64(binary.LittleEndian.Uint64(words[8*i:])) >> shift
				if k > 0 {
					w = int64(binary.LittleEndian.Uint64(words[8*((i*(2*k+1)+k)%n):]))
				}
				var buf [8]byte
				binary.LittleEndian.PutUint64(buf[:], uint64(w))
				is[i], fs[i], ss[i] = w, math.Float64frombits(uint64(w)), string(buf[:uint64(w)%9])
			}
			bats[k] = [...]*BAT{FromInts(is), FromFloats(fs), FromStrings(ss)}[typ]
			keys[k] = bats[k].Vector()
		}
		want := SortKeys(exec.New(1), keys, nil)
		permsEqual(t, "fuzz-sortkeys-ref", n, 1, want, refStablePerm(n, refKeysLess(keys, make([]bool, nkeys))))
		wantKey := refIsKey(keys)
		for _, w := range []int{1, 8} {
			c := exec.New(w)
			idx, key := KeyIndex(c, bats)
			permsEqual(t, "fuzz-keyindex", n, w, idx, want)
			if key != wantKey {
				t.Fatalf("workers=%d: KeyIndex says key=%v, the map reference %v", w, key, wantKey)
			}
			c.Arena().FreeInts(idx)
		}
		tn := exec.NewGovernor(0, 0).Tenant("keyindex", intsCharge(n)+intsCharge(n/2))
		a := tn.NewArena()
		defer a.Close()
		idx, key := KeyIndex(exec.NewCtx(1, a, nil), bats)
		permsEqual(t, "fuzz-keyindex-budget", n, 1, idx, want)
		if key != wantKey {
			t.Fatalf("budgeted: KeyIndex says key=%v, the map reference %v", key, wantKey)
		}
		a.FreeInts(idx)
		if live := tn.LiveBytes(); live != 0 {
			t.Fatalf("budgeted: %d bytes live after the permutation was handed back", live)
		}
	})
}

// checkTopKeys pins TopKeys to the prefixes of want, the stable reference
// permutation under less, at the given worker budgets. k runs over 0, 1,
// a tie boundary (the first cut of want between two rows less does not
// order), n, and past n by extra+1; n-1 stands in for the tie boundary
// when no two rows tie.
func checkTopKeys(t *testing.T, name string, keys []*Vector, desc []bool, want []int, less func(a, b int) bool, extra int, workers ...int) {
	t.Helper()
	n := len(want)
	tie := n - 1
	for p := 1; p < n; p++ {
		if !less(want[p-1], want[p]) {
			tie = p
			break
		}
	}
	for _, k := range []int{0, 1, tie, n, n + extra + 1} {
		if k < 0 {
			continue
		}
		m := min(k, n)
		for _, w := range workers {
			c := exec.New(w)
			idx := TopKeys(c, keys, desc, k)
			permsEqual(t, fmt.Sprintf("%s k=%d", name, k), n, w, idx, want[:m])
			c.Arena().FreeInts(idx)
		}
	}
}

// TestTopKeysMatchesSortKeysPrefix pins TopKeys to SortKeys' prefix at
// sizes past the parallel cutoff, where SortKeys radix-sorts one numeric
// key and merge-sorts in parallel runs: duplicate-heavy ints, floats with
// NaN and both zeros, strings, and two mixed keys, ASC and DESC, with k at
// 0, 1, a tie boundary, a morsel and one row short of n, at workers 1, 2
// and 8. TopKeys holds only its k-int result and a k/2-int scratch: it
// runs within a tenant budget of exactly those two buffers.
func TestTopKeysMatchesSortKeysPrefix(t *testing.T) {
	n := 3*SerialCutoff + 5
	rng := rand.New(rand.NewSource(46))
	is, fs, ss := make([]int64, n), make([]float64, n), make([]string, n)
	for i := range is {
		is[i] = int64(rng.Intn(50))
		if i%7 == 0 {
			fs[i] = floatSpecials[rng.Intn(len(floatSpecials))]
		} else {
			fs[i] = float64(rng.Intn(300)-150) / 4
		}
		ss[i] = fmt.Sprintf("s%d", rng.Intn(200))
	}
	iv, fv, sv := NewIntVector(is), NewFloatVector(fs), NewStringVector(ss)
	for _, tc := range []struct {
		name string
		keys []*Vector
	}{
		{"int", []*Vector{iv}},
		{"float", []*Vector{fv}},
		{"string", []*Vector{sv}},
		{"float,int", []*Vector{fv, iv}},
		{"int,string", []*Vector{iv, sv}},
	} {
		for _, d := range []bool{false, true} {
			desc := make([]bool, len(tc.keys))
			desc[0] = d
			want := SortKeys(exec.New(1), tc.keys, desc)
			tie := 1
			for keyLess(tc.keys, desc)(want[tie-1], want[tie]) {
				tie++
			}
			for _, k := range []int{0, 1, tie, MorselSize, n - 1} {
				for _, w := range []int{1, 2, 8} {
					c := exec.New(w)
					idx := TopKeys(c, tc.keys, desc, k)
					permsEqual(t, fmt.Sprintf("%s desc=%v k=%d", tc.name, d, k), n, w, idx, want[:k])
					c.Arena().FreeInts(idx)
				}
			}
		}
	}

	tn := exec.NewGovernor(0, 0).Tenant("topk", 0)
	a := tn.NewArena()
	held, tmp := a.Ints(100), a.Ints(50)
	a.FreeInts(held)
	a.FreeInts(tmp)
	tn.SetBudget(tn.PeakBytes())
	c := exec.NewCtx(2, a, nil)
	idx := TopKeys(c, []*Vector{fv, iv}, []bool{true, false}, 100)
	permsEqual(t, "budgeted", n, 2, idx, SortKeys(exec.New(1), []*Vector{fv, iv}, []bool{true, false})[:100])
	a.FreeInts(idx)
	a.Close()
}
