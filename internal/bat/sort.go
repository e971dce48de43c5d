package bat

import (
	"math"
	"slices"

	"repro/internal/exec"
)

// SortStable computes the stable ascending sort permutation of [0, n) under
// less, a strict weak ordering over original row positions (less(a, b)
// reports whether row a orders before row b). It is one buffered merge
// sort: the rows split into contiguous runs (one per worker above
// SerialCutoff, else one), each run insertion-sorts blocks of sortBlock
// rows and merges them bottom-up in place through a scratch of half its
// length, and the runs then merge pairwise, level by level, against an
// n-int buffer, preferring the left run on ties. A run always holds
// smaller original positions than the run to its right, so preferring left
// preserves stability, and because the stable permutation of a sequence is
// unique, the result is identical at any worker budget and any run width.
// Its one caller is SortKeys, which passes keyLess for every key list it
// does not radix-sort (strings, several key columns) and for a single
// key whose radix scratch the arena refuses.
//
// A single run needs only the n/2-int scratch; when the budget refuses
// the parallel sort's extra scratch, the sort runs serially on the same
// context instead (sortParallel).
//
// The permutation buffer comes from the context's arena; callers done with
// it may hand it back with c.Arena().FreeInts.
func SortStable(c *exec.Ctx, n int, less func(a, b int) bool) []int {
	idx := Identity(c, n)
	if n <= sortBlock {
		insertionSort(idx, less)
		return idx
	}
	if runs, size := c.ParallelRuns(n); runs > 1 {
		if sortParallel(c, idx, size, less) {
			return idx
		}
		c.NoteSerialFallback()
	}
	tmp := c.Arena().Ints(n / 2)
	sortRun(idx, tmp, less)
	c.Arena().FreeInts(tmp)
	return idx
}

// sortParallel is SortStable's body for more than one run. Its scratch is
// the n-int merge buffer, which a serial sort does not hold. It draws the
// buffer through TryInts before sorting and reports false, holding none,
// when the arena refuses; idx then holds the identity, from which the
// serial sort reaches the same stable permutation.
func sortParallel(c *exec.Ctx, idx []int, size int, less func(a, b int) bool) bool {
	n := len(idx)
	a := c.Arena()
	buf := a.TryInts(n)
	if buf == nil {
		return false
	}
	sortRuns(c, idx, buf, size, less)
	src, dst := idx, buf
	for width := size; width < n; width *= 2 {
		pairs := (n + 2*width - 1) / (2 * width)
		w := width // capture per level
		c.ParallelFor(pairs, 1, func(plo, phi int) {
			for p := plo; p < phi; p++ {
				lo := p * 2 * w
				mergeRuns(dst, src, lo, min(lo+w, n), min(lo+2*w, n), less)
			}
		})
		src, dst = dst, src
	}
	if &src[0] != &idx[0] {
		copy(idx, src)
	}
	a.FreeInts(buf)
	return true
}

// sortBlock is the width of the blocks a run insertion-sorts before its
// bottom-up merge starts.
const sortBlock = 32

// sortRuns sorts each run idx[r*size : (r+1)*size] in place against the
// same rows of scratch, which is as long as idx.
func sortRuns(c *exec.Ctx, idx, scratch []int, size int, less func(a, b int) bool) {
	n := len(idx)
	c.ParallelFor((n+size-1)/size, 1, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			sortRun(idx[r*size:min((r+1)*size, n)], scratch[r*size:], less)
		}
	})
}

// sortRun stably sorts s in place: it insertion-sorts blocks of sortBlock
// rows, then merges them bottom-up with mergeInPlace. Two merged runs
// never hold more than len(s) rows, so the shorter one fits in tmp when
// len(tmp) >= len(s)/2.
func sortRun(s, tmp []int, less func(a, b int) bool) {
	n := len(s)
	for lo := 0; lo < n; lo += sortBlock {
		insertionSort(s[lo:min(lo+sortBlock, n)], less)
	}
	for w := sortBlock; w < n; w *= 2 {
		for lo := 0; lo+w < n; lo += 2 * w {
			mergeInPlace(s[lo:min(lo+2*w, n)], w, tmp, less)
		}
	}
}

// insertionSort stably sorts s in place.
func insertionSort(s []int, less func(a, b int) bool) {
	for i := 1; i < len(s); i++ {
		v, j := s[i], i
		for ; j > 0 && less(v, s[j-1]); j-- {
			s[j] = s[j-1]
		}
		s[j] = v
	}
}

// mergeInPlace stably merges the sorted runs s[:mid] and s[mid:] into s,
// taking from the left run on ties. The shorter run is copied to tmp and
// merged back from its own end of s (front to back for the left run, back
// to front for the right one), so the writes never overtake the unread
// rows of the run left in place. Runs already in order are left alone.
func mergeInPlace(s []int, mid int, tmp []int, less func(a, b int) bool) {
	if !less(s[mid], s[mid-1]) {
		return
	}
	if mid <= len(s)-mid {
		l := tmp[:copy(tmp, s[:mid])]
		i, j, k := 0, mid, 0
		for ; i < len(l) && j < len(s); k++ {
			if less(s[j], l[i]) {
				s[k] = s[j]
				j++
			} else {
				s[k] = l[i]
				i++
			}
		}
		copy(s[k:], l[i:]) // a right-run tail is already in place
		return
	}
	r := tmp[:copy(tmp, s[mid:])]
	i, j, k := mid-1, len(r)-1, len(s)-1
	for ; i >= 0 && j >= 0; k-- {
		if less(r[j], s[i]) {
			s[k] = s[i]
			i--
		} else {
			s[k] = r[j]
			j--
		}
	}
	copy(s[:j+1], r[:j+1]) // a left-run head is already in place
}

// mergeRuns stably merges the sorted runs src[lo:mid] and src[mid:hi] into
// dst[lo:hi], taking from the left run on ties. Runs already in order
// (the right run's head does not order before the left run's tail) are
// copied without further comparisons.
func mergeRuns(dst, src []int, lo, mid, hi int, less func(a, b int) bool) {
	if mid == hi || !less(src[mid], src[mid-1]) {
		copy(dst[lo:hi], src[lo:hi])
		return
	}
	i, j, k := lo, mid, lo
	for ; i < mid && j < hi; k++ {
		if less(src[j], src[i]) {
			dst[k] = src[j]
			j++
		} else {
			dst[k] = src[i]
			i++
		}
	}
	k += copy(dst[k:], src[i:mid])
	copy(dst[k:hi], src[j:hi])
}

// SortIndex computes the stable ascending sort permutation over one or more
// key columns (lexicographic, first column most significant). The returned
// slice idx satisfies: gathering any tail of the same relation by idx yields
// that tail ordered by the key columns. This is the "sorting" step of the
// paper's Algorithm 1: G <- sort(D), followed by b↓G for the other tails.
// Sparse keys are densified, and the order is SortKeys'; no key gives nil.
func SortIndex(c *exec.Ctx, keys []*BAT) []int {
	vecs := make([]*Vector, len(keys))
	for k, b := range keys {
		vecs[k] = b.VectorCtx(c)
	}
	return SortKeys(c, vecs, nil)
}

// SortKeys computes the stable sort permutation of the rows of the key
// columns, lexicographic with the first key most significant; desc[k]
// (nil: all false) sorts key k descending. It and its bounded form
// TopKeys are the one code that orders rows — ORDER BY, rel.Sort and
// SortIndex call it, ORDER BY ... LIMIT calls TopKeys — and the key
// shape alone picks the algorithm. One Int or Float key is
// radix-sorted (radixSortIndex), a descending one on complemented bits:
// in one counting pass when the key's span is narrower than n, as dense
// ids are, and by 8-bit LSD passes otherwise. If the arena refuses the
// radix sort's buffers, or for any other key
// list, SortStable merge-sorts under keyLess, after one linear pre-scan
// that returns the identity for keys already in order. Floats follow
// CompareFloat on both paths, and the stable permutation is unique, so
// the result is the same on either path and at any worker budget.
func SortKeys(c *exec.Ctx, keys []*Vector, desc []bool) []int {
	if len(keys) == 0 {
		return nil
	}
	if desc == nil {
		desc = make([]bool, len(keys))
	}
	n := keys[0].Len()
	if v := keys[0]; len(keys) == 1 && v.typ != String {
		var flip uint64 // complements every key of a descending sort
		if desc[0] {
			flip = ^flip
		}
		xs, fs, mask := v.i, v.f, signBit^flip
		key := func(i int) uint64 { return uint64(xs[i]) ^ mask }
		if v.typ == Float {
			key = func(i int) uint64 { return floatKey(fs[i]) ^ flip }
		}
		if idx := radixSortIndex(c, n, key); idx != nil {
			return idx
		}
		c.NoteSerialFallback()
	}
	less := keyLess(keys, desc)
	for i := 1; i < n; i++ {
		if less(i, i-1) {
			return SortStable(c, n, less)
		}
	}
	return Identity(c, n)
}

// TopKeys is SortKeys bounded to its first k rows: it returns exactly
// SortKeys(c, keys, desc)[:min(k, n)], drawn from the context's arena;
// k must not be negative. For k below n it keeps a max-heap of k row
// positions under keyLess, ties broken on row position — the stable
// sort's order — so a row enters only when its key orders strictly
// before the heap's last row. The survivors, put in position order, are
// then merge-sorted stably under keyLess (sortRun). Beside the k-int
// result it holds one k/2-int scratch, and it makes O(n log k)
// comparisons; k >= n sorts every row with SortKeys. This is MonetDB's
// firstn, the ORDER BY ... LIMIT k of the SQL layer.
func TopKeys(c *exec.Ctx, keys []*Vector, desc []bool, k int) []int {
	if len(keys) == 0 {
		return nil
	}
	n := keys[0].Len()
	if k >= n {
		return SortKeys(c, keys, desc)
	}
	if desc == nil {
		desc = make([]bool, len(keys))
	}
	less := keyLess(keys, desc)
	// after reports whether row a orders after row b: by key, then by
	// position, so no two rows tie.
	after := func(a, b int) bool {
		if a < b {
			return less(b, a)
		}
		return !less(a, b)
	}
	h := c.Arena().Ints(k)
	if k == 0 {
		return h
	}
	for i := range h {
		h[i] = i
	}
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(h, i, after)
	}
	// Row i follows every kept row in position, so it orders before the
	// last kept row only by key.
	for i := k; i < n; i++ {
		if less(i, h[0]) {
			h[0] = i
			siftDown(h, 0, after)
		}
	}
	// In position order, the survivors stably merge-sort into (key,
	// position) order; runs already in key order, such as rows that
	// arrived sorted, merge without comparisons.
	slices.Sort(h)
	tmp := c.Arena().Ints(k / 2)
	sortRun(h, tmp, less)
	c.Arena().FreeInts(tmp)
	return h
}

// siftDown restores the max-heap order of h under after below node i.
func siftDown(h []int, i int, after func(a, b int) bool) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if j+1 < len(h) && after(h[j+1], h[j]) {
			j++
		}
		if !after(h[j], h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// keyLess returns the row order of SortKeys' merge path: less(a, b)
// reports whether row a orders before row b under keys, desc[k] reversing
// key k. Floats compare by CompareFloat.
func keyLess(keys []*Vector, desc []bool) func(a, b int) bool {
	return func(a, b int) bool {
		for k, v := range keys {
			switch v.typ {
			case Float:
				cmp := CompareFloat(v.f[a], v.f[b])
				if cmp == 0 {
					continue
				}
				return (cmp < 0) != desc[k]
			case Int:
				x, y := v.i[a], v.i[b]
				if x == y {
					continue
				}
				return (x < y) != desc[k]
			default:
				x, y := v.s[a], v.s[b]
				if x == y {
					continue
				}
				return (x < y) != desc[k]
			}
		}
		return false
	}
}

const signBit = 1 << 63

// CanonBits returns the canonical bit pattern of a float key value: both
// zeros map to +0 and every NaN maps to one quiet NaN, so hashing and
// equality agree with IEEE equality (extended with NaN = NaN, which keeps
// NaN keys joinable like any other value).
func CanonBits(f float64) uint64 {
	if f == 0 {
		return 0
	}
	if f != f {
		return 0x7ff8_0000_0000_0001
	}
	return math.Float64bits(f)
}

// floatKey maps a float to an unsigned key with the same order: flip the
// sign bit of positives and every bit of negatives. Canonicalising first
// makes −0 and +0 one key and sorts the one NaN after +Inf.
func floatKey(f float64) uint64 {
	b := CanonBits(f)
	if b&signBit != 0 {
		return ^b
	}
	return b | signBit
}

// CompareFloat is the one float order of every sort: -1, 0 or +1 as a
// sorts before, with or after b. It is floatKey's order — both zeros
// equal, every NaN equal, NaN after +Inf — so the comparison sorts and
// the radix sort place every value alike. The ordinary comparisons come
// first; only a NaN falls through them.
func CompareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	case a == a: // b is NaN
		return -1
	case b == b: // a is NaN
		return 1
	}
	return 0
}

// radixSortIndex computes the stable ascending permutation of [0, n) under
// the unsigned keys key(i). One pre-scan checks the order and records the
// smallest and largest key; keys already in order return the identity
// before any buffer is drawn.
//
// A narrow span — max − min, computed in uint64, above 255 and below n,
// as dense ids have — sorts in one stable counting pass over key − min:
// a (span+1)-int histogram, prefix-summed into bucket offsets, then one
// scatter of the rows into the result. Any other span, and a narrow one
// whose histogram the arena refuses, takes the LSD radix sort over 8-bit
// digits: one pass builds all eight digit histograms, and a digit on
// which every row agrees is skipped, so keys spanning few low bytes (ids
// below 2^24: three scatters) pay only for the bytes that vary. Each LSD
// pass scatters the permutation alone and reads each key through it from
// the column, so beside the n-int result it holds one n-int scratch,
// returned before the result.
//
// Every buffer is drawn through TryInts, the result first: when the
// arena refuses the result or the LSD scratch, radixSortIndex frees what
// it drew and returns nil. Counting passes are stable, so both paths
// return the unique stable permutation under the key order.
func radixSortIndex(c *exec.Ctx, n int, key func(i int) uint64) []int {
	if n < 2 {
		return Identity(c, n)
	}
	// The scan runs to the first descent, then only tracks the bounds:
	// an ascending prefix spans [key(0), key(i-1)].
	lo, hi := key(0), key(0)
	i := 1
	for ; i < n; i++ {
		k := key(i)
		if k < hi {
			break
		}
		hi = k
	}
	if i == n {
		return Identity(c, n)
	}
	for ; i < n; i++ {
		k := key(i)
		lo, hi = min(lo, k), max(hi, k)
	}
	a := c.Arena()
	out := a.TryInts(n)
	if out == nil {
		return nil
	}
	// The span is computed in uint64, so keys at both ends of the domain
	// (MinInt64 and MaxInt64) give a span far above n, never an overflow.
	if span := hi - lo; span > 255 && span < uint64(n) {
		if count := a.TryInts(int(span) + 1); count != nil {
			clear(count)
			for i := 0; i < n; i++ {
				count[key(i)-lo]++
			}
			for b, sum := 0, 0; b < len(count); b++ {
				count[b], sum = sum, sum+count[b]
			}
			for i := 0; i < n; i++ {
				b := key(i) - lo
				out[count[b]] = i
				count[b]++
			}
			a.FreeInts(count)
			return out
		}
	}
	var hist [8][256]int
	for i := 0; i < n; i++ {
		k := key(i)
		for d := range hist {
			hist[d][byte(k>>(8*d))]++
		}
	}
	// Some adjacent keys descend, so at least one digit varies and the
	// loop below runs at least one pass.
	var src []int // nil stands for the identity
	dst := out
	for d := range hist {
		shift := uint(8 * d)
		h := &hist[d]
		if h[byte(key(0)>>shift)] == n {
			continue // every row shares this digit: the pass would be a copy
		}
		for b, sum := 0, 0; b < len(h); b++ {
			h[b], sum = sum, sum+h[b]
		}
		if dst == nil {
			if dst = a.TryInts(n); dst == nil {
				a.FreeInts(src)
				return nil
			}
		}
		if src == nil {
			for i := 0; i < n; i++ {
				b := byte(key(i) >> shift)
				dst[h[b]] = i
				h[b]++
			}
		} else {
			for _, i := range src {
				b := byte(key(i) >> shift)
				dst[h[b]] = i
				h[b]++
			}
		}
		src, dst = dst, src
	}
	if dst != nil {
		a.FreeInts(dst)
	}
	return src
}

// IsSortedIndex reports whether idx is the identity permutation, i.e. the
// keys were already in order and the gather can be skipped.
func IsSortedIndex(idx []int) bool {
	for k, j := range idx {
		if k != j {
			return false
		}
	}
	return true
}

// KeyUnique reports whether the key columns contain no duplicate
// combination of values, i.e. whether they form a key of the relation.
// idx must be the sort permutation over exactly those columns. A NaN
// equals no value under IEEE comparison, itself included, so it names no
// row: a key column holding one is no key.
func KeyUnique(keys []*BAT, idx []int) bool {
	if len(keys) == 0 {
		return false
	}
	vecs := make([]*Vector, len(keys))
	for k, b := range keys {
		vecs[k] = b.Vector()
		if vecs[k].Type() == Float {
			for _, x := range vecs[k].Floats() {
				if x != x {
					return false
				}
			}
		}
	}
	less := keyLess(vecs, make([]bool, len(vecs)))
	for k := 1; k < len(idx); k++ {
		if !less(idx[k-1], idx[k]) {
			return false
		}
	}
	return true
}

// Identity returns the identity permutation of length n. The buffer comes
// from the context's arena; callers done with a permutation may hand it
// back with c.Arena().FreeInts.
func Identity(c *exec.Ctx, n int) []int {
	idx := c.Arena().Ints(n)
	for k := range idx {
		idx[k] = k
	}
	return idx
}
