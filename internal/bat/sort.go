package bat

import (
	"math"
	"sort"

	"repro/internal/exec"
)

// SortStable computes the stable ascending sort permutation of [0, n) under
// less, a strict weak ordering over original row positions (less(a, b)
// reports whether row a orders before row b). At or below SerialCutoff
// elements — or with a single worker — it defers to sort.SliceStable.
// Above the cutoff it sorts contiguous runs in parallel and combines them
// with a stable pairwise merge that prefers the left run on ties. A run
// always holds smaller original positions than the run to its right, so
// preferring left preserves stability, and because the stable permutation
// of a sequence is unique, the result is identical at any worker budget.
// It sorts every order SortIndex does not radix-sort (strings, sparse keys,
// several key columns) and the comparators of rel.Sort and ORDER BY.
// The permutation buffer comes from the context's arena; callers done with
// it may hand it back with c.Arena().FreeInts.
func SortStable(c *exec.Ctx, n int, less func(a, b int) bool) []int {
	idx := Identity(c, n)
	if n <= SerialCutoff || c.Workers() <= 1 {
		sort.SliceStable(idx, func(a, b int) bool { return less(idx[a], idx[b]) })
		return idx
	}
	runs, size := c.ParallelRuns(n)
	c.ParallelFor(runs, 1, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			s := idx[r*size : min((r+1)*size, n)]
			sort.SliceStable(s, func(a, b int) bool { return less(s[a], s[b]) })
		}
	})
	// Out-of-core merge: when the spill policy asks for it, the sorted
	// runs go to disk and merge back streaming, skipping the second
	// n-int buffer entirely.
	if sortMergeSpilled(c, idx, n, size, less) {
		return idx
	}
	buf := c.Arena().Ints(n)
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
	c.Arena().FreeInts(buf)
	return idx
}

// mergeRuns stably merges the sorted runs src[lo:mid] and src[mid:hi] into
// dst[lo:hi], taking from the left run on ties.
func mergeRuns(dst, src []int, lo, mid, hi int, less func(a, b int) bool) {
	i, j := lo, mid
	for k := lo; k < hi; k++ {
		if i < mid && (j >= hi || !less(src[j], src[i])) {
			dst[k] = src[i]
			i++
		} else {
			dst[k] = src[j]
			j++
		}
	}
}

// SortIndex computes the stable ascending sort permutation over one or more
// key columns (lexicographic, first column most significant). The returned
// slice idx satisfies: gathering any tail of the same relation by idx yields
// that tail ordered by the key columns. This is the "sorting" step of the
// paper's Algorithm 1: G <- sort(D), followed by b↓G for the other tails.
// A single dense Int or Float key is radix-sorted (radixSortIndex); every
// other schema — strings, sparse keys, several columns — is merge-sorted
// by SortStable. Both are stable and the stable permutation is unique, so
// the result is identical at any worker budget.
func SortIndex(c *exec.Ctx, keys []*BAT) []int {
	if len(keys) == 0 {
		return nil
	}
	n := keys[0].Len()
	if len(keys) == 1 && !keys[0].IsSparse() {
		switch v := keys[0].vec; v.Type() {
		case Float:
			f := v.Floats()
			return radixSortIndex(c, n, func(i int) uint64 { return floatKey(f[i]) })
		case Int:
			xs := v.Ints()
			return radixSortIndex(c, n, func(i int) uint64 { return uint64(xs[i]) ^ signBit })
		}
	}
	// MonetDB tracks sortedness on BATs; one linear pre-scan buys the
	// same effect and turns sorts over already-ordered keys into no-ops —
	// crucially before the permutation buffer below is even allocated.
	if keysSorted(keys) {
		return Identity(c, n)
	}
	// A single dense string key avoids the per-comparison column loop and
	// interface dispatch.
	if len(keys) == 1 && !keys[0].IsSparse() && keys[0].vec.Type() == String {
		ss := keys[0].vec.Strings()
		return SortStable(c, n, func(a, b int) bool { return ss[a] < ss[b] })
	}
	vecs := make([]*Vector, len(keys))
	for k, b := range keys {
		vecs[k] = b.VectorCtx(c)
	}
	return SortStable(c, n, func(a, b int) bool {
		for _, v := range vecs {
			if cmp := v.Compare(a, v, b); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
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

// radixSortIndex computes the stable ascending permutation of [0, n) under
// the unsigned keys key(i) by an LSD radix sort over 8-bit digits. Keys
// already in order return the identity before any scratch is drawn, like
// keysSorted for the merge path. Otherwise one pre-pass builds all eight
// digit histograms, and a digit on which every row agrees is skipped, so
// keys spanning few low bytes (ids below 2^24: three passes) pay only for
// the bytes that vary. Each pass scatters the permutation alone and reads
// each key through it from the column, so the scratch is one extra n-int
// arena buffer, returned before the result. Counting passes are stable,
// so the result is the unique stable permutation under the key order.
func radixSortIndex(c *exec.Ctx, n int, key func(i int) uint64) []int {
	if n < 2 {
		return Identity(c, n)
	}
	sorted, prev := true, key(0)
	for i := 1; i < n && sorted; i++ {
		k := key(i)
		sorted, prev = k >= prev, k
	}
	if sorted {
		return Identity(c, n)
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
	a := c.Arena()
	var src, dst []int // src == nil stands for the identity
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
			dst = a.Ints(n)
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

// keysSorted reports whether the key columns are already in ascending
// lexicographic order.
func keysSorted(keys []*BAT) bool {
	n := keys[0].Len()
	if n < 2 {
		return true
	}
	vecs := make([]*Vector, len(keys))
	for k, b := range keys {
		if b.IsSparse() {
			return false
		}
		vecs[k] = b.vec
	}
	for i := 1; i < n; i++ {
		for _, v := range vecs {
			c := v.Compare(i-1, v, i)
			if c < 0 {
				break
			}
			if c > 0 {
				return false
			}
		}
	}
	return true
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
// idx must be the sort permutation over exactly those columns.
func KeyUnique(keys []*BAT, idx []int) bool {
	if len(keys) == 0 {
		return false
	}
	vecs := make([]*Vector, len(keys))
	for k, b := range keys {
		vecs[k] = b.Vector()
	}
	for k := 1; k < len(idx); k++ {
		same := true
		for _, v := range vecs {
			if v.Compare(idx[k-1], v, idx[k]) != 0 {
				same = false
				break
			}
		}
		if same {
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
