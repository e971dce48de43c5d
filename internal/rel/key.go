package rel

import (
	"repro/internal/bat"
	"repro/internal/exec"
)

// This file implements typed multi-column row keys for the hash-based
// relational operators (HashJoin and StreamAgg, which GroupBy and DISTINCT
// run through). Rows are identified by a 64-bit hash computed column at
// a time from typed cell values — no per-row string materialization —
// and candidate collisions
// are resolved by comparing the key columns directly. Cells are hashed in
// isolation (numerics contribute one 8-byte word, strings their bytes
// followed by their length), so composite keys cannot collide through
// embedded separator bytes the way the former NUL-joined string keys
// could.

// keyCols binds typed views of a relation's key columns. Sparse float
// columns are densified once at construction so the per-row accessors are
// branch-free slice reads; those densified buffers come from the
// per-query arena and are the only views keyCols owns, so every operator
// that builds a keyCols hands them back with release once the hashes and
// collision comparisons are done.
type keyCols struct {
	n     int
	f     [][]float64 // non-nil for Float columns (and densified sparse tails)
	i     [][]int64   // non-nil for Int columns
	s     [][]string  // non-nil for String columns
	owned [][]float64 // densified sparse tails drawn from the arena
}

// release returns the densified sparse-key buffers to the context's
// arena. The keyCols (and any row accessor derived from it) must not be
// used afterwards. Dense column views are borrowed, not owned, and are
// untouched. Nil-safe.
func (kc *keyCols) release(c *exec.Ctx) {
	if kc == nil {
		return
	}
	for _, f := range kc.owned {
		c.Arena().FreeFloats(f)
	}
	kc.owned = nil
}

// keyColsOf builds typed key views over already-resolved columns.
func keyColsOf(c *exec.Ctx, n int, cols []*bat.BAT) *keyCols {
	kc := &keyCols{
		n: n,
		f: make([][]float64, len(cols)),
		i: make([][]int64, len(cols)),
		s: make([][]string, len(cols)),
	}
	for k, col := range cols {
		if col.IsSparse() {
			kc.f[k] = col.Sparse().Densify(c)
			kc.owned = append(kc.owned, kc.f[k])
			continue
		}
		v := col.Vector()
		switch v.Type() {
		case bat.Float:
			kc.f[k] = v.Floats()
		case bat.Int:
			kc.i[k] = v.Ints()
		case bat.String:
			kc.s[k] = v.Strings()
		}
	}
	return kc
}

// keyColsOfTypes returns empty key columns of the given types, ready for
// grow and set: the group representatives of StreamAgg and the staging
// buffers of its spill.
func keyColsOfTypes(kt []bat.Type) keyCols {
	kc := keyCols{
		f: make([][]float64, len(kt)),
		i: make([][]int64, len(kt)),
		s: make([][]string, len(kt)),
	}
	for k, t := range kt {
		switch t {
		case bat.Int:
			kc.i[k] = []int64{}
		case bat.String:
			kc.s[k] = []string{}
		default:
			kc.f[k] = []float64{}
		}
	}
	return kc
}

// bind points kc at a morsel's key vectors of the given types. kc must
// come from keyColsOfTypes over the same types; no buffer is copied.
func (kc *keyCols) bind(n int, vecs []*bat.Vector, kt []bat.Type) {
	kc.n = n
	for k, v := range vecs {
		switch kt[k] {
		case bat.Int:
			kc.i[k] = v.Ints()
		case bat.String:
			kc.s[k] = v.Strings()
		default:
			kc.f[k] = v.Floats()
		}
	}
}

// set copies row i of src into row j of kc, whose columns have src's
// types and room for row j.
func (kc *keyCols) set(j int, src *keyCols, i int) {
	for k := range kc.f {
		switch {
		case kc.i[k] != nil:
			kc.i[k][j] = src.i[k][i]
		case kc.s[k] != nil:
			kc.s[k][j] = src.s[k][i]
		default:
			kc.f[k][j] = src.f[k][i]
		}
	}
}

// vector returns column k of kc, cut to its n rows.
func (kc *keyCols) vector(k int) *bat.Vector {
	switch {
	case kc.i[k] != nil:
		return bat.NewIntVector(kc.i[k][:kc.n])
	case kc.s[k] != nil:
		return bat.NewStringVector(kc.s[k][:kc.n])
	}
	return bat.NewFloatVector(kc.f[k][:kc.n])
}

// grow redraws kc's columns (from keyColsOfTypes) from c's arena with
// room for size rows, keeping its n rows, and frees the old ones.
func (kc *keyCols) grow(c *exec.Ctx, size int) {
	a := c.Arena()
	for k := range kc.f {
		switch {
		case kc.i[k] != nil:
			kc.i[k] = regrow(kc.i[k], kc.n, size, a.Int64s, a.FreeInt64s)
		case kc.s[k] != nil:
			kc.s[k] = regrow(kc.s[k], kc.n, size, a.Strings, a.FreeStrings)
		default:
			kc.f[k] = regrow(kc.f[k], kc.n, size, a.Floats, a.FreeFloats)
		}
	}
}

// free hands the columns grow drew back to c's arena.
func (kc *keyCols) free(c *exec.Ctx) {
	for k := range kc.f {
		c.Arena().FreeInt64s(kc.i[k])
		c.Arena().FreeStrings(kc.s[k])
		c.Arena().FreeFloats(kc.f[k])
	}
}

// regrow draws a column of size elements, copies the first n of old into
// it and frees old: one doubling step of an arena-held column.
func regrow[T any](old []T, n, size int, draw func(int) []T, free func([]T)) []T {
	s := draw(size)
	copy(s, old[:n])
	free(old)
	return s
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// mix64 is the splitmix64 finalizer: it spreads the combined cell hashes
// over all 64 bits, so the hash index can take its bucket from the low
// bits and the spill partitioners theirs from the high bits.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// mixWord folds one 64-bit cell word into a running key hash in a single
// multiply-xorshift step. For a fixed running hash it is a bijection of
// the word, so keys that differ in one cell never collide through it.
func mixWord(h, w uint64) uint64 {
	h = (h ^ w) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// hashInto writes the composite key hash of rows lo..lo+len(h)-1 into h,
// one key column at a time. Numeric cells mix their canonical float bits
// as one word, so an Int key column hashes identically to a Float key
// column holding the same values (cross-type equi-joins land in the same
// bucket; exactness is restored by equal). String cells walk their bytes
// FNV-style and are terminated by their length, so cell boundaries
// cannot shift between adjacent string keys.
func (kc *keyCols) hashInto(h []uint64, lo int) {
	hi := lo + len(h)
	for i := range h {
		h[i] = fnvOffset64
	}
	for k := range kc.f {
		switch {
		case kc.f[k] != nil:
			for i, v := range kc.f[k][lo:hi] {
				h[i] = mixWord(h[i], bat.CanonBits(v))
			}
		case kc.i[k] != nil:
			for i, v := range kc.i[k][lo:hi] {
				h[i] = mixWord(h[i], bat.CanonBits(float64(v)))
			}
		default:
			for i, s := range kc.s[k][lo:hi] {
				x := h[i]
				for b := 0; b < len(s); b++ {
					x = (x ^ uint64(s[b])) * fnvPrime64
				}
				h[i] = mixWord(x, uint64(len(s)))
			}
		}
	}
	for i := range h {
		h[i] = mix64(h[i])
	}
}

// hashes computes the key hash of every row, decomposed over the
// context's workers.
func (kc *keyCols) hashes(c *exec.Ctx) []uint64 {
	h := make([]uint64, kc.n)
	c.ParallelFor(kc.n, bat.SerialCutoff, func(lo, hi int) {
		kc.hashInto(h[lo:hi], lo)
	})
	return h
}

// equal reports whether row i of kc and row j of other hold the same
// composite key. Numeric columns compare through their canonical float
// bits (Int against Int compares exactly); string columns compare bytes;
// a string column never equals a numeric one.
func (kc *keyCols) equal(i int, other *keyCols, j int) bool {
	for k := range kc.f {
		switch {
		case kc.i[k] != nil && other.i[k] != nil:
			if kc.i[k][i] != other.i[k][j] {
				return false
			}
		case kc.s[k] != nil || other.s[k] != nil:
			if kc.s[k] == nil || other.s[k] == nil {
				return false
			}
			if kc.s[k][i] != other.s[k][j] {
				return false
			}
		default:
			a := numAt(kc, k, i)
			b := numAt(other, k, j)
			if bat.CanonBits(a) != bat.CanonBits(b) {
				return false
			}
		}
	}
	return true
}

// numAt reads the numeric cell (k, i) as a float64.
func numAt(kc *keyCols, k, i int) float64 {
	if kc.f[k] != nil {
		return kc.f[k][i]
	}
	return float64(kc.i[k][i])
}
