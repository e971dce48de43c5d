package rel

import (
	"repro/internal/bat"
	"repro/internal/exec"
)

// This file implements typed multi-column row keys for the hash-based
// relational operators (HashJoin, GroupBy, Distinct). Rows are identified
// by a 64-bit hash computed from typed cell values — no per-row string
// materialization — and candidate collisions are resolved by comparing the
// key columns directly. Cells are hashed in isolation (strings contribute
// their length through the byte-wise FNV walk, numerics contribute a fixed
// 8-byte word), so composite keys cannot collide through embedded
// separator bytes the way the former NUL-joined string keys could.

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

// newKeyCols resolves the named attributes of r into typed key views.
func newKeyCols(c *exec.Ctx, r *Relation, attrs []string) (*keyCols, error) {
	cols := make([]*bat.BAT, len(attrs))
	for k, a := range attrs {
		col, err := r.Col(a)
		if err != nil {
			return nil, err
		}
		cols[k] = col
	}
	return keyColsOf(c, r.NumRows(), cols), nil
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

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// mix64 is the splitmix64 finalizer: it spreads the combined cell hashes
// over all 64 bits so the partition selector can use the low bits.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// hashRow computes the composite key hash of row i. Numeric cells hash
// through their canonical float bits so an Int key column hashes
// identically to a Float key column holding the same values (cross-type
// equi-joins land in the same bucket; exactness is restored by equal).
func (kc *keyCols) hashRow(i int) uint64 {
	h := uint64(fnvOffset64)
	for k := range kc.f {
		switch {
		case kc.f[k] != nil:
			w := bat.CanonBits(kc.f[k][i])
			for b := 0; b < 64; b += 8 {
				h = (h ^ (w >> b & 0xff)) * fnvPrime64
			}
		case kc.i[k] != nil:
			w := bat.CanonBits(float64(kc.i[k][i]))
			for b := 0; b < 64; b += 8 {
				h = (h ^ (w >> b & 0xff)) * fnvPrime64
			}
		default:
			s := kc.s[k][i]
			for b := 0; b < len(s); b++ {
				h = (h ^ uint64(s[b])) * fnvPrime64
			}
			// Terminate the cell with its length so cell boundaries
			// cannot be shifted between adjacent string keys.
			w := uint64(len(s))
			for b := 0; b < 64; b += 8 {
				h = (h ^ (w >> b & 0xff)) * fnvPrime64
			}
		}
	}
	return mix64(h)
}

// hashes computes the key hash of every row, decomposed over the
// context's workers.
func (kc *keyCols) hashes(c *exec.Ctx) []uint64 {
	h := make([]uint64, kc.n)
	c.ParallelFor(kc.n, bat.SerialCutoff, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			h[i] = kc.hashRow(i)
		}
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
