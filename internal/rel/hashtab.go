package rel

import (
	"repro/internal/bat"
	"repro/internal/exec"
)

// hashIndex is the one hash index under every join and group of this
// package: a chained table over entries 0..n-1 kept in flat arrays. head
// maps a bucket — the low bits of a 64-bit key hash — to its first
// entry, next links the entries of one bucket, and -1 ends a chain. Each
// entry's full hash is stored beside it, so a lookup skips bucket
// neighbours with one comparison before the caller's typed key equality.
// The bucket count is a power of two of at least twice the entries, so
// chains stay short. head and next come from the invocation's arena and
// are charged to its tenant until release.
type hashIndex struct {
	mask uint64
	head []int
	next []int
	hash []uint64
}

// indexRows indexes rows 0..len(h)-1 by their key hashes h (borrowed,
// not copied). Rows are pushed onto the front of their chains in
// descending order, so every chain is ascending and a probe visits its
// matches in build order.
func indexRows(c *exec.Ctx, h []uint64) *hashIndex {
	t := &hashIndex{hash: h}
	t.alloc(c, len(h))
	for j := len(h) - 1; j >= 0; j-- {
		t.link(j)
	}
	return t
}

// newHashIndex returns an empty index for entries added one at a time.
// It starts with room for 32 and doubles when full.
func newHashIndex(c *exec.Ctx) *hashIndex {
	t := &hashIndex{}
	t.alloc(c, 32)
	return t
}

// alloc draws empty buckets for capacity entries and their links.
func (t *hashIndex) alloc(c *exec.Ctx, capacity int) {
	b := 1
	for b < 2*capacity {
		b <<= 1
	}
	t.mask = uint64(b - 1)
	t.head = c.Arena().Ints(b)
	for i := range t.head {
		t.head[i] = -1
	}
	t.next = c.Arena().Ints(capacity)
}

// link pushes entry e onto the front of its bucket's chain.
func (t *hashIndex) link(e int) {
	b := t.hash[e] & t.mask
	t.next[e] = t.head[b]
	t.head[b] = e
}

// add appends an entry with hash h and returns its id; ids count up from
// 0. A full index doubles and relinks its entries.
func (t *hashIndex) add(c *exec.Ctx, h uint64) int {
	e := len(t.hash)
	t.hash = append(t.hash, h)
	if e == len(t.next) {
		c.Arena().FreeInts(t.head)
		c.Arena().FreeInts(t.next)
		t.alloc(c, 2*e)
		for j := e - 1; j >= 0; j-- {
			t.link(j)
		}
	}
	t.link(e)
	return e
}

// find returns the first entry whose hash is h, or -1.
func (t *hashIndex) find(h uint64) int {
	e := t.head[h&t.mask]
	for e >= 0 && t.hash[e] != h {
		e = t.next[e]
	}
	return e
}

// findNext returns the entry after e in its chain whose hash is h, or -1.
func (t *hashIndex) findNext(e int, h uint64) int {
	for e = t.next[e]; e >= 0 && t.hash[e] != h; e = t.next[e] {
	}
	return e
}

// release hands head and next back to the arena. The index must not be
// used afterwards. Nil-safe.
func (t *hashIndex) release(c *exec.Ctx) {
	if t == nil || t.head == nil {
		return
	}
	c.Arena().FreeInts(t.head)
	c.Arena().FreeInts(t.next)
	t.head, t.next, t.hash = nil, nil, nil
}

// keyTable is a group table: one representative key per group, stored as
// typed key columns in first-seen order, indexed by the groups' hashes.
type keyTable struct {
	keys  keyCols
	index *hashIndex
}

// newKeyTable returns an empty group table over keys of types kt.
func newKeyTable(c *exec.Ctx, kt []bat.Type) *keyTable {
	return &keyTable{keys: keyColsOfTypes(kt), index: newHashIndex(c)}
}

// find returns the group holding row i of kc, whose key hash is h, or -1.
func (t *keyTable) find(h uint64, kc *keyCols, i int) int {
	for g := t.index.find(h); g >= 0; g = t.index.findNext(g, h) {
		if kc.equal(i, &t.keys, g) {
			return g
		}
	}
	return -1
}

// add stores row i of kc (key hash h) as a new group and returns its id.
func (t *keyTable) add(c *exec.Ctx, h uint64, kc *keyCols, i int) int {
	t.keys.appendRow(kc, i)
	return t.index.add(c, h)
}
