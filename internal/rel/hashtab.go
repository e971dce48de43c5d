package rel

import "repro/internal/exec"

// hashIndex is the one hash index under every join and group of this
// package: a chained table over entries 0..n-1 kept in flat arrays. head
// maps a bucket — the low bits of a 64-bit key hash — to its first
// entry, next links the entries of one bucket, and -1 ends a chain; a
// lookup walks its bucket's chain comparing typed keys (a join checks
// the build row's stored hash first). The bucket
// count is a power of two of at least twice the entries, so chains stay
// short. head and next come from the invocation's arena and are charged
// to its tenant until release.
type hashIndex struct {
	mask uint64
	head []int
	next []int
}

// indexRows indexes rows 0..len(h)-1 by their key hashes h. Rows are
// pushed onto the front of their chains in descending order, so every
// chain is ascending and a probe visits its matches in build order.
func indexRows(c *exec.Ctx, h []uint64) *hashIndex {
	t := &hashIndex{}
	t.alloc(c, len(h))
	for j := len(h) - 1; j >= 0; j-- {
		t.link(j, h[j])
	}
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

// link pushes entry e, whose key hash is h, onto the front of its
// bucket's chain.
func (t *hashIndex) link(e int, h uint64) {
	b := h & t.mask
	t.next[e] = t.head[b]
	t.head[b] = e
}

// release hands head and next back to the arena. The index must not be
// used afterwards. Nil-safe.
func (t *hashIndex) release(c *exec.Ctx) {
	if t == nil || t.head == nil {
		return
	}
	c.Arena().FreeInts(t.head)
	c.Arena().FreeInts(t.next)
	t.head, t.next = nil, nil
}
