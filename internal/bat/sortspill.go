package bat

import (
	"os"

	"repro/internal/exec"
	"repro/internal/store"
)

// sortMergeSpilled is the out-of-core merge phase of SortStable: the
// sorted runs of width size already sitting in idx are written to disk
// as segment files, then k-way merged back into idx streaming one block
// per run, so the merge itself needs no buffer beyond those blocks. It
// reports whether it completed; false means idx holds the sorted runs or,
// when the merge had begun overwriting them, the identity again, and the
// caller must sort it in memory. Only broken I/O on a file this process
// just wrote lands there.
//
// The merge prefers the lowest-numbered run on ties, exactly like the
// pairwise in-memory merge prefers its left input, and the stable
// permutation is unique — so the result is bit-identical to the
// in-memory path at any worker budget.
func sortMergeSpilled(c *exec.Ctx, idx []int, size int, less func(a, b int) bool) bool {
	n := len(idx)
	sp := c.Spill()
	runs := (n + size - 1) / size

	// Phase 1: persist every sorted run. Any failure here aborts
	// cleanly to the in-memory merge — idx is still intact.
	paths := make([]string, runs)
	var spilled int64
	block := make([]int64, 0, MorselSize)
	for r := 0; r < runs; r++ {
		path, err := sp.Path("sortrun")
		if err != nil {
			removeAll(paths[:r])
			return false
		}
		paths[r] = path
		w, err := store.Create(path, "sortrun", []store.ColSpec{{Name: "i", Kind: store.KInt}})
		if err != nil {
			removeAll(paths[:r])
			return false
		}
		run := idx[r*size : min((r+1)*size, n)]
		ok := true
		for lo := 0; lo < len(run); lo += MorselSize {
			hi := min(lo+MorselSize, len(run))
			block = block[:0]
			for _, v := range run[lo:hi] {
				block = append(block, int64(v))
			}
			if err := w.Append(hi-lo, []store.ColData{{I: block}}); err != nil {
				ok = false
				break
			}
		}
		if err := w.Close(); err != nil {
			ok = false
		}
		if !ok {
			removeAll(paths[:r+1])
			return false
		}
		spilled += w.BytesWritten()
	}
	c.NoteSpill(spilled, int64(runs))

	// Phase 2: k-way merge from disk into idx, decoding one block per
	// run at a time. idx is free to overwrite — the runs live on disk
	// now.
	type runCur struct {
		reader   *store.Reader
		seg, off int     // the next rows to decode
		buf      []int64 // the run's arena block buffer
		block    []int64 // the decoded rows of buf not yet merged
		pos      int
		done     bool
	}
	curs := make([]runCur, runs)
	openOK := true
	for r := 0; r < runs && openOK; r++ {
		rd, err := store.Open(paths[r])
		if err != nil {
			openOK = false
			break
		}
		curs[r].reader = rd
		curs[r].buf = c.Arena().Int64s(MorselSize)
	}
	closeAll := func() {
		for r := range curs {
			if curs[r].reader != nil {
				curs[r].reader.Close()
				c.Arena().FreeInt64s(curs[r].buf)
			}
		}
		removeAll(paths)
	}
	advance := func(r *runCur) bool {
		for r.pos++; r.pos >= len(r.block); r.pos = 0 {
			if r.seg >= r.reader.NumSegs() {
				r.done = true
				r.block = nil
				return true
			}
			rows := r.reader.Seg(0, r.seg).Rows
			m := min(MorselSize, rows-r.off)
			if err := r.reader.ReadInts(0, r.seg, r.off, r.buf[:m]); err != nil {
				return false
			}
			r.block = r.buf[:m]
			if r.off += m; r.off == rows {
				r.seg, r.off = r.seg+1, 0
			}
		}
		return true
	}
	ioOK := openOK
	if ioOK {
		for r := range curs {
			curs[r].pos = -1
			if !advance(&curs[r]) {
				ioOK = false
				break
			}
		}
	}
	if ioOK {
		// A loser tree over the run heads: node i of 1..runs-1 holds the
		// run that lost the match played there, tree[0] the overall
		// winner, and run r's leaf is node runs+r. Each output row replays
		// one leaf-to-root path, log2(runs) comparisons. beats reports
		// whether run a's head goes out before run b's: an exhausted run
		// loses, and a tie goes to the lower-numbered run.
		beats := func(a, b int) bool {
			ca, cb := &curs[a], &curs[b]
			switch {
			case ca.done || cb.done:
				return !ca.done || (cb.done && a < b)
			case a < b:
				return !less(int(cb.block[cb.pos]), int(ca.block[ca.pos]))
			default:
				return less(int(ca.block[ca.pos]), int(cb.block[cb.pos]))
			}
		}
		tree := make([]int, runs)
		win := make([]int, 2*runs)
		for r := 0; r < runs; r++ {
			win[runs+r] = r
		}
		for i := runs - 1; i >= 1; i-- {
			a, b := win[2*i], win[2*i+1]
			if beats(b, a) {
				a, b = b, a
			}
			win[i], tree[i] = a, b
		}
		tree[0] = win[1]
		for k := 0; k < n; k++ {
			w := tree[0]
			if curs[w].done {
				ioOK = false
				break
			}
			idx[k] = int(curs[w].block[curs[w].pos])
			if !advance(&curs[w]) {
				ioOK = false
				break
			}
			for i := (runs + w) / 2; i >= 1; i /= 2 {
				if beats(tree[i], w) {
					tree[i], w = w, tree[i]
				}
			}
			tree[0] = w
		}
	}
	closeAll()
	if !ioOK {
		// The runs in idx may be partially overwritten and the disk
		// copies are unreadable: start again from the identity.
		for k := range idx {
			idx[k] = k
		}
		return false
	}
	return true
}

func removeAll(paths []string) {
	for _, p := range paths {
		if p != "" {
			os.Remove(p)
		}
	}
}

func intSizeOf() int {
	const s = 32 << (^uint(0) >> 63)
	return s / 8
}
