package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"os"
	"slices"
)

// Writer streams rows into a segment file. Rows are appended in
// column batches; every column buffers until a full segment
// (SegRows rows) accumulates, then the segment is encoded — raw,
// run-length, or dictionary, whichever is smallest — zone-mapped, and
// written. Close flushes the partial tail segments and the footer.
// All columns advance in lockstep, so their segment boundaries align
// and readers can iterate them side by side.
type Writer struct {
	f     *os.File
	bw    *bufio.Writer
	path  string
	name  string
	specs []ColSpec
	cols  []colBuilder
	enc   *encoder // allocated at the first segment
	off   int64
	rows  int64
	err   error
}

type colBuilder struct {
	kind ColKind
	f    []float64
	i    []int64
	s    []string
	segs []SegMeta
}

// Create opens a new segment file at path for the given schema,
// truncating any previous file.
func Create(path, name string, specs []ColSpec) (*Writer, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("store: create %s: no columns", path)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	w := &Writer{f: f, bw: bufio.NewWriterSize(f, 1<<16), path: path, name: name, specs: specs}
	w.cols = make([]colBuilder, len(specs))
	for k, sp := range specs {
		w.cols[k].kind = sp.Kind
	}
	if _, err := w.bw.WriteString(magicHead); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	w.off = int64(len(magicHead))
	return w, nil
}

// Append adds n rows: cols[k] must carry exactly n values of column
// k's kind.
func (w *Writer) Append(n int, cols []ColData) error {
	if w.err != nil {
		return w.err
	}
	if len(cols) != len(w.specs) {
		return w.fail(fmt.Errorf("store: append: %d columns, want %d", len(cols), len(w.specs)))
	}
	for k := range cols {
		if cols[k].Len() != n {
			return w.fail(fmt.Errorf("store: append: column %d has %d rows, want %d", k, cols[k].Len(), n))
		}
		b := &w.cols[k]
		switch b.kind {
		case KFloat:
			if cols[k].F == nil {
				return w.fail(fmt.Errorf("store: append: column %d is not float", k))
			}
			b.f = append(b.f, cols[k].F...)
		case KInt:
			if cols[k].I == nil {
				return w.fail(fmt.Errorf("store: append: column %d is not int", k))
			}
			b.i = append(b.i, cols[k].I...)
		case KString:
			if cols[k].S == nil {
				return w.fail(fmt.Errorf("store: append: column %d is not string", k))
			}
			b.s = append(b.s, cols[k].S...)
		}
	}
	w.rows += int64(n)
	// Flush full segments column by column; all builders cross the
	// boundary together because Append advances them together.
	for w.buffered() >= SegRows {
		if err := w.flushSeg(SegRows); err != nil {
			return err
		}
	}
	return nil
}

func (w *Writer) buffered() int {
	b := &w.cols[0]
	switch b.kind {
	case KFloat:
		return len(b.f)
	case KInt:
		return len(b.i)
	default:
		return len(b.s)
	}
}

func (w *Writer) fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	return w.err
}

// flushSeg encodes and writes the first n buffered rows of every
// column as one segment each.
func (w *Writer) flushSeg(n int) error {
	if w.err != nil {
		return w.err
	}
	if w.enc == nil {
		w.enc = new(encoder)
	}
	for k := range w.cols {
		b := &w.cols[k]
		var payload []byte
		var meta SegMeta
		switch b.kind {
		case KFloat:
			payload, meta = w.enc.floats(b.f[:n])
			b.f = b.f[:copy(b.f, b.f[n:])]
		case KInt:
			payload, meta = w.enc.ints(b.i[:n])
			b.i = b.i[:copy(b.i, b.i[n:])]
		case KString:
			payload, meta = w.enc.strings(b.s[:n])
			b.s = b.s[:copy(b.s, b.s[n:])]
		}
		meta.Off = w.off
		meta.Len = int64(len(payload))
		meta.Rows = n
		if _, err := w.bw.Write(payload); err != nil {
			return w.fail(fmt.Errorf("store: %w", err))
		}
		w.off += int64(len(payload))
		b.segs = append(b.segs, meta)
	}
	return nil
}

// BytesWritten returns the bytes emitted so far (payload only; the
// footer lands at Close).
func (w *Writer) BytesWritten() int64 { return w.off }

// Rows returns the rows appended so far.
func (w *Writer) Rows() int64 { return w.rows }

// Close flushes the tail segments and the footer and closes the file.
func (w *Writer) Close() error {
	if w.f == nil {
		return w.err
	}
	if w.err == nil {
		if n := w.buffered(); n > 0 {
			w.flushSeg(n)
		}
	}
	if w.err == nil {
		ft := footer{Name: w.name, Rows: w.rows, Cols: make([]colMeta, len(w.specs))}
		for k, sp := range w.specs {
			ft.Cols[k] = colMeta{ColSpec: sp, Segs: w.cols[k].segs}
		}
		data, err := json.Marshal(ft)
		if err != nil {
			w.fail(fmt.Errorf("store: footer: %w", err))
		} else {
			tail := put64(data, uint64(len(data)))
			tail = append(tail, magicTail...)
			if _, err := w.bw.Write(tail); err != nil {
				w.fail(fmt.Errorf("store: %w", err))
			}
			w.off += int64(len(tail))
		}
	}
	if err := w.bw.Flush(); err != nil {
		w.fail(fmt.Errorf("store: %w", err))
	}
	if err := w.f.Close(); err != nil {
		w.fail(fmt.Errorf("store: %w", err))
	}
	w.f = nil
	w.enc = nil
	return w.err
}

// ---- segment encoders ----
//
// Floats are handled through their IEEE bit patterns end to end so the
// round trip is bitwise (NaN payloads, -0). The encoder measures the
// three candidate encodings in one pass and emits the smallest.

const (
	maxDict1 = 256   // 1-byte codes
	maxDict2 = 65536 // 2-byte codes
)

// encoder holds the scratch of the segment encoders. A Writer owns one
// from its first segment to Close and reuses it for every segment column
// it encodes. Payloads it returns alias out and stay valid until the next
// encode.
type encoder struct {
	bits []uint64 // a float or int column as words
	out  []byte   // the payload

	// The dictionary trial: an open-addressing table over a power-of-two
	// slot array holding code+1 (0 = empty, linear probing, load ≤ 1/2),
	// the distinct values in first-appearance order (so a value's code is
	// its index), and every row's code while the dictionary fits two-byte
	// codes.
	slots []int32
	words []uint64
	strs  []string
	codes []uint16
}

var strSeed = maphash.MakeSeed()

// resetDict clears the dictionary trial for a column of n rows. The
// table never needs more than maxDict2+1 entries: the trial stops there.
func (e *encoder) resetDict(n int) {
	size := 2
	for size < 2*min(n, maxDict2+1) {
		size *= 2
	}
	if cap(e.slots) < size {
		e.slots = make([]int32, size)
	} else {
		e.slots = e.slots[:size]
		clear(e.slots)
	}
	if cap(e.codes) < n {
		e.codes = make([]uint16, n)
	}
	e.codes = e.codes[:n]
	e.words = e.words[:0]
	clear(e.strs)
	e.strs = e.strs[:0]
}

// mixWord scrambles a word so its low bits pick a slot.
func mixWord(w uint64) uint64 {
	w ^= w >> 33
	w *= 0xff51afd7ed558ccd
	return w ^ w>>33
}

// wordCode returns w's dictionary code, adding w as the next code when
// it is new.
func (e *encoder) wordCode(w uint64) int {
	mask := uint64(len(e.slots) - 1)
	for h := mixWord(w) & mask; ; h = (h + 1) & mask {
		s := e.slots[h]
		if s == 0 {
			e.words = append(e.words, w)
			e.slots[h] = int32(len(e.words))
			return len(e.words) - 1
		}
		if e.words[s-1] == w {
			return int(s - 1)
		}
	}
}

// strCode is wordCode for strings; isNew reports an added value.
func (e *encoder) strCode(str string) (code int, isNew bool) {
	mask := uint64(len(e.slots) - 1)
	for h := maphash.String(strSeed, str) & mask; ; h = (h + 1) & mask {
		s := e.slots[h]
		if s == 0 {
			e.strs = append(e.strs, str)
			e.slots[h] = int32(len(e.strs))
			return len(e.strs) - 1, true
		}
		if e.strs[s-1] == str {
			return int(s - 1), false
		}
	}
}

// appendCodes appends every row's dictionary code, codeW bytes each.
func (e *encoder) appendCodes(out []byte, codeW int) []byte {
	if codeW == 1 {
		for _, c := range e.codes {
			out = append(out, byte(c))
		}
		return out
	}
	for _, c := range e.codes {
		out = append(out, byte(c), byte(c>>8))
	}
	return out
}

func (e *encoder) floats(vals []float64) ([]byte, SegMeta) {
	e.bits = slices.Grow(e.bits[:0], len(vals))
	for _, v := range vals {
		e.bits = append(e.bits, math.Float64bits(v))
	}
	payload, meta := e.encodeWords(e.bits)
	// Zone map over value order; disabled when NaNs are present.
	meta.HasZone = len(vals) > 0
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if v != v {
			meta.HasZone = false
			break
		}
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if meta.HasZone {
		meta.MinBits = math.Float64bits(mn)
		meta.MaxBits = math.Float64bits(mx)
	}
	return payload, meta
}

func (e *encoder) ints(vals []int64) ([]byte, SegMeta) {
	e.bits = slices.Grow(e.bits[:0], len(vals))
	for _, v := range vals {
		e.bits = append(e.bits, uint64(v))
	}
	payload, meta := e.encodeWords(e.bits)
	if len(vals) > 0 {
		meta.HasZone = true
		mn, mx := vals[0], vals[0]
		for _, v := range vals[1:] {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		meta.MinI, meta.MaxI = mn, mx
	}
	return payload, meta
}

// encodeWords picks raw / RLE / dict for a segment of 64-bit words. One
// pass counts the runs and runs the dictionary trial, which gives up
// once the column holds more than maxDict2 distinct words.
func (e *encoder) encodeWords(bits []uint64) ([]byte, SegMeta) {
	n := len(bits)
	e.resetDict(n)
	runs := 0
	for i, w := range bits {
		if i > 0 && w == bits[i-1] {
			if len(e.words) <= maxDict2 {
				e.codes[i] = e.codes[i-1]
			}
			continue
		}
		runs++
		if len(e.words) <= maxDict2 {
			e.codes[i] = uint16(e.wordCode(w))
		}
	}
	ndict := len(e.words)
	rawSz := 8 * n
	rleSz := 4 + runs*12
	codeW := 1
	if ndict > maxDict1 {
		codeW = 2
	}
	dictSz := 4 + ndict*8 + n*codeW
	if ndict > maxDict2 {
		dictSz = rawSz + 1 // out of range
	}

	out := e.out[:0]
	var meta SegMeta
	switch {
	case n > 0 && dictSz < rawSz && dictSz <= rleSz:
		// Dictionary: codes reference first-appearance order.
		out = slices.Grow(out, dictSz)
		out = put32(out, uint32(ndict))
		for _, w := range e.words {
			out = put64(out, w)
		}
		out = e.appendCodes(out, codeW)
		meta.Enc = encDict
	case n > 0 && rleSz < rawSz:
		out = slices.Grow(out, rleSz)
		out = put32(out, uint32(runs))
		count := uint32(1)
		for i := 1; i <= n; i++ {
			if i < n && bits[i] == bits[i-1] {
				count++
				continue
			}
			out = put32(out, count)
			out = put64(out, bits[i-1])
			count = 1
		}
		meta.Enc = encRLE
	default:
		out = slices.Grow(out, rawSz)
		for _, w := range bits {
			out = put64(out, w)
		}
		meta.Enc = encRaw
	}
	e.out = out
	return out, meta
}

func (e *encoder) strings(vals []string) ([]byte, SegMeta) {
	n := len(vals)
	e.resetDict(n)
	rawSz := 0
	dictBytes := 0
	for i, s := range vals {
		rawSz += 4 + len(s)
		if len(e.strs) > maxDict2 {
			continue
		}
		if i > 0 && s == vals[i-1] {
			e.codes[i] = e.codes[i-1]
			continue
		}
		c, isNew := e.strCode(s)
		if isNew {
			dictBytes += 4 + len(s)
		}
		e.codes[i] = uint16(c)
	}
	ndict := len(e.strs)
	codeW := 1
	if ndict > maxDict1 {
		codeW = 2
	}
	dictSz := 4 + dictBytes + n*codeW

	var meta SegMeta
	if n > 0 {
		meta.HasZone = true
		mn, mx := vals[0], vals[0]
		for _, s := range vals[1:] {
			if s < mn {
				mn = s
			}
			if s > mx {
				mx = s
			}
		}
		meta.MinS, meta.MaxS = []byte(mn), []byte(mx)
	}

	out := e.out[:0]
	if n > 0 && ndict <= maxDict2 && dictSz < rawSz {
		meta.Enc = encDict
		out = slices.Grow(out, dictSz)
		out = put32(out, uint32(ndict))
		for _, s := range e.strs {
			out = put32(out, uint32(len(s)))
			out = append(out, s...)
		}
		out = e.appendCodes(out, codeW)
	} else {
		meta.Enc = encRaw
		out = slices.Grow(out, rawSz)
		for _, s := range vals {
			out = put32(out, uint32(len(s)))
			out = append(out, s...)
		}
	}
	e.out = out
	return out, meta
}
