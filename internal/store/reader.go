package store

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/exec"
)

// Reader is an open segment file: the footer is parsed eagerly, the
// payload stays memory-mapped (or, where mmap is unavailable, read
// once) and segments decode on demand into arena-charged buffers.
type Reader struct {
	path   string
	data   []byte
	mapped bool
	name   string
	rows   int64
	cols   []colMeta
}

// Open maps the segment file at path and parses its footer.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	size := st.Size()
	if size < int64(len(magicHead)+len(magicTail)+8) {
		return nil, fmt.Errorf("store: %s: truncated segment file", path)
	}
	data, mapped, err := mapFile(f, size)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	r := &Reader{path: path, data: data, mapped: mapped}
	if err := r.parse(); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

func (r *Reader) parse() error {
	data := r.data
	if string(data[:len(magicHead)]) != magicHead {
		return fmt.Errorf("store: %s: bad magic", r.path)
	}
	tail := data[len(data)-len(magicTail):]
	if string(tail) != magicTail {
		return fmt.Errorf("store: %s: bad tail magic", r.path)
	}
	ftLen := le.Uint64(data[len(data)-len(magicTail)-8:])
	ftEnd := int64(len(data)) - int64(len(magicTail)) - 8
	ftOff := ftEnd - int64(ftLen)
	if ftOff < int64(len(magicHead)) || ftOff > ftEnd {
		return fmt.Errorf("store: %s: bad footer length", r.path)
	}
	var ft footer
	if err := json.Unmarshal(data[ftOff:ftEnd], &ft); err != nil {
		return fmt.Errorf("store: %s: footer: %w", r.path, err)
	}
	if len(ft.Cols) == 0 {
		return fmt.Errorf("store: %s: no columns", r.path)
	}
	for _, cm := range ft.Cols {
		var rows int64
		for _, sg := range cm.Segs {
			if sg.Off < int64(len(magicHead)) || sg.Off+sg.Len > ftOff {
				return fmt.Errorf("store: %s: segment out of bounds", r.path)
			}
			rows += int64(sg.Rows)
		}
		if rows != ft.Rows {
			return fmt.Errorf("store: %s: column %q has %d rows, file claims %d", r.path, cm.Name, rows, ft.Rows)
		}
	}
	r.name, r.rows, r.cols = ft.Name, ft.Rows, ft.Cols
	return nil
}

// Close unmaps the file. Decoded segments already handed out stay
// valid (they are copies); the Reader itself must not be used after.
func (r *Reader) Close() error {
	data := r.data
	r.data = nil
	if data != nil && r.mapped {
		return unmapFile(data)
	}
	return nil
}

// Name returns the stored relation name.
func (r *Reader) Name() string { return r.name }

// Rows returns the total row count.
func (r *Reader) Rows() int64 { return r.rows }

// Specs returns the column schema.
func (r *Reader) Specs() []ColSpec {
	specs := make([]ColSpec, len(r.cols))
	for k := range r.cols {
		specs[k] = r.cols[k].ColSpec
	}
	return specs
}

// NumSegs returns the per-column segment count (all columns agree).
func (r *Reader) NumSegs() int { return len(r.cols[0].Segs) }

// Seg returns segment metadata (offsets, encoding, zone map) for
// column col, segment seg.
func (r *Reader) Seg(col, seg int) *SegMeta { return &r.cols[col].Segs[seg] }

// ReadSeg decodes column col's segment seg into buffers drawn from
// the context's arena — charged to the owning tenant. Release with
// ReleaseColData when done.
func (r *Reader) ReadSeg(c *exec.Ctx, col, seg int) (ColData, error) {
	if r.data == nil {
		return ColData{}, fmt.Errorf("store: %s: reader closed", r.path)
	}
	cm := &r.cols[col]
	sg := &cm.Segs[seg]
	payload := r.data[sg.Off : sg.Off+sg.Len]
	switch cm.Kind {
	case KFloat:
		out := c.Arena().Floats(sg.Rows)
		if err := decodeWords(payload, sg, func(i int, w uint64) { out[i] = math.Float64frombits(w) }); err != nil {
			c.Arena().FreeFloats(out)
			return ColData{}, fmt.Errorf("store: %s: %w", r.path, err)
		}
		return ColData{F: out}, nil
	case KInt:
		out := c.Arena().Int64s(sg.Rows)
		if err := decodeWords(payload, sg, func(i int, w uint64) { out[i] = int64(w) }); err != nil {
			c.Arena().FreeInt64s(out)
			return ColData{}, fmt.Errorf("store: %s: %w", r.path, err)
		}
		return ColData{I: out}, nil
	default:
		out := c.Arena().Strings(sg.Rows)
		if err := decodeStrings(payload, sg, out); err != nil {
			c.Arena().FreeStrings(out)
			return ColData{}, fmt.Errorf("store: %s: %w", r.path, err)
		}
		return ColData{S: out}, nil
	}
}

// ReleaseColData hands a decoded segment's buffers back to the arena.
func ReleaseColData(c *exec.Ctx, d ColData) {
	switch {
	case d.F != nil:
		c.Arena().FreeFloats(d.F)
	case d.I != nil:
		c.Arena().FreeInt64s(d.I)
	case d.S != nil:
		c.Arena().FreeStrings(d.S)
	}
}

// decodeWords walks every row of a numeric segment payload, invoking
// set(i, w) for row i's 64-bit word.
func decodeWords(p []byte, sg *SegMeta, set func(i int, w uint64)) error {
	n := sg.Rows
	switch sg.Enc {
	case encRaw:
		if len(p) < 8*n {
			return fmt.Errorf("raw segment truncated")
		}
		for i := 0; i < n; i++ {
			set(i, le.Uint64(p[8*i:]))
		}
	case encRLE:
		if len(p) < 4 {
			return fmt.Errorf("rle segment truncated")
		}
		runs := int(le.Uint32(p))
		p = p[4:]
		if len(p) < runs*12 {
			return fmt.Errorf("rle segment truncated")
		}
		i := 0
		for r := 0; r < runs; r++ {
			count := int(le.Uint32(p[r*12:]))
			w := le.Uint64(p[r*12+4:])
			if i+count > n {
				return fmt.Errorf("rle run overflow")
			}
			for j := i; j < i+count; j++ {
				set(j, w)
			}
			i += count
		}
		if i != n {
			return fmt.Errorf("rle rows %d, want %d", i, n)
		}
	case encDict:
		if len(p) < 4 {
			return fmt.Errorf("dict segment truncated")
		}
		d := int(le.Uint32(p))
		p = p[4:]
		if len(p) < d*8 {
			return fmt.Errorf("dict segment truncated")
		}
		dict := make([]uint64, d)
		for k := 0; k < d; k++ {
			dict[k] = le.Uint64(p[8*k:])
		}
		p = p[8*d:]
		codeW := 1
		if d > maxDict1 {
			codeW = 2
		}
		if len(p) < n*codeW {
			return fmt.Errorf("dict codes truncated")
		}
		for i := 0; i < n; i++ {
			var c int
			if codeW == 1 {
				c = int(p[i])
			} else {
				c = int(p[2*i]) | int(p[2*i+1])<<8
			}
			if c >= d {
				return fmt.Errorf("dict code out of range")
			}
			set(i, dict[c])
		}
	default:
		return fmt.Errorf("unknown encoding %d", sg.Enc)
	}
	return nil
}

func decodeStrings(p []byte, sg *SegMeta, out []string) error {
	n := sg.Rows
	switch sg.Enc {
	case encRaw:
		for i := 0; i < n; i++ {
			if len(p) < 4 {
				return fmt.Errorf("string segment truncated")
			}
			l := int(le.Uint32(p))
			p = p[4:]
			if len(p) < l {
				return fmt.Errorf("string segment truncated")
			}
			out[i] = string(p[:l])
			p = p[l:]
		}
	case encDict:
		if len(p) < 4 {
			return fmt.Errorf("dict segment truncated")
		}
		d := int(le.Uint32(p))
		p = p[4:]
		dict := make([]string, d)
		for k := 0; k < d; k++ {
			if len(p) < 4 {
				return fmt.Errorf("dict segment truncated")
			}
			l := int(le.Uint32(p))
			p = p[4:]
			if len(p) < l {
				return fmt.Errorf("dict segment truncated")
			}
			dict[k] = string(p[:l])
			p = p[l:]
		}
		codeW := 1
		if d > maxDict1 {
			codeW = 2
		}
		if len(p) < n*codeW {
			return fmt.Errorf("dict codes truncated")
		}
		for i := 0; i < n; i++ {
			var c int
			if codeW == 1 {
				c = int(p[i])
			} else {
				c = int(p[2*i]) | int(p[2*i+1])<<8
			}
			if c >= d {
				return fmt.Errorf("dict code out of range")
			}
			out[i] = dict[c]
		}
	default:
		return fmt.Errorf("unknown string encoding %d", sg.Enc)
	}
	return nil
}
