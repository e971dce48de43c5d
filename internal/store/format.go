// Package store implements the on-disk column-segment format of the
// engine: per-column segments of MorselSize-aligned blocks, each
// segment independently encoded (raw, run-length, or dictionary for
// low-cardinality data) and carrying a min/max zone map for scan
// pruning. Files are written streaming (data first, JSON footer last)
// and read back through mmap, decoding one segment at a time into
// arena-charged buffers so the governor's ledger covers disk-resident
// data exactly like RAM-resident data.
//
// The format serves two masters: durable named tables
// (CREATE TABLE ... PERSIST, checkpoint/restore across rmaserver
// restarts) and the grouped aggregation's spill partitions, which
// stage transient rows in the same segment files.
//
// Layout:
//
//	magic "RMASEG1\n"
//	segment payloads, back to back, any column interleaving
//	footer JSON (schema, per-segment offsets/encodings/zone maps)
//	footer length (8 bytes LE) ++ tail magic "RMASEGF\n"
//
// Values round-trip bitwise: floats are stored and compared through
// their IEEE bit patterns (NaN payloads and -0 survive), ints exactly,
// strings byte for byte.
package store

import (
	"encoding/binary"
	"fmt"
	"math"
)

// BlockRows is the row alignment of segment blocks. It equals
// bat.MorselSize (asserted by the sql layer's tests) so a decoded
// segment slices into exact execution morsels.
const BlockRows = 4096

// SegRows is the number of rows per segment: 16 morsel-aligned blocks.
// Zone maps and encoding decisions are per segment.
const SegRows = 16 * BlockRows

const (
	magicHead = "RMASEG1\n"
	magicTail = "RMASEGF\n"
)

// ColKind is the storage type of one column.
type ColKind uint8

const (
	KFloat ColKind = iota
	KInt
	KString
)

func (k ColKind) String() string {
	switch k {
	case KFloat:
		return "float"
	case KInt:
		return "int"
	case KString:
		return "string"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ColSpec names and types one column of a segment file.
type ColSpec struct {
	Name string  `json:"name"`
	Kind ColKind `json:"kind"`
}

// ColData carries one column's values (or a view of them): exactly the
// slice matching the column's kind is non-nil.
type ColData struct {
	F []float64
	I []int64
	S []string
}

// Len returns the number of rows the ColData holds.
func (d ColData) Len() int {
	switch {
	case d.F != nil:
		return len(d.F)
	case d.I != nil:
		return len(d.I)
	case d.S != nil:
		return len(d.S)
	}
	return 0
}

// Slice returns the [lo:hi) view of the data.
func (d ColData) Slice(lo, hi int) ColData {
	switch {
	case d.F != nil:
		return ColData{F: d.F[lo:hi]}
	case d.I != nil:
		return ColData{I: d.I[lo:hi]}
	case d.S != nil:
		return ColData{S: d.S[lo:hi]}
	}
	return ColData{}
}

// Segment encodings.
const (
	encRaw  = 0 // fixed-width values (strings: len-prefixed bytes)
	encRLE  = 1 // numeric run-length: (count u32, value 8B) runs
	encDict = 2 // dictionary + 1- or 2-byte codes
)

// SegMeta describes one stored segment: its byte extent in the file,
// row count, encoding, and zone map. The zone map is the segment's
// min/max in value order — float columns through canonical bit
// patterns, ints exactly, strings byte-wise — and HasZone is false
// when the segment holds NaNs (pruning must not misjudge them) or no
// rows.
type SegMeta struct {
	Off  int64 `json:"off"`
	Len  int64 `json:"len"`
	Rows int   `json:"rows"`
	Enc  uint8 `json:"enc"`

	HasZone bool   `json:"zone,omitempty"`
	MinBits uint64 `json:"minb,omitempty"` // float64 bits of the minimum
	MaxBits uint64 `json:"maxb,omitempty"`
	MinI    int64  `json:"mini,omitempty"`
	MaxI    int64  `json:"maxi,omitempty"`
	MinS    []byte `json:"mins,omitempty"`
	MaxS    []byte `json:"maxs,omitempty"`
}

// MayContainNum reports whether the segment can hold a numeric value
// in [lo, hi] according to its zone map; a segment without a zone map
// always may. Int zone maps are widened one ulp on conversion so
// float-precision loss can never prune a matching segment.
func (m *SegMeta) MayContainNum(kind ColKind, lo, hi float64) bool {
	if !m.HasZone {
		return true
	}
	var mn, mx float64
	switch kind {
	case KFloat:
		mn, mx = math.Float64frombits(m.MinBits), math.Float64frombits(m.MaxBits)
	case KInt:
		mn = math.Nextafter(float64(m.MinI), math.Inf(-1))
		mx = math.Nextafter(float64(m.MaxI), math.Inf(1))
	default:
		return true
	}
	return !(hi < mn || lo > mx)
}

// MayContainStr is the string-column counterpart of MayContainNum.
// Empty bounds with the matching has-flag false are unbounded.
func (m *SegMeta) MayContainStr(lo, hi string, hasLo, hasHi bool) bool {
	if !m.HasZone || m.MinS == nil {
		return true
	}
	if hasHi && hi < string(m.MinS) {
		return false
	}
	if hasLo && lo > string(m.MaxS) {
		return false
	}
	return true
}

// colMeta is one column's footer entry.
type colMeta struct {
	ColSpec
	Segs []SegMeta `json:"segs"`
}

// footer is the file's trailing JSON document.
type footer struct {
	Name string    `json:"name"`
	Rows int64     `json:"rows"`
	Cols []colMeta `json:"cols"`
}

var le = binary.LittleEndian

func put64(b []byte, v uint64) []byte { return le.AppendUint64(b, v) }
func put32(b []byte, v uint32) []byte { return le.AppendUint32(b, v) }
