package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/exec"
)

// checkEncoded fails unless the writer's encoding of one segment column
// equals the reference's byte for byte, metadata included.
func checkEncoded(t *testing.T, name string, got []byte, gotMeta SegMeta, want []byte, wantMeta SegMeta) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: payload differs from the map reference (%d vs %d bytes, enc %d vs %d)",
			name, len(got), len(want), gotMeta.Enc, wantMeta.Enc)
	}
	// An empty string zone bound reads back from the footer as nil.
	for _, m := range []*SegMeta{&gotMeta, &wantMeta} {
		if len(m.MinS) == 0 {
			m.MinS = nil
		}
		if len(m.MaxS) == 0 {
			m.MaxS = nil
		}
	}
	if !reflect.DeepEqual(gotMeta, wantMeta) {
		t.Fatalf("%s: meta %+v, want %+v", name, gotMeta, wantMeta)
	}
}

// distinctWords returns n words holding exactly d distinct values (d ≤ n,
// d > 0 when n > 0) in the given layout: "cycle" repeats them round
// robin, "runs" in equal runs, "shuffle" in a random order.
func distinctWords(rng *rand.Rand, n, d int, layout string) []uint64 {
	vals := make([]uint64, d)
	for k := range vals {
		vals[k] = rng.Uint64()
	}
	out := make([]uint64, n)
	for i := range out {
		switch layout {
		case "cycle":
			out[i] = vals[i%d]
		case "runs":
			out[i] = vals[i*d/n]
		default:
			out[i] = vals[i%d]
		}
	}
	if layout == "shuffle" {
		rng.Shuffle(n, func(a, b int) { out[a], out[b] = out[b], out[a] })
	}
	return out
}

// TestEncodeWordsMatchesMapReference pins the flat dictionary trial to the
// map-based reference encoder across the dictionary's code-width and
// give-up boundaries, all-equal runs, NaN payloads and −0. One encoder
// serves every case, large and small, so the reuse of its table across
// segments is covered too.
func TestEncodeWordsMatchesMapReference(t *testing.T) {
	var e encoder
	rng := rand.New(rand.NewSource(11))
	for _, d := range []int{0, 1, 256, 257, maxDict2, maxDict2 + 1} {
		for _, layout := range []string{"cycle", "runs", "shuffle"} {
			for _, n := range []int{d, d + 3, 70000} {
				if n < d || (d == 0 && n > 0) {
					continue
				}
				bits := distinctWords(rng, n, d, layout)
				name := fmt.Sprintf("words d=%d n=%d %s", d, n, layout)
				got, gotMeta := e.encodeWords(bits)
				want, wantMeta := refEncodeWords(bits)
				checkEncoded(t, name, got, gotMeta, want, wantMeta)

				fs := make([]float64, n)
				is := make([]int64, n)
				ss := make([]string, n)
				for i, w := range bits {
					fs[i] = math.Float64frombits(w)
					is[i] = int64(w)
					ss[i] = fmt.Sprintf("%x", w>>uint(w%61))
				}
				got, gotMeta = e.floats(fs)
				want, wantMeta = refEncodeFloats(fs)
				checkEncoded(t, "floats "+name, got, gotMeta, want, wantMeta)
				got, gotMeta = e.ints(is)
				want, wantMeta = refEncodeInts(is)
				checkEncoded(t, "ints "+name, got, gotMeta, want, wantMeta)
				got, gotMeta = e.strings(ss)
				want, wantMeta = refEncodeStrings(ss)
				checkEncoded(t, "strings "+name, got, gotMeta, want, wantMeta)
			}
		}
	}

	// All-equal runs of one value, the special floats, and a mix of
	// bit patterns that compare equal as floats but not as words.
	specials := []float64{
		math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0123), math.Float64frombits(0xfff0_0000_0000_0001),
		math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1, -1,
	}
	for _, n := range []int{1, 2, 4096, SegRows} {
		for k, v := range specials {
			fs := make([]float64, n)
			for i := range fs {
				fs[i] = v
			}
			got, gotMeta := e.floats(fs)
			want, wantMeta := refEncodeFloats(fs)
			checkEncoded(t, fmt.Sprintf("all-equal special %d n=%d", k, n), got, gotMeta, want, wantMeta)
		}
		fs := make([]float64, n)
		for i := range fs {
			fs[i] = specials[rng.Intn(len(specials))]
		}
		got, gotMeta := e.floats(fs)
		want, wantMeta := refEncodeFloats(fs)
		checkEncoded(t, fmt.Sprintf("mixed specials n=%d", n), got, gotMeta, want, wantMeta)
	}
}

// fuzzColumns expands fuzz bytes into three typed columns of one row
// count. data[0:2] picks the row count (below 8192, or past the first
// segment boundary when data[2]&1 is set), data[2] also the run length
// and whether values are spread past the one-byte dictionary, and the
// remaining bytes, 8 at a time, the pool of values.
func fuzzColumns(data []byte) (int, []ColData) {
	if len(data) < 3 {
		return 0, nil
	}
	n := int(binary.LittleEndian.Uint16(data) & 0x1fff)
	if data[2]&1 != 0 {
		n += SegRows - 4096
	}
	run := 1 + int(data[2]>>4)
	spread := data[2]&2 != 0
	var pool []uint64
	for p := data[3:]; len(p) >= 8; p = p[8:] {
		pool = append(pool, binary.LittleEndian.Uint64(p))
	}
	if len(pool) == 0 {
		pool = []uint64{0}
	}
	fs := make([]float64, n)
	is := make([]int64, n)
	ss := make([]string, n)
	var buf [8]byte
	for i := 0; i < n; i++ {
		g := i / run
		w := pool[g%len(pool)]
		if spread {
			w ^= uint64(g) * 0x9e37_79b9
		}
		fs[i] = math.Float64frombits(w)
		is[i] = int64(w)
		binary.LittleEndian.PutUint64(buf[:], w)
		ss[i] = string(buf[:w%9])
	}
	return n, []ColData{{F: fs}, {I: is}, {S: ss}}
}

// FuzzSegmentRoundTrip writes random typed columns through
// Create/Append/Close and reads them back through Open and ReadSeg:
// every value must come back bit for bit, and every segment's payload and
// metadata must equal the map-based reference encoder's.
func FuzzSegmentRoundTrip(f *testing.F) {
	f.Add([]byte{40, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0x1f, 3, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add([]byte{0x01, 0x01, 0xf0, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, cols := fuzzColumns(data)
		if cols == nil {
			return
		}
		specs := []ColSpec{{Name: "f", Kind: KFloat}, {Name: "i", Kind: KInt}, {Name: "s", Kind: KString}}
		path := filepath.Join(t.TempDir(), "fuzz.seg")
		w, err := Create(path, "fuzz", specs)
		if err != nil {
			t.Fatal(err)
		}
		step := 1 + n/3
		for lo := 0; lo < n; lo += step {
			hi := min(lo+step, n)
			part := make([]ColData, len(cols))
			for k := range cols {
				part[k] = cols[k].Slice(lo, hi)
			}
			if err := w.Append(hi-lo, part); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if r.Rows() != int64(n) {
			t.Fatalf("rows %d, want %d", r.Rows(), n)
		}
		c := exec.Default()
		for col := range specs {
			for seg := 0; seg < r.NumSegs(); seg++ {
				lo := seg * SegRows
				meta := *r.Seg(col, seg)
				hi := lo + meta.Rows
				var want []byte
				var wantMeta SegMeta
				switch col {
				case 0:
					want, wantMeta = refEncodeFloats(cols[0].F[lo:hi])
				case 1:
					want, wantMeta = refEncodeInts(cols[1].I[lo:hi])
				default:
					want, wantMeta = refEncodeStrings(cols[2].S[lo:hi])
				}
				wantMeta.Off, wantMeta.Len, wantMeta.Rows = meta.Off, int64(len(want)), meta.Rows
				checkEncoded(t, fmt.Sprintf("col %d seg %d", col, seg), raw[meta.Off:meta.Off+meta.Len], meta, want, wantMeta)

				d, err := r.ReadSeg(c, col, seg)
				if err != nil {
					t.Fatal(err)
				}
				for j := 0; j < d.Len(); j++ {
					switch col {
					case 0:
						if math.Float64bits(d.F[j]) != math.Float64bits(cols[0].F[lo+j]) {
							t.Fatalf("float row %d: %x, want %x", lo+j, math.Float64bits(d.F[j]), math.Float64bits(cols[0].F[lo+j]))
						}
					case 1:
						if d.I[j] != cols[1].I[lo+j] {
							t.Fatalf("int row %d: %d, want %d", lo+j, d.I[j], cols[1].I[lo+j])
						}
					default:
						if d.S[j] != cols[2].S[lo+j] {
							t.Fatalf("string row %d: %q, want %q", lo+j, d.S[j], cols[2].S[lo+j])
						}
					}
				}
				ReleaseColData(c, d)
			}
		}
	})
}
