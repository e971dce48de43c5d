package store

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/exec"
)

// writeFile writes one segment file with the given columns and returns
// its path.
func writeFile(t *testing.T, name string, n int, specs []ColSpec, cols []ColData) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name+".seg")
	w, err := Create(path, name, specs)
	if err != nil {
		t.Fatal(err)
	}
	// Append in uneven batches to exercise the builder buffering.
	for lo := 0; lo < n; {
		hi := lo + 3000
		if hi > n {
			hi = n
		}
		part := make([]ColData, len(cols))
		for k := range cols {
			part[k] = cols[k].Slice(lo, hi)
		}
		if err := w.Append(hi-lo, part); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRoundTripAllEncodings(t *testing.T) {
	n := 2*SegRows + 1234 // three segments, one partial
	f := make([]float64, n)
	i64 := make([]int64, n)
	s := make([]string, n)
	lowCard := make([]int64, n) // dictionary candidate
	runs := make([]float64, n)  // RLE candidate
	weird := make([]float64, n) // NaN / -0 / Inf bit patterns
	for k := 0; k < n; k++ {
		f[k] = float64(k)*0.5 - 100
		i64[k] = int64(k * 3)
		s[k] = "row-" + string(rune('a'+k%26))
		lowCard[k] = int64(k % 7)
		runs[k] = float64(k / 1000)
		weird[k] = float64(k)
	}
	weird[0] = math.NaN()
	weird[1] = math.Copysign(0, -1)
	weird[2] = math.Inf(1)
	weird[3] = math.Float64frombits(0x7ff8000000000123) // NaN payload

	specs := []ColSpec{
		{Name: "f", Kind: KFloat},
		{Name: "i", Kind: KInt},
		{Name: "s", Kind: KString},
		{Name: "low", Kind: KInt},
		{Name: "runs", Kind: KFloat},
		{Name: "weird", Kind: KFloat},
	}
	cols := []ColData{{F: f}, {I: i64}, {S: s}, {I: lowCard}, {F: runs}, {F: weird}}
	path := writeFile(t, "rt", n, specs, cols)

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Rows() != int64(n) {
		t.Fatalf("rows = %d, want %d", r.Rows(), n)
	}
	if r.Name() != "rt" {
		t.Fatalf("name = %q", r.Name())
	}

	// Low-cardinality and run columns must not be stored raw.
	if enc := r.Seg(3, 0).Enc; enc == encRaw {
		t.Errorf("low-cardinality int column stored raw")
	}
	if enc := r.Seg(4, 0).Enc; enc == encRaw {
		t.Errorf("long-run float column stored raw")
	}

	c := exec.Default()
	for col := 0; col < len(specs); col++ {
		got := 0
		for seg := 0; seg < r.NumSegs(); seg++ {
			d, err := r.ReadSeg(c, col, seg)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < d.Len(); j++ {
				k := got + j
				switch col {
				case 0, 4, 5:
					want := cols[col].F[k]
					if math.Float64bits(d.F[j]) != math.Float64bits(want) {
						t.Fatalf("col %d row %d: %x != %x", col, k, math.Float64bits(d.F[j]), math.Float64bits(want))
					}
				case 1, 3:
					if d.I[j] != cols[col].I[k] {
						t.Fatalf("col %d row %d: %d != %d", col, k, d.I[j], cols[col].I[k])
					}
				case 2:
					if d.S[j] != cols[col].S[k] {
						t.Fatalf("col %d row %d: %q != %q", col, k, d.S[j], cols[col].S[k])
					}
				}
			}
			got += d.Len()
			ReleaseColData(c, d)
		}
		if got != n {
			t.Fatalf("col %d decoded %d rows, want %d", col, got, n)
		}
	}
}

func TestZoneMaps(t *testing.T) {
	n := 2 * SegRows
	f := make([]float64, n)
	i64 := make([]int64, n)
	s := make([]string, n)
	for k := 0; k < n; k++ {
		f[k] = float64(k) // segment 0: [0, SegRows), segment 1: [SegRows, 2*SegRows)
		i64[k] = int64(k)
		if k < SegRows {
			s[k] = "aaa"
		} else {
			s[k] = "zzz"
		}
	}
	path := writeFile(t, "zм", n, []ColSpec{
		{Name: "f", Kind: KFloat}, {Name: "i", Kind: KInt}, {Name: "s", Kind: KString},
	}, []ColData{{F: f}, {I: i64}, {S: s}})

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Segment 0 covers [0, SegRows): a predicate band above it must
	// prune, one inside must not.
	if r.Seg(0, 0).MayContainNum(KFloat, float64(SegRows)+10, math.Inf(1)) {
		t.Error("float zone map failed to prune segment 0")
	}
	if !r.Seg(0, 0).MayContainNum(KFloat, 100, 200) {
		t.Error("float zone map wrongly pruned a matching band")
	}
	if r.Seg(1, 1).MayContainNum(KInt, 0, float64(SegRows-1)) {
		t.Error("int zone map failed to prune segment 1")
	}
	if !r.Seg(1, 1).MayContainNum(KInt, float64(SegRows), float64(SegRows)) {
		t.Error("int zone map wrongly pruned its own minimum")
	}
	if r.Seg(2, 0).MayContainStr("b", "y", true, true) {
		t.Error("string zone map failed to prune segment 0")
	}
	if !r.Seg(2, 1).MayContainStr("z", "zzzz", true, true) {
		t.Error("string zone map wrongly pruned segment 1")
	}
}

func TestNaNDisablesZoneMap(t *testing.T) {
	f := make([]float64, 100)
	f[50] = math.NaN()
	path := writeFile(t, "nan", 100, []ColSpec{{Name: "f", Kind: KFloat}}, []ColData{{F: f}})
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Seg(0, 0).HasZone {
		t.Fatal("segment with NaN must not carry a zone map")
	}
	if !r.Seg(0, 0).MayContainNum(KFloat, 1e12, 2e12) {
		t.Fatal("zone-less segment must never prune")
	}
}

func TestCursorLockstep(t *testing.T) {
	n := SegRows + 777
	f := make([]float64, n)
	s := make([]string, n)
	for k := range f {
		f[k] = float64(k)
		s[k] = "v"
	}
	path := writeFile(t, "cur", n, []ColSpec{
		{Name: "f", Kind: KFloat}, {Name: "s", Kind: KString},
	}, []ColData{{F: f}, {S: s}})
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	cu := NewCursor(exec.Default(), r, nil)
	defer cu.Close()
	row := 0
	for {
		cols, cn, err := cu.Next(BlockRows)
		if err != nil {
			t.Fatal(err)
		}
		if cn == 0 {
			break
		}
		if len(cols) != 2 || cols[0].Len() != cn || cols[1].Len() != cn {
			t.Fatalf("cursor column lengths out of lockstep at row %d", row)
		}
		for j := 0; j < cn; j++ {
			if cols[0].F[j] != float64(row+j) {
				t.Fatalf("row %d: got %v", row+j, cols[0].F[j])
			}
		}
		row += cn
	}
	if row != n {
		t.Fatalf("cursor yielded %d rows, want %d", row, n)
	}
}

func TestEmptyTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.seg")
	w, err := Create(path, "empty", []ColSpec{{Name: "x", Kind: KFloat}})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Rows() != 0 || r.NumSegs() != 0 {
		t.Fatalf("rows=%d segs=%d, want 0/0", r.Rows(), r.NumSegs())
	}
	cu := NewCursor(exec.Default(), r, nil)
	if _, cn, _ := cu.Next(BlockRows); cn != 0 {
		t.Fatal("cursor over empty table yielded rows")
	}
}
