package dataset

import (
	"testing"

	"repro/internal/bat"
)

func TestStations(t *testing.T) {
	s := Stations(50, 1)
	if s.NumRows() != 50 || s.NumCols() != 4 {
		t.Fatalf("stations = %dx%d", s.NumRows(), s.NumCols())
	}
	lat, _ := s.Col("lat")
	f, _ := lat.Floats()
	for _, v := range f {
		if v < 45.0 || v > 46.0 {
			t.Fatalf("lat out of range: %v", v)
		}
	}
	// Deterministic in the seed.
	s2 := Stations(50, 1)
	f2, _ := func() ([]float64, error) { c, _ := s2.Col("lat"); return c.Floats() }()
	for k := range f {
		if f[k] != f2[k] {
			t.Fatal("not deterministic")
		}
	}
}

func TestTrips(t *testing.T) {
	tr := Trips(1000, 100, 2)
	if tr.NumRows() != 1000 {
		t.Fatalf("trips = %d", tr.NumRows())
	}
	// Durations positive; end after start.
	d, _ := tr.Col("duration")
	f, _ := d.Floats()
	sd, _ := tr.Col("start_date")
	ed, _ := tr.Col("end_date")
	sdi := sd.Vector().Ints()
	edi := ed.Vector().Ints()
	for i := range f {
		if f[i] <= 0 {
			t.Fatalf("duration %v", f[i])
		}
		if edi[i] < sdi[i] {
			t.Fatalf("end before start at %d", i)
		}
	}
	// Station codes within range.
	ss, _ := tr.Col("start_station")
	for _, c := range ss.Vector().Ints() {
		if c < 1000 || c >= 1100 {
			t.Fatalf("station code %d", c)
		}
	}
	// Member is a string flag.
	m, _ := tr.Col("member")
	if m.Type() != bat.String {
		t.Error("member should be a string column")
	}
}

func TestRiderTripCounts(t *testing.T) {
	r := RiderTripCounts(200, 3)
	if r.NumRows() != 200 || r.NumCols() != 11 {
		t.Fatalf("riders = %dx%d", r.NumRows(), r.NumCols())
	}
	// Different seeds differ (different years).
	r2 := RiderTripCounts(200, 4)
	c1, _ := r.Col("dest0")
	c2, _ := r2.Col("dest0")
	f1, _ := c1.Floats()
	f2, _ := c2.Floats()
	same := true
	for k := range f1 {
		if f1[k] != f2[k] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds should differentiate years")
	}
}

func TestPublicationsAndRankings(t *testing.T) {
	p := Publications(500, 30, 5)
	if p.NumRows() != 500 || p.NumCols() != 31 {
		t.Fatalf("pubs = %dx%d", p.NumRows(), p.NumCols())
	}
	// Sparse counts: majority zero.
	c, _ := p.Col(ConferenceName(0))
	f, _ := c.Floats()
	zeros := 0
	for _, v := range f {
		if v == 0 {
			zeros++
		}
	}
	if zeros < 400 {
		t.Errorf("only %d zeros out of 500", zeros)
	}
	rk := Rankings(30, 5)
	if rk.NumRows() != 30 {
		t.Fatalf("rankings = %d", rk.NumRows())
	}
	rc, _ := rk.Col("conf")
	if rc.Vector().Strings()[0] != ConferenceName(0) {
		t.Error("ranking conference ids do not match publications")
	}
}

func TestUniform(t *testing.T) {
	u := Uniform(100, 5, 6)
	if u.NumRows() != 100 || u.NumCols() != 6 {
		t.Fatalf("uniform = %dx%d", u.NumRows(), u.NumCols())
	}
	c, _ := u.Col("a0000")
	f, _ := c.Floats()
	for _, v := range f {
		if v < 0 || v >= 10000 {
			t.Fatalf("value out of range: %v", v)
		}
	}
}

func TestSparse(t *testing.T) {
	s := Sparse(1000, 3, 0.8, 7)
	c, _ := s.Col("a0000")
	if !c.IsSparse() {
		t.Fatal("sparse columns should be zero-suppressed")
	}
	nnz := nonZeros(c.Sparse().Densify(nil))
	if nnz < 120 || nnz > 280 { // ~20% of 1000
		t.Errorf("nnz = %d, want ~200", nnz)
	}
	// zeroFrac = 0 → dense content.
	d := Sparse(100, 1, 0, 8)
	cd, _ := d.Col("a0000")
	if nnz := nonZeros(cd.Sparse().Densify(nil)); nnz != 100 {
		t.Errorf("zeroFrac 0 nnz = %d", nnz)
	}
}

func nonZeros(f []float64) int {
	n := 0
	for _, v := range f {
		if v != 0 {
			n++
		}
	}
	return n
}

func TestWideOrder(t *testing.T) {
	r, names := WideOrder(200, 10, 9)
	if r.NumCols() != 11 || len(names) != 10 {
		t.Fatalf("wideorder cols = %d names = %d", r.NumCols(), len(names))
	}
	// First order column unique (forms a key).
	c, _ := r.Col(names[0])
	seen := map[int64]bool{}
	for _, v := range c.Vector().Ints() {
		if seen[v] {
			t.Fatal("first order column not unique")
		}
		seen[v] = true
	}
}
