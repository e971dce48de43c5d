package csvio

import (
	"math"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/rel"
)

const sample = `id,name,score
1,Ann,2.5
2,"Bob, Jr.",3
3,Cid,-1.25
`

func TestReadInference(t *testing.T) {
	r, err := Read(strings.NewReader(sample), "t")
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 3 || r.NumCols() != 3 {
		t.Fatalf("size = %dx%d", r.NumRows(), r.NumCols())
	}
	if r.Schema[0].Type != bat.Int || r.Schema[1].Type != bat.String || r.Schema[2].Type != bat.Float {
		t.Fatalf("inferred types = %v %v %v", r.Schema[0].Type, r.Schema[1].Type, r.Schema[2].Type)
	}
	if r.Value(1, 1).S != "Bob, Jr." {
		t.Errorf("quoted cell = %q", r.Value(1, 1).S)
	}
	if r.Value(2, 2).F != -1.25 {
		t.Errorf("score = %v", r.Value(2, 2))
	}
}

func TestRoundTrip(t *testing.T) {
	r, err := Read(strings.NewReader(sample), "t")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Write(&sb, r); err != nil {
		t.Fatal(err)
	}
	back, err := Read(strings.NewReader(sb.String()), "t")
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != r.NumRows() {
		t.Fatalf("round trip rows = %d", back.NumRows())
	}
	for i := 0; i < r.NumRows(); i++ {
		for k := 0; k < r.NumCols(); k++ {
			if !back.Value(i, k).Equal(r.Value(i, k)) {
				t.Fatalf("cell %d,%d: %v vs %v", i, k, back.Value(i, k), r.Value(i, k))
			}
		}
	}
}

func TestReadWithSchema(t *testing.T) {
	schema := rel.Schema{
		{Name: "id", Type: bat.Float}, // force float even though ints parse
		{Name: "name", Type: bat.String},
		{Name: "score", Type: bat.Float},
	}
	r, err := ReadWithSchema(strings.NewReader(sample), "t", schema)
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema[0].Type != bat.Float {
		t.Errorf("declared type ignored: %v", r.Schema[0].Type)
	}
	if _, err := ReadWithSchema(strings.NewReader(sample), "t", schema[:2]); err == nil {
		t.Error("arity mismatch accepted")
	}
	bad := rel.Schema{
		{Name: "id", Type: bat.Int},
		{Name: "name", Type: bat.Int}, // names do not parse as ints
		{Name: "score", Type: bat.Float},
	}
	if _, err := ReadWithSchema(strings.NewReader(sample), "t", bad); err == nil {
		t.Error("unparseable cell accepted")
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(strings.NewReader(""), "t"); err == nil {
		t.Error("empty input accepted")
	}
	// encoding/csv rejects ragged rows.
	if _, err := Read(strings.NewReader("a,b\n1\n"), "t"); err == nil {
		t.Error("ragged row accepted")
	}
	// Header-only input yields an empty relation.
	r, err := Read(strings.NewReader("a,b\n"), "t")
	if err != nil || r.NumRows() != 0 || r.NumCols() != 2 {
		t.Errorf("header-only: %v, %v", r, err)
	}
}

func TestIntThenFloatPromotion(t *testing.T) {
	r, err := Read(strings.NewReader("x\n1\n2.5\n"), "t")
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema[0].Type != bat.Float {
		t.Errorf("mixed int/float column inferred as %v", r.Schema[0].Type)
	}
}

// FuzzReadCSV holds Read to its contract on arbitrary input: it returns
// a relation or an error and never panics, and a relation it returns
// survives Write and ReadWithSchema under its own schema with every
// cell equal (floats bitwise). The seeds are the two one-column shapes
// encoding/csv writes as a blank line: an empty-string cell, and an
// attribute named "".
func FuzzReadCSV(f *testing.F) {
	f.Add("0\n\"\"")
	f.Add("\"\"\na\n")
	f.Add(sample)
	f.Fuzz(func(t *testing.T, in string) {
		r, err := Read(strings.NewReader(in), "t")
		if err != nil {
			return
		}
		var sb strings.Builder
		if err := Write(&sb, r); err != nil {
			t.Fatalf("Write: %v", err)
		}
		back, err := ReadWithSchema(strings.NewReader(sb.String()), "t", r.Schema)
		if err != nil {
			t.Fatalf("ReadWithSchema of %q: %v", sb.String(), err)
		}
		if back.NumRows() != r.NumRows() {
			t.Fatalf("round trip of %q: %d rows, want %d", sb.String(), back.NumRows(), r.NumRows())
		}
		if got, want := back.Schema.Names(), r.Schema.Names(); strings.Join(got, "\x00") != strings.Join(want, "\x00") {
			t.Fatalf("round trip header %q, want %q", got, want)
		}
		for i := 0; i < r.NumRows(); i++ {
			for k := 0; k < r.NumCols(); k++ {
				a, b := r.Value(i, k), back.Value(i, k)
				if a.Type != b.Type || a.I != b.I || a.S != b.S || math.Float64bits(a.F) != math.Float64bits(b.F) {
					t.Fatalf("round trip of %q: cell %d,%d = %v, want %v", sb.String(), i, k, b, a)
				}
			}
		}
	})
}
