package matrix

import (
	"testing"
	"testing/quick"
)

// fromRows builds a matrix from row slices.
func fromRows(rows [][]float64) *Matrix {
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

// transpose returns mᵀ: its columns are m's rows.
func transpose(m *Matrix) *Matrix {
	rows := make([][]float64, m.Rows)
	for i := range rows {
		rows[i] = m.Row(i)
	}
	return FromColumns(rows)
}

func TestConstructors(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}})
	c := FromColumns([][]float64{{1, 3}, {2, 4}})
	if c.Rows != 2 || c.Cols != 2 || c.At(1, 0) != 3 {
		t.Fatalf("FromColumns = %v", c)
	}
	if !ApproxEqual(m, c, 0) {
		t.Errorf("FromColumns != rows: %v vs %v", c, m)
	}
	if FromColumns(nil).Cols != 0 {
		t.Error("empty constructor broken")
	}
	if z := New(2, 3); z.Rows != 2 || z.Cols != 3 || !ApproxEqual(z, FromColumns([][]float64{{0, 0}, {0, 0}, {0, 0}}), 0) {
		t.Errorf("New = %v", z)
	}
}

func TestRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ragged FromColumns should panic")
		}
	}()
	FromColumns([][]float64{{1, 2}, {3}})
}

func TestAccessors(t *testing.T) {
	m := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	m.Set(0, 2, 9)
	if m.At(0, 2) != 9 {
		t.Error("Set/At broken")
	}
	if r := m.Row(1); r[0] != 4 || len(r) != 3 {
		t.Errorf("Row = %v", r)
	}
	if c := m.Column(1); c[0] != 2 || c[1] != 5 {
		t.Errorf("Column = %v", c)
	}
	cols := m.Columns()
	if len(cols) != 3 || cols[2][1] != 6 {
		t.Errorf("Columns = %v", cols)
	}
}

func TestElementwise(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{10, 20}, {30, 40}})
	if got := Add(a, b); got.At(1, 1) != 44 {
		t.Errorf("Add = %v", got)
	}
	if got := EMU(a, b); got.At(1, 0) != 90 {
		t.Errorf("EMU = %v", got)
	}
	if got := a.Scale(2); got.At(0, 1) != 4 {
		t.Errorf("Scale = %v", got)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add of mismatched shapes should panic")
		}
	}()
	Add(New(1, 2), New(2, 1))
}

func TestPredicates(t *testing.T) {
	s := fromRows([][]float64{{2, 1}, {1, 3}})
	ns := fromRows([][]float64{{2, 1}, {0, 3}})
	if ApproxEqual(s, ns, 0.5) {
		t.Error("ApproxEqual too lax")
	}
	if !ApproxEqual(s, ns, 2.5) {
		t.Error("ApproxEqual too strict")
	}
	if ApproxEqual(s, New(1, 1), 100) {
		t.Error("shape mismatch should not be equal")
	}
}

// Property: (A + B)ᵀ = Aᵀ + Bᵀ and A + B = B + A on random matrices.
func TestAddProperties(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) < 8 {
			return true
		}
		vals = vals[:8]
		for i, v := range vals {
			if v != v || v > 1e150 || v < -1e150 { // NaN/huge guards
				vals[i] = 1
			}
		}
		a := fromRows([][]float64{vals[0:2], vals[2:4]})
		b := fromRows([][]float64{vals[4:6], vals[6:8]})
		lhs := transpose(Add(a, b))
		rhs := Add(transpose(a), transpose(b))
		comm := Add(b, a)
		return ApproxEqual(lhs, rhs, 0) && ApproxEqual(Add(a, b), comm, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
