// Package matrix provides a dense row-major two-dimensional array, the
// matrix type of the R and AIDA simulations (internal/competitor) and of
// the benchmark code that drives them (internal/bench), together with
// the elementwise operations those simulations run on it (ADD, EMU,
// scaling). The RMA engine does not use it: its dense
// kernels (internal/linalg) run on float columns, the layout of a
// relation's BATs; Columns and FromColumns convert between the two.
package matrix

import (
	"fmt"
	"math"
)

// Matrix is an n×k dense matrix in row-major order. |m| is Rows (number of
// rows), #m is Cols (number of columns), m[i,j] is At(i,j) — all 1-based in
// the paper, 0-based here.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// New returns a zero matrix of the given shape.
func New(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromColumns builds a matrix from column slices (copied).
func FromColumns(cols [][]float64) *Matrix {
	if len(cols) == 0 {
		return New(0, 0)
	}
	m := New(len(cols[0]), len(cols))
	for j, c := range cols {
		if len(c) != m.Rows {
			panic(fmt.Sprintf("matrix: ragged column %d (%d vs %d)", j, len(c), m.Rows))
		}
		for i, v := range c {
			m.Data[i*m.Cols+j] = v
		}
	}
	return m
}

// At returns m[i,j].
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns m[i,j] = v.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns the i-th row as a shared sub-slice (m[i,*]).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Column copies the j-th column out (m[*,j]).
func (m *Matrix) Column(j int) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Data[i*m.Cols+j]
	}
	return out
}

// Columns copies all columns out, the layout BATs use.
func (m *Matrix) Columns() [][]float64 {
	out := make([][]float64, m.Cols)
	for j := range out {
		out[j] = m.Column(j)
	}
	return out
}

func sameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Add returns a + b (ADD).
func Add(a, b *Matrix) *Matrix {
	sameShape("add", a, b)
	out := New(a.Rows, a.Cols)
	for k, v := range a.Data {
		out.Data[k] = v + b.Data[k]
	}
	return out
}

// EMU returns the elementwise (Hadamard) product a ∘ b.
func EMU(a, b *Matrix) *Matrix {
	sameShape("emu", a, b)
	out := New(a.Rows, a.Cols)
	for k, v := range a.Data {
		out.Data[k] = v * b.Data[k]
	}
	return out
}

// Scale returns s * a.
func (m *Matrix) Scale(s float64) *Matrix {
	out := New(m.Rows, m.Cols)
	for k, v := range m.Data {
		out.Data[k] = v * s
	}
	return out
}

// ApproxEqual reports whether the matrices match elementwise within tol.
func ApproxEqual(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for k := range a.Data {
		if math.Abs(a.Data[k]-b.Data[k]) > tol {
			return false
		}
	}
	return true
}
