// Package rsim simulates the R statistical package as the paper's §8
// non-database competitor. The architectural properties that the paper's
// measurements attribute to R are modeled structurally, not by fiat:
//
//   - data.frame relational operations run on a single core and without a
//     query optimizer (Filter, Merge, GroupCount are sequential loops);
//   - matrix operations require converting a data.frame to the matrix
//     type — a full copy that the caller times (Figure 14a measures its
//     share);
//   - matrix math itself is fast and multi-core (R links a tuned BLAS), so
//     it delegates to the shared dense kernels of internal/linalg;
//   - data is loaded from CSV text, whose parse time Figure 15a shows as
//     the dark bar.
package rsim

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/bat"
	"repro/internal/matrix"
	"repro/internal/rel"
)

// DataFrame is R's data.frame / data.table: named typed columns.
type DataFrame struct {
	Names []string
	Cols  []*bat.Vector
}

// FromRelation copies a relation into a data.frame (R holds its own data).
func FromRelation(r *rel.Relation) *DataFrame {
	df := &DataFrame{Names: append([]string(nil), r.Schema.Names()...)}
	for _, c := range r.Cols {
		df.Cols = append(df.Cols, c.Vector().Clone())
	}
	return df
}

// NumRows returns the number of rows.
func (df *DataFrame) NumRows() int {
	if len(df.Cols) == 0 {
		return 0
	}
	return df.Cols[0].Len()
}

// Col returns the named column.
func (df *DataFrame) Col(name string) (*bat.Vector, error) {
	for k, n := range df.Names {
		if n == name {
			return df.Cols[k], nil
		}
	}
	return nil, fmt.Errorf("rsim: no column %q", name)
}

// LoadCSV parses CSV text into a data.frame, inferring column types from
// the first data row (read.csv). This is the load cost of Figure 15a.
func LoadCSV(text string) (*DataFrame, error) {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) < 1 {
		return nil, fmt.Errorf("rsim: empty csv")
	}
	names := strings.Split(lines[0], ",")
	df := &DataFrame{Names: names}
	if len(lines) == 1 {
		for range names {
			df.Cols = append(df.Cols, bat.NewEmptyVector(bat.Float, 0))
		}
		return df, nil
	}
	first := strings.Split(lines[1], ",")
	types := make([]bat.Type, len(names))
	for k, cell := range first {
		if _, err := strconv.ParseInt(cell, 10, 64); err == nil {
			types[k] = bat.Int
		} else if _, err := strconv.ParseFloat(cell, 64); err == nil {
			types[k] = bat.Float
		} else {
			types[k] = bat.String
		}
	}
	for k := range names {
		df.Cols = append(df.Cols, bat.NewEmptyVector(types[k], len(lines)-1))
	}
	for _, line := range lines[1:] {
		cells := strings.Split(line, ",")
		if len(cells) != len(names) {
			return nil, fmt.Errorf("rsim: ragged csv row")
		}
		for k, cell := range cells {
			switch types[k] {
			case bat.Int:
				v, err := strconv.ParseInt(cell, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("rsim: %v", err)
				}
				df.Cols[k].Append(bat.IntValue(v))
			case bat.Float:
				v, err := strconv.ParseFloat(cell, 64)
				if err != nil {
					return nil, fmt.Errorf("rsim: %v", err)
				}
				df.Cols[k].Append(bat.FloatValue(v))
			default:
				df.Cols[k].Append(bat.StringValue(cell))
			}
		}
	}
	return df, nil
}

// Filter keeps rows satisfying the predicate — sequential, single core.
func (df *DataFrame) Filter(pred func(i int) bool) *DataFrame {
	var idx []int
	n := df.NumRows()
	for i := 0; i < n; i++ {
		if pred(i) {
			idx = append(idx, i)
		}
	}
	out := &DataFrame{Names: df.Names}
	for _, c := range df.Cols {
		out.Cols = append(out.Cols, c.Gather(nil, idx))
	}
	return out
}

// Merge is R's merge(): an equi-join executed on a single core with
// per-row key boxing and no join-order optimization.
func Merge(l, r *DataFrame, lKey, rKey string) (*DataFrame, error) {
	lc, err := l.Col(lKey)
	if err != nil {
		return nil, err
	}
	rc, err := r.Col(rKey)
	if err != nil {
		return nil, err
	}
	build := make(map[string][]int, rc.Len())
	for j := 0; j < rc.Len(); j++ {
		build[rc.Get(j).String()] = append(build[rc.Get(j).String()], j)
	}
	var li, ri []int
	for i := 0; i < lc.Len(); i++ {
		for _, j := range build[lc.Get(i).String()] {
			li = append(li, i)
			ri = append(ri, j)
		}
	}
	out := &DataFrame{}
	for k, c := range l.Cols {
		out.Names = append(out.Names, l.Names[k])
		out.Cols = append(out.Cols, c.Gather(nil, li))
	}
	for k, c := range r.Cols {
		if r.Names[k] == rKey {
			continue
		}
		out.Names = append(out.Names, r.Names[k])
		out.Cols = append(out.Cols, c.Gather(nil, ri))
	}
	return out, nil
}

// GroupCount counts rows per key column value (table()), single core.
func (df *DataFrame) GroupCount(key string) (map[string]int, error) {
	c, err := df.Col(key)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int)
	for i := 0; i < c.Len(); i++ {
		out[c.Get(i).String()]++
	}
	return out, nil
}

// ToMatrix converts the named numeric columns to R's matrix type — a full
// copy into contiguous storage. This is the transformation whose share of
// the query time Figure 14a reports.
func (df *DataFrame) ToMatrix(cols []string) (*matrix.Matrix, error) {
	n := df.NumRows()
	m := matrix.New(n, len(cols))
	for j, name := range cols {
		c, err := df.Col(name)
		if err != nil {
			return nil, err
		}
		if c.Type() == bat.String {
			return nil, fmt.Errorf("rsim: column %q is character", name)
		}
		f, _ := c.AsFloats()
		for i := 0; i < n; i++ {
			m.Data[i*len(cols)+j] = f[i]
		}
	}
	return m, nil
}

// FromMatrix converts a matrix back to a data.frame (the copy-back half).
func FromMatrix(m *matrix.Matrix, names []string) *DataFrame {
	df := &DataFrame{Names: names}
	for j := 0; j < m.Cols; j++ {
		df.Cols = append(df.Cols, bat.NewFloatVector(m.Column(j)))
	}
	return df
}
