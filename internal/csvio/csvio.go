// Package csvio reads and writes relations as CSV, the interchange format
// a downstream user needs to get real data (e.g. the BIXI trips the paper
// evaluates on) in and out of the engine. Types are inferred per column
// from the data unless a schema is supplied: a column is BIGINT if every
// value parses as an integer, DOUBLE if every value parses as a number,
// and VARCHAR otherwise.
package csvio

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/bat"
	"repro/internal/rel"
)

// Read parses CSV with a header row into a relation, inferring column
// types from the data.
func Read(r io.Reader, name string) (*rel.Relation, error) {
	header, rows, err := records(r)
	if err != nil {
		return nil, err
	}
	schema := make(rel.Schema, len(header))
	for k, n := range header {
		schema[k] = rel.Attr{Name: n, Type: inferType(rows, k)}
	}
	return build(name, schema, rows)
}

// ReadWithSchema parses CSV with a header row against a declared schema.
func ReadWithSchema(r io.Reader, name string, schema rel.Schema) (*rel.Relation, error) {
	header, rows, err := records(r)
	if err != nil {
		return nil, err
	}
	if len(header) != len(schema) {
		return nil, fmt.Errorf("csvio: %d header fields for schema of arity %d", len(header), len(schema))
	}
	return build(name, schema, rows)
}

// records reads the header row and every record after it.
func records(r io.Reader) (header []string, rows [][]string, err error) {
	cr := csv.NewReader(r)
	if header, err = cr.Read(); err != nil {
		return nil, nil, fmt.Errorf("csvio: header: %v", err)
	}
	if rows, err = cr.ReadAll(); err != nil {
		return nil, nil, fmt.Errorf("csvio: %v", err)
	}
	return header, rows, nil
}

func inferType(rows [][]string, k int) bat.Type {
	t := bat.Int
	for _, row := range rows {
		cell := row[k]
		if t == bat.Int {
			if _, err := strconv.ParseInt(cell, 10, 64); err == nil {
				continue
			}
			t = bat.Float
		}
		if t == bat.Float {
			if _, err := strconv.ParseFloat(cell, 64); err == nil {
				continue
			}
			return bat.String
		}
	}
	return t
}

func build(name string, schema rel.Schema, rows [][]string) (*rel.Relation, error) {
	b := rel.NewBuilder(name, schema)
	vals := make([]bat.Value, len(schema))
	for i, row := range rows {
		if len(row) != len(schema) {
			return nil, fmt.Errorf("csvio: row %d has %d fields, want %d", i+1, len(row), len(schema))
		}
		for k, cell := range row {
			switch schema[k].Type {
			case bat.Int:
				v, err := strconv.ParseInt(cell, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("csvio: row %d, column %s: %v", i+1, schema[k].Name, err)
				}
				vals[k] = bat.IntValue(v)
			case bat.Float:
				v, err := strconv.ParseFloat(cell, 64)
				if err != nil {
					return nil, fmt.Errorf("csvio: row %d, column %s: %v", i+1, schema[k].Name, err)
				}
				vals[k] = bat.FloatValue(v)
			default:
				vals[k] = bat.StringValue(cell)
			}
		}
		if err := b.Add(vals...); err != nil {
			return nil, fmt.Errorf("csvio: row %d: %v", i+1, err)
		}
	}
	return b.Relation(), nil
}

// Write renders the relation as CSV with a header row.
func Write(w io.Writer, r *rel.Relation) error {
	cw := csv.NewWriter(w)
	if err := writeRecord(w, cw, r.Schema.Names()); err != nil {
		return fmt.Errorf("csvio: %v", err)
	}
	n := r.NumRows()
	rec := make([]string, r.NumCols())
	for i := 0; i < n; i++ {
		for k, c := range r.Cols {
			rec[k] = c.Get(i).String()
		}
		if err := writeRecord(w, cw, rec); err != nil {
			return fmt.Errorf("csvio: %v", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeRecord writes one record through cw, which writes to w.
// encoding/csv writes a lone empty field as a blank line, which readers
// skip, so that record goes out as a quoted empty field.
func writeRecord(w io.Writer, cw *csv.Writer, rec []string) error {
	if len(rec) != 1 || rec[0] != "" {
		return cw.Write(rec)
	}
	if cw.Flush(); cw.Error() != nil {
		return cw.Error()
	}
	_, err := io.WriteString(w, "\"\"\n")
	return err
}
