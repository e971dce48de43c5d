// Package rel implements a column-oriented relational algebra engine on top
// of the BAT substrate: selection, projection, joins, grouping/aggregation,
// renaming, set operations, sorting, and pretty printing. It is the
// relational half of the mixed workloads in the paper; the RMA operations in
// internal/core produce and consume the same Relation type, which is what
// makes the algebra closed.
//
// The hash-based operators (HashJoin, and GroupBy, which without
// aggregates is DISTINCT) identify rows by typed 64-bit key hashes with
// collision resolution against the actual key columns (see key.go).
// HashJoin decomposes its scans over the exec.Ctx passed per invocation,
// and GroupBy folds its rows serially — concurrent queries with
// different worker budgets each carry their own context and never share
// a knob. HashJoin, GroupBy, and Sort are deterministic at any worker
// budget: the same row order and bitwise-identical float payloads
// whether they run serially or on eight workers.
package rel

import (
	"fmt"
	"strings"

	"repro/internal/bat"
)

// Attr is an attribute: a name and a domain.
type Attr struct {
	Name string
	Type bat.Type
}

// Schema is a finite ordered list of attributes.
type Schema []Attr

// Names returns the attribute names in schema order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for k, a := range s {
		out[k] = a.Name
	}
	return out
}

// Index returns the position of the named attribute, or -1.
func (s Schema) Index(name string) int {
	for k, a := range s {
		if a.Name == name {
			return k
		}
	}
	return -1
}

// Clone copies the schema.
func (s Schema) Clone() Schema { return append(Schema(nil), s...) }

// Relation is a relation instance: a schema plus one BAT per attribute, all
// sharing the same virtual OID head. Name is optional and used for error
// messages and for the row origin of shape-(1,1) operations (det, rnk).
type Relation struct {
	Name   string
	Schema Schema
	Cols   []*bat.BAT
}

// New builds a relation from a schema and matching columns.
func New(name string, schema Schema, cols []*bat.BAT) (*Relation, error) {
	if len(schema) != len(cols) {
		return nil, fmt.Errorf("rel: %d attributes but %d columns", len(schema), len(cols))
	}
	n := -1
	for k, c := range cols {
		if c.Type() != schema[k].Type {
			return nil, fmt.Errorf("rel: attribute %s declared %v but column is %v",
				schema[k].Name, schema[k].Type, c.Type())
		}
		if n == -1 {
			n = c.Len()
		} else if c.Len() != n {
			return nil, fmt.Errorf("rel: ragged columns (%d vs %d)", n, c.Len())
		}
	}
	seen := make(map[string]bool, len(schema))
	for _, a := range schema {
		if seen[a.Name] {
			return nil, fmt.Errorf("rel: duplicate attribute %q", a.Name)
		}
		seen[a.Name] = true
	}
	return &Relation{Name: name, Schema: schema, Cols: cols}, nil
}

// MustNew is New that panics on error; for tests and literals.
func MustNew(name string, schema Schema, cols []*bat.BAT) *Relation {
	r, err := New(name, schema, cols)
	if err != nil {
		panic(err)
	}
	return r
}

// Empty returns a zero-row relation with the given schema.
func Empty(name string, schema Schema) *Relation {
	cols := make([]*bat.BAT, len(schema))
	for k, a := range schema {
		cols[k] = bat.FromVector(bat.NewEmptyVector(a.Type, 0))
	}
	return &Relation{Name: name, Schema: schema, Cols: cols}
}

// NumRows returns |r|.
func (r *Relation) NumRows() int {
	if len(r.Cols) == 0 {
		return 0
	}
	return r.Cols[0].Len()
}

// NumCols returns the arity.
func (r *Relation) NumCols() int { return len(r.Schema) }

// Col returns the column of the named attribute.
func (r *Relation) Col(name string) (*bat.BAT, error) {
	k := r.Schema.Index(name)
	if k < 0 {
		return nil, fmt.Errorf("rel: no attribute %q in %s", name, r.describe())
	}
	return r.Cols[k], nil
}

// colsOf resolves the named attributes to their columns.
func (r *Relation) colsOf(names []string) ([]*bat.BAT, error) {
	cols := make([]*bat.BAT, len(names))
	for k, name := range names {
		col, err := r.Col(name)
		if err != nil {
			return nil, err
		}
		cols[k] = col
	}
	return cols, nil
}

// Value returns the cell at row i, attribute position k.
func (r *Relation) Value(i, k int) bat.Value { return r.Cols[k].Get(i) }

// Row materializes row i.
func (r *Relation) Row(i int) []bat.Value {
	row := make([]bat.Value, len(r.Cols))
	for k, c := range r.Cols {
		row[k] = c.Get(i)
	}
	return row
}

// Clone deep-copies the relation.
func (r *Relation) Clone() *Relation {
	cols := make([]*bat.BAT, len(r.Cols))
	for k, c := range r.Cols {
		cols[k] = c.Clone()
	}
	return &Relation{Name: r.Name, Schema: r.Schema.Clone(), Cols: cols}
}

// WithName returns a shallow copy carrying a new relation name.
func (r *Relation) WithName(name string) *Relation {
	return &Relation{Name: name, Schema: r.Schema, Cols: r.Cols}
}

func (r *Relation) describe() string {
	if r.Name != "" {
		return fmt.Sprintf("%s(%s)", r.Name, strings.Join(r.Schema.Names(), ","))
	}
	return "(" + strings.Join(r.Schema.Names(), ",") + ")"
}

// Builder accumulates rows and produces a Relation; used by INSERT, by the
// data generators, and by tests.
type Builder struct {
	name   string
	schema Schema
	vecs   []*bat.Vector
}

// NewBuilder returns a row builder for the given schema.
func NewBuilder(name string, schema Schema) *Builder {
	b := &Builder{name: name, schema: schema, vecs: make([]*bat.Vector, len(schema))}
	for k, a := range schema {
		b.vecs[k] = bat.NewEmptyVector(a.Type, 16)
	}
	return b
}

// Add appends one row; values must match the schema arity and types.
func (b *Builder) Add(vals ...bat.Value) error {
	if len(vals) != len(b.schema) {
		return fmt.Errorf("rel: row arity %d, schema arity %d", len(vals), len(b.schema))
	}
	for k, v := range vals {
		if v.Type != b.schema[k].Type {
			// Permit int literals flowing into float columns, the one
			// coercion SQL needs constantly.
			if v.Type == bat.Int && b.schema[k].Type == bat.Float {
				vals[k] = bat.FloatValue(float64(v.I))
				continue
			}
			return fmt.Errorf("rel: value %v for attribute %s (%v)", v, b.schema[k].Name, b.schema[k].Type)
		}
	}
	for k, v := range vals {
		b.vecs[k].Append(v)
	}
	return nil
}

// MustAdd is Add that panics on error.
func (b *Builder) MustAdd(vals ...bat.Value) {
	if err := b.Add(vals...); err != nil {
		panic(err)
	}
}

// Relation finalizes the builder.
func (b *Builder) Relation() *Relation {
	cols := make([]*bat.BAT, len(b.vecs))
	for k, v := range b.vecs {
		cols[k] = bat.FromVector(v)
	}
	return &Relation{Name: b.name, Schema: b.schema, Cols: cols}
}
