// Package rma is the public API of the relational matrix algebra library,
// a reproduction of "A Relational Matrix Algebra and its Implementation in
// a Column Store" (Dolmatova, Augsten, Böhlen — SIGMOD 2020).
//
// The package exposes three layers:
//
//   - relations: build column-oriented relations with Builder, or load
//     them through SQL (CREATE TABLE / INSERT);
//
//   - the nineteen relational matrix operations (Add, Mmu, Inv, Qqr, ...)
//     over relations with order schemas, returning relations with origins;
//
//   - a SQL dialect with the paper's extension, where matrix operations
//     appear as table functions in FROM:
//
//     db := rma.NewDB()
//     db.MustExec(`CREATE TABLE rating (Usr VARCHAR(20), Balto DOUBLE, Heat DOUBLE, Net DOUBLE)`)
//     db.MustExec(`INSERT INTO rating VALUES ('Ann',2.0,1.5,0.5), ('Tom',0.0,0.0,1.5), ('Jan',1.0,4.0,1.0)`)
//     res, err := db.Query(`SELECT * FROM INV(rating BY Usr)`)
//
// Execution knobs mirror the paper's ablations: Policy selects between
// the no-copy BAT kernels (RMA+BAT) and the dense delegated kernels
// (RMA+MKL); SortMode enables the Section 8.1 sorting optimizations.
package rma

import (
	"io"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/csvio"
	"repro/internal/rel"
	"repro/internal/sql"
)

// Relation is a relation instance: a schema plus one typed column per
// attribute. It is the single data structure of the algebra — every
// operation consumes and produces relations.
type Relation = rel.Relation

// Schema is an ordered list of attributes.
type Schema = rel.Schema

// Attr is an attribute (name and type).
type Attr = rel.Attr

// Builder accumulates rows into a Relation.
type Builder = rel.Builder

// Value is one cell value.
type Value = bat.Value

// Type is a column domain.
type Type = bat.Type

// Column domains.
const (
	Float  = bat.Float
	Int    = bat.Int
	String = bat.String
)

// Float64 wraps a float64 cell value.
func Float64(f float64) Value { return bat.FloatValue(f) }

// Int64 wraps an int64 cell value.
func Int64(i int64) Value { return bat.IntValue(i) }

// Str wraps a string cell value.
func Str(s string) Value { return bat.StringValue(s) }

// NewBuilder returns a row builder for a schema.
func NewBuilder(name string, schema Schema) *Builder { return rel.NewBuilder(name, schema) }

// NewRelation builds a relation from typed columns (float64, int64 or
// string slices).
func NewRelation(name string, schema Schema, cols []any) (*Relation, error) {
	bats := make([]*bat.BAT, len(cols))
	for k, c := range cols {
		switch v := c.(type) {
		case []float64:
			bats[k] = bat.FromFloats(v)
		case []int64:
			bats[k] = bat.FromInts(v)
		case []string:
			bats[k] = bat.FromStrings(v)
		default:
			return rel.New(name, schema, nil) // triggers the arity error
		}
	}
	return rel.New(name, schema, bats)
}

// Options configures operation execution.
type Options = core.Options

// Policy selects the execution engine (paper §7.3).
type Policy = core.Policy

// Execution policies.
const (
	// PolicyAuto runs elementwise operations on BATs and delegates the
	// rest to the dense kernel (the paper's default optimizer policy).
	PolicyAuto = core.PolicyAuto
	// PolicyBAT forces the no-copy column-at-a-time kernels (RMA+BAT).
	PolicyBAT = core.PolicyBAT
	// PolicyDense forces dense delegation (RMA+MKL) with its data
	// transformation.
	PolicyDense = core.PolicyDense
)

// SortMode toggles the §8.1 sorting optimizations.
type SortMode = core.SortMode

// Sorting modes.
const (
	// SortFull always sorts by the order schema.
	SortFull = core.SortFull
	// SortOptimized skips or relativizes sorting where the base result
	// permits it.
	SortOptimized = core.SortOptimized
)

// Stats receives per-phase timings of an operation.
type Stats = core.Stats

// Op names a relational matrix operation.
type Op = core.Op

// Apply runs a unary relational matrix operation by name (one of "tra",
// "inv", "evc", "evl", "qqr", "rqr", "dsv", "usv", "vsv", "det", "rnk",
// "chf").
func Apply(op string, r *Relation, by []string, opts *Options) (*Relation, error) {
	o, err := core.ParseOp(op)
	if err != nil {
		return nil, err
	}
	return core.Unary(o, r, by, opts)
}

// Apply2 runs a binary relational matrix operation by name (one of "add",
// "sub", "emu", "mmu", "cpd", "opd", "sol").
func Apply2(op string, r *Relation, rBy []string, s *Relation, sBy []string, opts *Options) (*Relation, error) {
	o, err := core.ParseOp(op)
	if err != nil {
		return nil, err
	}
	return core.Binary(o, r, rBy, s, sBy, opts)
}

// The nineteen relational matrix operations (paper Table 2).
var (
	Add = core.Add
	Sub = core.Sub
	Emu = core.Emu
	Mmu = core.Mmu
	Cpd = core.Cpd
	Opd = core.Opd
	Sol = core.Sol
	Tra = core.Tra
	Inv = core.Inv
	Evc = core.Evc
	Evl = core.Evl
	Qqr = core.Qqr
	Rqr = core.Rqr
	Dsv = core.Dsv
	Usv = core.Usv
	Vsv = core.Vsv
	Det = core.Det
	Rnk = core.Rnk
	Chf = core.Chf
)

// ReadCSV parses CSV (header row required) into a relation, inferring
// column types from the data.
func ReadCSV(r io.Reader, name string) (*Relation, error) { return csvio.Read(r, name) }

// ReadCSVSchema parses CSV against a declared schema.
func ReadCSVSchema(r io.Reader, name string, schema Schema) (*Relation, error) {
	return csvio.ReadWithSchema(r, name, schema)
}

// WriteCSV renders a relation as CSV with a header row.
func WriteCSV(w io.Writer, r *Relation) error { return csvio.Write(w, r) }

// DB is an in-memory SQL database with RMA table functions.
type DB struct {
	*sql.DB
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{DB: sql.NewDB()} }

// MustExec runs a script and panics on error; for setup code and examples.
func (db *DB) MustExec(src string) *Relation {
	res, err := db.Exec(src)
	if err != nil {
		panic(err)
	}
	return res
}
