package core

import (
	"fmt"
	"slices"

	"repro/internal/bat"
	"repro/internal/exec"
	"repro/internal/rel"
)

// contextAttr is the name of the attribute that carries contextual
// information for operations that do not preserve row context (paper
// Table 2, attribute C).
const contextAttr = "C"

// Unary executes a unary relational matrix operation op_U(r) following
// Algorithm 1: split, sort, morph, evaluate, merge. The order attributes
// must form a key of r; all remaining attributes form the application
// schema and must be numeric.
//
// A governed invocation (Options.MemoryBudget) runs once. Every operator
// holds no more arena memory at the configured parallelism than at one
// worker: one whose parallel path needs extra scratch (a merge buffer,
// per-run staging) draws it up front and, when the budget refuses it,
// runs its serial body in place, which Stats.SerialFallback records.
// Kernels are bitwise-deterministic across worker budgets, so the result
// does not depend on which path ran. An invocation that exceeds its
// budget anyway returns the typed error (matching exec.ErrMemoryBudget)
// — never a panic.
func Unary(op Op, r *rel.Relation, order []string, opts *Options) (*rel.Relation, error) {
	return run(op, opts, []*rel.Relation{r}, [][]string{order})
}

// Binary executes a binary relational matrix operation op_U;V(r, s),
// under the same memory governance as Unary.
func Binary(op Op, r *rel.Relation, rOrder []string, s *rel.Relation, sOrder []string, opts *Options) (*rel.Relation, error) {
	return run(op, opts, []*rel.Relation{r, s}, [][]string{rOrder, sOrder})
}

// run is Algorithm 1 for one or two argument relations, driven by the
// operation's row of the operation table. An unknown operation or a
// wrong number of arguments fails before anything is split or sorted;
// then each argument is split, the arguments are sorted, their shapes
// checked, the base result evaluated and the result assembled.
func run(op Op, opts *Options, rels []*rel.Relation, orders [][]string) (res *rel.Relation, err error) {
	s, err := specOf(op)
	if err != nil {
		return nil, err
	}
	if s.binary != (len(rels) == 2) {
		if s.binary {
			return nil, fmt.Errorf("rma: %s takes two relations", op)
		}
		return nil, fmt.Errorf("rma: %s takes one relation", op)
	}
	opts = opts.orDefault()
	c := opts.ctx()
	defer opts.finishCtx(c)
	defer exec.CatchBudget(&err)
	clock := phaseClock{stats: opts.Stats}

	// Split, sort and check (context handling).
	clock.begin()
	args := make([]*argument, len(rels))
	for k, r := range rels {
		if args[k], err = split(r, orders[k]); err != nil {
			return nil, err
		}
	}
	need := s.sort
	if opts.SortMode != SortOptimized {
		need = needFull
	}
	if err := sortArgs(c, need, args, opts.Stats); err != nil {
		return nil, err
	}
	a, b := args[0], (*argument)(nil)
	if s.binary {
		b = args[1]
	}
	if err := s.checkArgs(a, b); err != nil {
		return nil, err
	}
	clock.endContext()

	baseCols, err := s.eval(c, a, b, opts, &clock)
	if err != nil {
		return nil, err
	}

	// Morph and merge (context handling).
	clock.begin()
	res, err = assemble(c, op, a, b, baseCols)
	clock.endContext()
	return res, err
}

// sortArgs is the Sorting step over the arguments: every argument under
// needFull, none under needNone, only the second under needSecondOnly.
// Under needRelative both sort indexes are computed (also verifying the
// key property), but only the second argument is read through its
// permutation: it is aligned to the first argument's input order, and
// the first stays in place, so none of its columns is gathered.
func sortArgs(c *exec.Ctx, need sortNeed, args []*argument, stats *Stats) error {
	switch need {
	case needNone:
		return nil
	case needSecondOnly:
		args = args[1:]
	}
	for _, a := range args {
		if err := a.sortArg(c); err != nil {
			return err
		}
	}
	if a, b := args[0], args[len(args)-1]; need == needRelative && a.rows() == b.rows() {
		align := c.Arena().Ints(len(b.perm))
		for k, pa := range a.perm {
			align[pa] = b.perm[k]
		}
		c.Arena().FreeInts(b.perm)
		b.perm = align
		c.Arena().FreeInts(a.perm)
		a.perm = nil
	}
	if stats != nil {
		stats.Sorted = true
	}
	return nil
}

// eval computes the base result as a list of BATs, on the BAT kernels
// or the dense kernels as the policy and the operation's row decide
// (the paper's query-optimizer decision of §7.3), timing the phases.
func (s *opSpec) eval(c *exec.Ctx, a, b *argument, opts *Options, clock *phaseClock) ([]*bat.BAT, error) {
	onBAT := opts.Policy == PolicyBAT || opts.Policy == PolicyAuto && s.autoBAT
	if onBAT && s.batRead != nil {
		clock.begin()
		res, err := s.batRead(c, a.appCols, a.readPerm(), b.appCols, b.readPerm())
		clock.endKernel()
		return res, err
	}
	if onBAT && s.bat != nil {
		clock.begin()
		ca, cb := a.orderedAppCols(c), []*bat.BAT(nil) // no-copy µ: gathered views of the BATs
		if b != nil {
			cb = b.orderedAppCols(c)
		}
		clock.endContext()
		clock.begin()
		res, err := s.bat(c, ca, cb)
		clock.endKernel()
		return res, err
	}
	if opts.Stats != nil {
		opts.Stats.UsedDense = true
	}
	kernel := s.dense
	if s.self != nil && sameApplicationPart(a, b) {
		kernel, b = s.self, nil
	}
	clock.begin()
	v, release, err := denseOperands(c, s.reads, a, b)
	clock.endTransform()
	if err != nil {
		return nil, err
	}
	clock.begin()
	res, err := kernel(c, v[0], v[1])
	clock.endKernel()
	release()
	if err != nil {
		return nil, err
	}
	return floatBATs(res), nil
}

// denseOperands makes the ordered application parts of a and b (b may
// be nil) into the dense kernel's float columns. A kernel that only
// reads them gets them in place (floatCols), and release hands back any
// gathered or converted copy once it has run; any other kernel takes
// over one arena copy of each (workCols), which leaves release nothing
// to do. On error nothing stays drawn.
func denseOperands(c *exec.Ctx, reads bool, a, b *argument) (v [2][][]float64, release func(), err error) {
	var undo []func()
	release = func() {
		for _, u := range undo {
			u()
		}
	}
	for k, x := range []*argument{a, b} {
		if x == nil {
			break
		}
		var u func()
		if reads {
			v[k], u, err = x.floatCols(c)
		} else if v[k], err = x.workCols(c); err == nil {
			w := v[k]
			u = func() { freeCols(c, w) }
		}
		if err != nil {
			release()
			return v, nil, err
		}
		undo = append(undo, u)
	}
	if !reads {
		return v, func() {}, nil
	}
	return v, release, nil
}

// floatBATs wraps result columns as BATs without copying them.
func floatBATs(cols [][]float64) []*bat.BAT {
	out := make([]*bat.BAT, len(cols))
	for j, col := range cols {
		out[j] = bat.FromFloats(col)
	}
	return out
}

// sameApplicationPart reports whether two arguments share the same
// application columns in the same operation order: physically identical
// BATs read through equal permutations (rows already in order read
// through none).
func sameApplicationPart(a, b *argument) bool {
	return slices.Equal(a.appCols, b.appCols) && slices.Equal(a.readPerm(), b.readPerm())
}

// assemble merges contextual information with the base result according to
// the operation's shape type (the relation constructor γ applications of
// paper Table 2).
func assemble(c *exec.Ctx, op Op, a, b *argument, baseCols []*bat.BAT) (*rel.Relation, error) {
	shape := ShapeOf(op)
	name := a.rel.Name

	// Column origins: the names of the base result attributes.
	var colNames []string
	var err error
	switch shape.Col {
	case DimC1, DimCStar:
		colNames = a.appSchema.Names()
	case DimC2:
		colNames = b.appSchema.Names()
	case DimR1:
		colNames, err = a.columnCast(c) // ▽U
	case DimR2:
		colNames, err = b.columnCast(c) // ▽V
	case DimOne:
		colNames = []string{string(op)}
	}
	if err != nil {
		return nil, err
	}
	if len(colNames) != len(baseCols) {
		return nil, fmt.Errorf("rma: %s produced %d columns for %d names", op, len(baseCols), len(colNames))
	}

	// Row origins: the leading contextual columns.
	var schema rel.Schema
	var cols []*bat.BAT
	switch shape.Row {
	case DimR1:
		schema = append(schema, a.orderSchema...)
		cols = append(cols, a.orderedOrderCols(c)...)
	case DimRStar:
		schema = append(schema, a.orderSchema...)
		cols = append(cols, a.orderedOrderCols(c)...)
		schema = append(schema, b.orderSchema...)
		cols = append(cols, b.orderedOrderCols(c)...)
	case DimC1:
		vals := a.schemaCast() // ∆Ū
		schema = append(schema, rel.Attr{Name: contextAttr, Type: bat.String})
		cols = append(cols, bat.FromStrings(vals))
	case DimOne:
		src := name
		if src == "" {
			src = "r"
		}
		schema = append(schema, rel.Attr{Name: contextAttr, Type: bat.String})
		cols = append(cols, bat.FromStrings([]string{src}))
	}

	schema = append(schema, floatSchema(colNames)...)
	cols = append(cols, baseCols...)
	res, err := rel.New(name, schema, cols)
	if err != nil {
		return nil, fmt.Errorf("rma: %s result: %v", op, err)
	}
	return res, nil
}
