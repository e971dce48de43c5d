package core

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/exec"
	"repro/internal/linalg"
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
func Unary(op Op, r *rel.Relation, order []string, opts *Options) (res *rel.Relation, err error) {
	if op.Binary() {
		return nil, fmt.Errorf("rma: %s takes two relations", op)
	}
	opts = opts.orDefault()
	c := opts.ctx()
	defer opts.finishCtx(c)
	defer exec.CatchBudget(&err)
	clock := phaseClock{stats: opts.Stats}

	// Split and sort (context handling).
	clock.begin()
	a, err := split(r, order)
	if err != nil {
		return nil, err
	}
	doSort := !(opts.SortMode == SortOptimized && sortNeedOf(op) == needNone)
	if doSort {
		if err := a.sortArg(c); err != nil {
			return nil, err
		}
		if opts.Stats != nil {
			opts.Stats.Sorted = true
		}
	}
	if err := checkUnaryShape(op, a); err != nil {
		return nil, err
	}
	clock.endContext()

	// Evaluate the base result.
	baseCols, err := evalUnaryBase(c, op, a, opts, &clock)
	if err != nil {
		return nil, err
	}

	// Morph and merge (context handling).
	clock.begin()
	res, err = assemble(c, op, a, nil, baseCols)
	clock.endContext()
	return res, err
}

// Binary executes a binary relational matrix operation op_U;V(r, s),
// under the same memory governance as Unary.
func Binary(op Op, r *rel.Relation, rOrder []string, s *rel.Relation, sOrder []string, opts *Options) (res *rel.Relation, err error) {
	if !op.Binary() {
		return nil, fmt.Errorf("rma: %s takes one relation", op)
	}
	opts = opts.orDefault()
	c := opts.ctx()
	defer opts.finishCtx(c)
	defer exec.CatchBudget(&err)
	clock := phaseClock{stats: opts.Stats}

	clock.begin()
	a, err := split(r, rOrder)
	if err != nil {
		return nil, err
	}
	b, err := split(s, sOrder)
	if err != nil {
		return nil, err
	}
	if err := sortBinary(c, op, a, b, opts); err != nil {
		return nil, err
	}
	if err := checkBinaryShape(op, a, b); err != nil {
		return nil, err
	}
	clock.endContext()

	baseCols, err := evalBinaryBase(c, op, a, b, opts, &clock)
	if err != nil {
		return nil, err
	}

	clock.begin()
	res, err = assemble(c, op, a, b, baseCols)
	clock.endContext()
	return res, err
}

// sortBinary applies the sorting strategy for two-argument operations:
// full sorting, or the Section 8.1 optimizations (relative sorting of the
// second argument; second-only sorting for mmu/opd).
func sortBinary(c *exec.Ctx, op Op, a, b *argument, opts *Options) error {
	need := sortNeedOf(op)
	if opts.SortMode != SortOptimized {
		need = needFull
	}
	switch need {
	case needRelative:
		// Both sort indexes are computed (also verifying the key
		// property), but only the second argument's columns are gathered:
		// b is aligned to a's input order, a stays in place.
		if err := a.sortArg(c); err != nil {
			return err
		}
		if err := b.sortArg(c); err != nil {
			return err
		}
		if a.rows() == b.rows() {
			align := c.Arena().Ints(len(b.perm))
			for k, pa := range a.perm {
				align[pa] = b.perm[k]
			}
			c.Arena().FreeInts(b.perm)
			b.perm = align
			c.Arena().FreeInts(a.perm)
			a.perm = nil // keep a in input order, no gathers
		}
		if opts.Stats != nil {
			opts.Stats.Sorted = true
		}
	case needSecondOnly:
		if err := b.sortArg(c); err != nil {
			return err
		}
		if opts.Stats != nil {
			opts.Stats.Sorted = true
		}
	default:
		if err := a.sortArg(c); err != nil {
			return err
		}
		if err := b.sortArg(c); err != nil {
			return err
		}
		if opts.Stats != nil {
			opts.Stats.Sorted = true
		}
	}
	return nil
}

// checkBinaryShape validates dimension requirements of binary operations.
func checkBinaryShape(op Op, a, b *argument) error {
	switch op {
	case OpADD, OpSUB, OpEMU:
		if a.rows() != b.rows() {
			return fmt.Errorf("rma: %s needs equal row counts, got %d and %d", op, a.rows(), b.rows())
		}
		if len(a.appCols) != len(b.appCols) {
			return fmt.Errorf("rma: %s needs union-compatible application schemas, got %d and %d attributes",
				op, len(a.appCols), len(b.appCols))
		}
		for _, attr := range b.orderSchema {
			if a.orderSchema.Index(attr.Name) >= 0 {
				return fmt.Errorf("rma: %s needs non-overlapping order schemas; %q appears in both", op, attr.Name)
			}
		}
	case OpMMU:
		if len(a.appCols) != b.rows() {
			return fmt.Errorf("rma: mmu inner dimensions: %d application attributes vs %d rows",
				len(a.appCols), b.rows())
		}
	case OpOPD:
		if len(a.appCols) != len(b.appCols) {
			return fmt.Errorf("rma: opd needs equally wide application schemas, got %d and %d",
				len(a.appCols), len(b.appCols))
		}
	case OpCPD:
		if a.rows() != b.rows() {
			return fmt.Errorf("rma: cpd needs equal row counts, got %d and %d", a.rows(), b.rows())
		}
	case OpSOL:
		if a.rows() != b.rows() {
			return fmt.Errorf("rma: sol needs equal row counts, got %d and %d", a.rows(), b.rows())
		}
		if len(b.appCols) != 1 {
			return fmt.Errorf("rma: sol needs a single application attribute on the right, got %d", len(b.appCols))
		}
		if a.rows() < len(a.appCols) {
			return fmt.Errorf("rma: sol is underdetermined: %d rows, %d unknowns", a.rows(), len(a.appCols))
		}
	}
	if a.rows() == 0 || b.rows() == 0 {
		return fmt.Errorf("rma: %s over an empty relation", op)
	}
	return nil
}

// evalUnaryBase computes the base result as a list of BATs, routing
// through the BAT or dense engine per policy and timing the phases.
func evalUnaryBase(c *exec.Ctx, op Op, a *argument, opts *Options, clock *phaseClock) ([]*bat.BAT, error) {
	if useDense(op, opts.Policy, false) {
		if opts.Stats != nil {
			opts.Stats.UsedDense = true
		}
		return evalDenseUnary(c, op, a, clock)
	}
	clock.begin()
	cols := a.orderedAppCols(c) // no-copy µ: gathered views of the BATs
	clock.endContext()
	clock.begin()
	res, err := evalBATUnary(c, op, cols)
	clock.endKernel()
	return res, err
}

func evalBinaryBase(c *exec.Ctx, op Op, a, b *argument, opts *Options, clock *phaseClock) ([]*bat.BAT, error) {
	if useDense(op, opts.Policy, true) {
		if opts.Stats != nil {
			opts.Stats.UsedDense = true
		}
		if op == OpMMU || op == OpCPD || op == OpOPD {
			return evalColumnProduct(c, op, a, b, clock)
		}
		return evalDenseBinary(c, op, a, b, clock)
	}
	if op == OpADD || op == OpSUB || op == OpEMU {
		clock.begin()
		res, err := evalBATElementwise(c, op, a, b)
		clock.endKernel()
		return res, err
	}
	clock.begin()
	ca := a.orderedAppCols(c)
	cb := b.orderedAppCols(c)
	clock.endContext()
	clock.begin()
	res, err := evalBATBinary(c, op, ca, cb)
	clock.endKernel()
	return res, err
}

// evalColumnProduct is the one dense route of MMU, CPD and OPD: the
// kernels read the ordered application columns (in place when the
// rows are already in operation order) and their arena result columns
// become the result BATs as they are. A cross product of a relation
// with itself (the covariance pattern of §8.6(3)) reads one operand and
// takes the kernel's symmetric self case, the paper's cblas_dsyrk route.
func evalColumnProduct(c *exec.Ctx, op Op, a, b *argument, clock *phaseClock) ([]*bat.BAT, error) {
	self := op == OpCPD && sameApplicationPart(a, b)
	clock.begin()
	fa, releaseA, err := a.floatCols(c)
	fb, releaseB := fa, func() {}
	if err == nil && !self {
		if fb, releaseB, err = b.floatCols(c); err != nil {
			releaseA()
		}
	}
	clock.endTransform()
	if err != nil {
		return nil, err
	}
	clock.begin()
	var res [][]float64
	switch {
	case op == OpMMU:
		res = linalg.MatMulCols(c, fa, fb, a.rows())
	case op == OpOPD:
		res = linalg.OuterProductCols(c, fa, fb, a.rows(), b.rows())
	case self:
		res = linalg.SYRKCols(c, fa)
	default:
		res = linalg.CrossProductCols(c, fa, fb)
	}
	clock.endKernel()
	releaseA()
	releaseB()
	return floatBATs(res), nil
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
// application columns in the same operation order (physically identical
// BATs and equal permutations).
func sameApplicationPart(a, b *argument) bool {
	if len(a.appCols) != len(b.appCols) {
		return false
	}
	for k := range a.appCols {
		if a.appCols[k] != b.appCols[k] {
			return false
		}
	}
	pa, pb := a.perm, b.perm
	if pa == nil && pb == nil {
		return true
	}
	na := a.rows()
	eff := func(p []int, i int) int {
		if p == nil {
			return i
		}
		return p[i]
	}
	for i := 0; i < na; i++ {
		if eff(pa, i) != eff(pb, i) {
			return false
		}
	}
	return true
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
