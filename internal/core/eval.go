package core

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/batlin"
	"repro/internal/exec"
	"repro/internal/linalg"
)

// require is one argument requirement of paper Table 1 (first column),
// checked before the kernel runs; b is nil for a unary operation.
type require func(op Op, a, b *argument) error

func square(op Op, a, _ *argument) error {
	if m, n := a.rows(), len(a.appCols); m != n {
		return fmt.Errorf("rma: %s needs a square application part, got %dx%d", op, m, n)
	}
	return nil
}

func tall(op Op, a, _ *argument) error {
	if m, n := a.rows(), len(a.appCols); m < n {
		return fmt.Errorf("rma: %s needs at least as many rows as application attributes, got %dx%d", op, m, n)
	}
	return nil
}

func equalRows(op Op, a, b *argument) error {
	if a.rows() != b.rows() {
		return fmt.Errorf("rma: %s needs equal row counts, got %d and %d", op, a.rows(), b.rows())
	}
	return nil
}

func unionCompatible(op Op, a, b *argument) error {
	if len(a.appCols) != len(b.appCols) {
		return fmt.Errorf("rma: %s needs union-compatible application schemas, got %d and %d attributes",
			op, len(a.appCols), len(b.appCols))
	}
	return nil
}

func disjointOrders(op Op, a, b *argument) error {
	for _, attr := range b.orderSchema {
		if a.orderSchema.Index(attr.Name) >= 0 {
			return fmt.Errorf("rma: %s needs non-overlapping order schemas; %q appears in both", op, attr.Name)
		}
	}
	return nil
}

func innerDims(op Op, a, b *argument) error {
	if len(a.appCols) != b.rows() {
		return fmt.Errorf("rma: %s inner dimensions: %d application attributes vs %d rows", op, len(a.appCols), b.rows())
	}
	return nil
}

func equalWidths(op Op, a, b *argument) error {
	if len(a.appCols) != len(b.appCols) {
		return fmt.Errorf("rma: %s needs equally wide application schemas, got %d and %d", op, len(a.appCols), len(b.appCols))
	}
	return nil
}

func oneRightHandSide(op Op, _, b *argument) error {
	if len(b.appCols) != 1 {
		return fmt.Errorf("rma: %s needs a single application attribute on the right, got %d", op, len(b.appCols))
	}
	return nil
}

func determined(op Op, a, _ *argument) error {
	if a.rows() < len(a.appCols) {
		return fmt.Errorf("rma: %s is underdetermined: %d rows, %d unknowns", op, a.rows(), len(a.appCols))
	}
	return nil
}

// checkArgs validates the arguments against the operation's
// requirements, then rejects an empty argument unless the operation
// admits one.
func (s *opSpec) checkArgs(a, b *argument) error {
	for _, req := range s.check {
		if err := req(s.op, a, b); err != nil {
			return err
		}
	}
	if !s.empty && (a.rows() == 0 || b != nil && b.rows() == 0) {
		return fmt.Errorf("rma: %s over an empty relation", s.op)
	}
	return nil
}

// batKernel computes a base result column-at-a-time over the ordered
// application columns of the arguments (b is nil for a unary operation).
type batKernel func(c *exec.Ctx, a, b []*bat.BAT) ([]*bat.BAT, error)

func batTra(c *exec.Ctx, a, _ []*bat.BAT) ([]*bat.BAT, error) { return batlin.Tra(c, a), nil }

func batInv(c *exec.Ctx, a, _ []*bat.BAT) ([]*bat.BAT, error) { return batlin.Inv(c, a) }

func batDet(c *exec.Ctx, a, _ []*bat.BAT) ([]*bat.BAT, error) {
	d, err := batlin.Det(c, a)
	if err != nil {
		return nil, err
	}
	return []*bat.BAT{bat.FromFloats([]float64{d})}, nil
}

func batSolve(c *exec.Ctx, a, b []*bat.BAT) ([]*bat.BAT, error) {
	x, err := batlin.Solve(c, a, b[0])
	if err != nil {
		return nil, err
	}
	return []*bat.BAT{x}, nil
}

// batQR keeps the R (keepR) or the Q factor of batlin.QR and recycles
// the other's columns.
func batQR(keepR bool) batKernel {
	return func(c *exec.Ctx, a, _ []*bat.BAT) ([]*bat.BAT, error) {
		keep, drop, err := batlin.QR(c, a)
		if keepR {
			keep, drop = drop, keep
		}
		for _, col := range drop {
			bat.Release(c, col)
		}
		return keep, err
	}
}

// denseKernel computes a base result from the operands' float columns
// (w is nil for a unary operation) into arena result columns. A kernel
// of a row without reads takes its operands over: each is factored,
// rotated or read and then handed back to the arena.
type denseKernel func(c *exec.Ctx, v, w [][]float64) ([][]float64, error)

// unary adapts a linalg kernel of one operand that returns its result
// columns.
func unary(f func(*exec.Ctx, [][]float64) ([][]float64, error)) denseKernel {
	return func(c *exec.Ctx, v, _ [][]float64) ([][]float64, error) { return f(c, v) }
}

func denseTra(c *exec.Ctx, v, _ [][]float64) ([][]float64, error) {
	defer freeCols(c, v)
	return linalg.TransposeCols(c, v, len(v[0])), nil
}

func denseDet(c *exec.Ctx, v, _ [][]float64) ([][]float64, error) {
	d, err := linalg.Det(c, v)
	return [][]float64{{d}}, err
}

func denseEvl(c *exec.Ctx, v, _ [][]float64) ([][]float64, error) {
	vals, err := linalg.Eigenvalues(c, v)
	return [][]float64{vals}, err
}

func denseRnk(c *exec.Ctx, v, _ [][]float64) ([][]float64, error) {
	r, err := linalg.Rank(c, v)
	return [][]float64{{float64(r)}}, err
}

// denseQR returns the R (keepR) or the Q factor of the Householder QR.
func denseQR(keepR bool) denseKernel {
	return func(c *exec.Ctx, v, _ [][]float64) ([][]float64, error) {
		d, err := linalg.NewQRColumns(c, v, len(v[0]))
		if err != nil {
			freeCols(c, v)
			return nil, err
		}
		defer d.Free(c)
		if keepR {
			return d.R(c), nil
		}
		return d.Q(c), nil
	}
}

// denseDsv places the singular values on the diagonal of shape (c1,c1),
// padded to the column count when there are fewer rows than columns.
func denseDsv(c *exec.Ctx, v, _ [][]float64) ([][]float64, error) {
	n := len(v)
	sv, err := linalg.SingularValues(c, v)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, n)
	for j := range out {
		out[j] = c.Arena().FloatsZero(n)
		if j < len(sv) {
			out[j][j] = sv[j]
		}
	}
	return out, nil
}

// denseSVD returns the full V (right) or the full U factor of the SVD.
func denseSVD(right bool) denseKernel {
	return func(c *exec.Ctx, v, _ [][]float64) ([][]float64, error) {
		d, err := linalg.NewSVD(c, v)
		if err != nil {
			return nil, err
		}
		defer d.Free(c)
		if right {
			return d.FullV(c), nil
		}
		return d.FullU(c), nil
	}
}

func denseSolve(c *exec.Ctx, v, w [][]float64) ([][]float64, error) {
	defer freeCols(c, w)
	x, err := linalg.Solve(c, v, w[0])
	return [][]float64{x}, err
}

// denseElementwise is the dense kernel of ADD, SUB and EMU: f combines
// each column of w into the same column of v, and v is the result.
func denseElementwise(f func(x, y []float64)) denseKernel {
	return func(c *exec.Ctx, v, w [][]float64) ([][]float64, error) {
		defer freeCols(c, w)
		c.ParallelFor(len(v), 1, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				f(v[j], w[j][:len(v[j])])
			}
		})
		return v, nil
	}
}

func addCols(x, y []float64) {
	for i := range x {
		x[i] += y[i]
	}
}

func subCols(x, y []float64) {
	for i := range x {
		x[i] -= y[i]
	}
}

func mulCols(x, y []float64) {
	for i := range x {
		x[i] *= y[i]
	}
}

// The dense products read their operands in place. A cross product of a
// relation with itself (the covariance pattern of §8.6(3)) reads one
// operand and takes the kernel's symmetric self case, the paper's
// cblas_dsyrk route.

func denseMMU(c *exec.Ctx, v, w [][]float64) ([][]float64, error) {
	return linalg.MatMulCols(c, v, w, len(v[0])), nil
}

func denseOPD(c *exec.Ctx, v, w [][]float64) ([][]float64, error) {
	return linalg.OuterProductCols(c, v, w, len(v[0]), len(w[0])), nil
}

func denseCPD(c *exec.Ctx, v, w [][]float64) ([][]float64, error) {
	return linalg.CrossProductCols(c, v, w), nil
}

func denseSYRK(c *exec.Ctx, v, _ [][]float64) ([][]float64, error) { return linalg.SYRKCols(c, v), nil }
