package core

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/batlin"
	"repro/internal/exec"
	"repro/internal/linalg"
)

// checkUnaryShape validates the dimension requirements of a unary
// operation before the kernel runs (paper Table 1, first column).
func checkUnaryShape(op Op, a *argument) error {
	m, n := a.rows(), len(a.appCols)
	switch op {
	case OpINV, OpEVC, OpEVL, OpCHF, OpDET:
		if m != n {
			return fmt.Errorf("rma: %s needs a square application part, got %dx%d", op, m, n)
		}
	case OpQQR, OpRQR:
		if m < n {
			return fmt.Errorf("rma: %s needs at least as many rows as application attributes, got %dx%d", op, m, n)
		}
	}
	if m == 0 {
		switch op {
		case OpADD, OpSUB, OpEMU, OpTRA:
		default:
			return fmt.Errorf("rma: %s over an empty relation", op)
		}
	}
	return nil
}

// evalDenseUnary computes the base result of a unary operation with the
// dense kernels of internal/linalg: the ordered application part is
// copied once into arena working columns (workCols), which the kernel
// takes over, and the kernel's arena result columns become the result
// BATs.
func evalDenseUnary(c *exec.Ctx, op Op, a *argument, clock *phaseClock) ([]*bat.BAT, error) {
	clock.begin()
	v, err := a.workCols(c)
	clock.endTransform()
	if err != nil {
		return nil, err
	}
	clock.begin()
	res, err := denseUnaryKernel(c, op, v, a.rows())
	clock.endKernel()
	if err != nil {
		return nil, err
	}
	return floatBATs(res), nil
}

// denseUnaryKernel runs the kernel of a unary operation over the
// working columns v (m rows each), which it takes over: each is
// factored, rotated or read and then handed back to the arena.
func denseUnaryKernel(c *exec.Ctx, op Op, v [][]float64, m int) ([][]float64, error) {
	n := len(v)
	switch op {
	case OpTRA:
		defer freeCols(c, v)
		return linalg.TransposeCols(c, v, m), nil
	case OpINV:
		return linalg.Inverse(c, v)
	case OpDET:
		d, err := linalg.Det(c, v)
		return [][]float64{{d}}, err
	case OpCHF:
		return linalg.Cholesky(c, v)
	case OpEVC:
		return linalg.Eigenvectors(c, v)
	case OpEVL:
		vals, err := linalg.Eigenvalues(c, v)
		return [][]float64{vals}, err
	case OpQQR, OpRQR:
		d, err := linalg.NewQRColumns(c, v, m)
		if err != nil {
			freeCols(c, v)
			return nil, err
		}
		defer d.Free(c)
		if op == OpRQR {
			return d.R(c), nil
		}
		return d.Q(c), nil
	case OpDSV:
		sv, err := linalg.SingularValues(c, v)
		if err != nil {
			return nil, err
		}
		// Shape (c1,c1): pad to #columns when rows < columns.
		out := make([][]float64, n)
		for j := range out {
			out[j] = c.Arena().FloatsZero(n)
			if j < len(sv) {
				out[j][j] = sv[j]
			}
		}
		return out, nil
	case OpUSV, OpVSV:
		d, err := linalg.NewSVD(c, v)
		if err != nil {
			return nil, err
		}
		defer d.Free(c)
		if op == OpUSV {
			return d.FullU(c), nil
		}
		return d.FullV(c), nil
	case OpRNK:
		r, err := linalg.Rank(c, v)
		return [][]float64{{float64(r)}}, err
	}
	freeCols(c, v)
	return nil, fmt.Errorf("rma: %s is not unary", op)
}

// evalDenseBinary computes ADD, SUB, EMU or SOL with the dense kernels:
// both operands are copied into arena working columns (the copy-in
// Figure 14 measures). ADD, SUB and EMU leave their result in the first
// operand's columns, which become the result BATs; linalg.Solve factors
// the coefficient columns in place.
func evalDenseBinary(c *exec.Ctx, op Op, a, b *argument, clock *phaseClock) ([]*bat.BAT, error) {
	clock.begin()
	va, err := a.workCols(c)
	var vb [][]float64
	if err == nil {
		if vb, err = b.workCols(c); err != nil {
			freeCols(c, va)
		}
	}
	clock.endTransform()
	if err != nil {
		return nil, err
	}
	clock.begin()
	defer clock.endKernel()
	defer freeCols(c, vb)
	if op == OpSOL {
		x, err := linalg.Solve(c, va, vb[0])
		if err != nil {
			return nil, err
		}
		return floatBATs([][]float64{x}), nil
	}
	c.ParallelFor(len(va), 1, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			x, y := va[j], vb[j][:len(va[j])]
			switch op {
			case OpADD:
				for i := range x {
					x[i] += y[i]
				}
			case OpSUB:
				for i := range x {
					x[i] -= y[i]
				}
			default:
				for i := range x {
					x[i] *= y[i]
				}
			}
		}
	})
	return floatBATs(va), nil
}

// batUnarySupported reports whether the no-copy path implements the
// operation (paper §7.3: complex spectral operations are delegated even in
// BAT mode).
func batUnarySupported(op Op) bool {
	switch op {
	case OpTRA, OpINV, OpQQR, OpRQR, OpDET:
		return true
	}
	return false
}

// evalBATUnary computes the base result column-at-a-time over BATs.
func evalBATUnary(c *exec.Ctx, op Op, cols []*bat.BAT) ([]*bat.BAT, error) {
	switch op {
	case OpTRA:
		return batlin.Tra(c, cols), nil
	case OpINV:
		return batlin.Inv(c, cols)
	case OpQQR:
		q, r, err := batlin.QR(c, cols)
		for _, col := range r {
			bat.Release(c, col) // only Q is kept; recycle the R columns
		}
		return q, err
	case OpRQR:
		q, r, err := batlin.QR(c, cols)
		for _, col := range q {
			bat.Release(c, col)
		}
		return r, err
	case OpDET:
		v, err := batlin.Det(c, cols)
		if err != nil {
			return nil, err
		}
		return []*bat.BAT{bat.FromFloats([]float64{v})}, nil
	}
	return nil, fmt.Errorf("rma: %s has no BAT implementation", op)
}

func batBinarySupported(op Op) bool {
	switch op {
	case OpADD, OpSUB, OpEMU, OpMMU, OpCPD, OpOPD, OpSOL:
		return true
	}
	return false
}

// evalBATElementwise computes the base result of ADD, SUB or EMU over
// BATs: the kernels read each argument's application columns through
// its sort permutation, so no operand is gathered into operation order
// first (the leftfetchjoin runs inside the kernel).
func evalBATElementwise(c *exec.Ctx, op Op, a, b *argument) ([]*bat.BAT, error) {
	pa, pb := a.readPerm(), b.readPerm()
	switch op {
	case OpADD:
		return batlin.Add(c, a.appCols, pa, b.appCols, pb)
	case OpSUB:
		return batlin.Sub(c, a.appCols, pa, b.appCols, pb)
	}
	return batlin.EMU(c, a.appCols, pa, b.appCols, pb)
}

// evalBATBinary computes the base result of MMU, CPD, OPD or SOL over
// BATs in operation order.
func evalBATBinary(c *exec.Ctx, op Op, a, b []*bat.BAT) ([]*bat.BAT, error) {
	switch op {
	case OpMMU:
		return batlin.MMU(c, a, b)
	case OpCPD:
		return batlin.CPD(c, a, b)
	case OpOPD:
		return batlin.OPD(c, a, b)
	case OpSOL:
		x, err := batlin.Solve(c, a, b[0])
		if err != nil {
			return nil, err
		}
		return []*bat.BAT{x}, nil
	}
	return nil, fmt.Errorf("rma: %s has no BAT implementation", op)
}

// useDense decides the execution engine for one invocation (the paper's
// query-optimizer decision of §7.3).
func useDense(op Op, p Policy, binary bool) bool {
	switch p {
	case PolicyDense:
		return true
	case PolicyBAT:
		if binary {
			return !batBinarySupported(op)
		}
		return !batUnarySupported(op)
	default: // PolicyAuto: linear elementwise family on BATs, rest dense.
		switch op {
		case OpADD, OpSUB, OpEMU:
			return false
		}
		return true
	}
}
