package core

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/batlin"
	"repro/internal/exec"
	"repro/internal/linalg"
	"repro/internal/matrix"
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
// dense kernels.
func evalDenseUnary(c *exec.Ctx, op Op, a *matrix.Matrix) (*matrix.Matrix, error) {
	switch op {
	case OpTRA:
		return a.T(), nil
	case OpINV:
		return linalg.Inverse(a)
	case OpEVC:
		return linalg.Eigenvectors(a)
	case OpEVL:
		vals, err := linalg.Eigenvalues(a)
		if err != nil {
			return nil, err
		}
		out := matrix.New(len(vals), 1)
		for i, v := range vals {
			out.Set(i, 0, v)
		}
		return out, nil
	case OpDSV:
		sv, err := linalg.SingularValues(c, a)
		if err != nil {
			return nil, err
		}
		// Shape (c1,c1): pad to #columns when rows < columns.
		d := make([]float64, a.Cols)
		copy(d, sv)
		return matrix.Diag(d), nil
	case OpUSV:
		d, err := linalg.NewSVD(c, a)
		if err != nil {
			return nil, err
		}
		return d.FullU(), nil
	case OpVSV:
		d, err := linalg.NewSVD(c, a)
		if err != nil {
			return nil, err
		}
		return d.FullV(), nil
	case OpCHF:
		return linalg.Cholesky(a)
	case OpDET:
		v, err := linalg.Det(a)
		if err != nil {
			return nil, err
		}
		return matrix.FromRows([][]float64{{v}}), nil
	case OpRNK:
		r, err := linalg.Rank(c, a)
		if err != nil {
			return nil, err
		}
		return matrix.FromRows([][]float64{{float64(r)}}), nil
	}
	return nil, fmt.Errorf("rma: %s is not unary", op)
}

// evalDenseBinary computes the base result of a binary operation with the
// dense kernels.
func evalDenseBinary(c *exec.Ctx, op Op, a, b *matrix.Matrix) (*matrix.Matrix, error) {
	switch op {
	case OpADD:
		return matrix.Add(a, b), nil
	case OpSUB:
		return matrix.Sub(a, b), nil
	case OpEMU:
		return matrix.EMU(a, b), nil
	case OpSOL:
		x, err := linalg.Solve(c, a, b.Column(0))
		if err != nil {
			return nil, err
		}
		out := matrix.New(len(x), 1)
		for i, v := range x {
			out.Set(i, 0, v)
		}
		return out, nil
	}
	return nil, fmt.Errorf("rma: %s is not binary", op)
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
