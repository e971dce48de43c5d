package core

import "fmt"

// Op identifies a relational matrix operation. The lower-case names match
// the paper's RMA operations (Table 2); the corresponding matrix operations
// are upper-case in the paper.
type Op string

// The nineteen relational matrix operations.
const (
	OpEMU Op = "emu" // elementwise multiplication
	OpMMU Op = "mmu" // matrix multiplication
	OpOPD Op = "opd" // outer product A·Bᵀ
	OpCPD Op = "cpd" // cross product Aᵀ·B
	OpADD Op = "add" // matrix addition
	OpSUB Op = "sub" // matrix subtraction
	OpTRA Op = "tra" // transpose
	OpSOL Op = "sol" // solve A·x = b (least squares when overdetermined)
	OpINV Op = "inv" // inversion
	OpEVC Op = "evc" // eigenvectors
	OpEVL Op = "evl" // eigenvalues
	OpQQR Op = "qqr" // Q of the QR decomposition
	OpRQR Op = "rqr" // R of the QR decomposition
	OpDSV Op = "dsv" // diagonal matrix of singular values
	OpUSV Op = "usv" // left singular vectors (full U)
	OpVSV Op = "vsv" // right singular vectors (V)
	OpDET Op = "det" // determinant
	OpRNK Op = "rnk" // rank
	OpCHF Op = "chf" // Cholesky factorization
)

// Ops lists all relational matrix operations.
var Ops = []Op{
	OpEMU, OpMMU, OpOPD, OpCPD, OpADD, OpSUB, OpTRA, OpSOL, OpINV, OpEVC,
	OpEVL, OpQQR, OpRQR, OpDSV, OpUSV, OpVSV, OpDET, OpRNK, OpCHF,
}

// ParseOp resolves an operation name (case-insensitive at the SQL layer,
// which lower-cases before calling).
func ParseOp(name string) (Op, error) {
	op := Op(name)
	switch op {
	case OpEMU, OpMMU, OpOPD, OpCPD, OpADD, OpSUB, OpTRA, OpSOL, OpINV,
		OpEVC, OpEVL, OpQQR, OpRQR, OpDSV, OpUSV, OpVSV, OpDET, OpRNK, OpCHF:
		return op, nil
	}
	return "", fmt.Errorf("rma: unknown operation %q", name)
}

// Binary reports whether the operation takes two argument relations.
func (op Op) Binary() bool {
	switch op {
	case OpEMU, OpMMU, OpOPD, OpCPD, OpADD, OpSUB, OpSOL:
		return true
	}
	return false
}

// Dim is one component of a shape type: where the result's row or column
// count (and the corresponding origin) comes from.
type Dim uint8

// Shape dimensions per paper Table 1/3.
const (
	DimR1    Dim = iota // rows of the first argument
	DimR2               // rows of the second argument
	DimC1               // columns (application schema) of the first argument
	DimC2               // columns (application schema) of the second argument
	DimRStar            // rows of both arguments (equal by requirement)
	DimCStar            // columns of both arguments (union-compatible)
	DimOne              // the constant 1
)

// ShapeType is the (row, column) shape of an operation's result, which
// determines the inherited contextual information (paper Table 3).
type ShapeType struct {
	Row, Col Dim
}

// ShapeOf returns the shape type of an operation (paper Tables 1 and 2).
//
// Deviation from the paper: Table 1 lists vsv as
// (r1,1) with cardinality |i1×j1| → |i1×1|, but the right singular vector
// matrix V of an i1×j1 matrix is j1×j1. vsv is implemented with shape
// (c1,c1), the same class as rqr and dsv.
func ShapeOf(op Op) ShapeType {
	switch op {
	case OpUSV:
		return ShapeType{DimR1, DimR1}
	case OpOPD:
		return ShapeType{DimR1, DimR2}
	case OpINV, OpEVC, OpCHF, OpQQR:
		return ShapeType{DimR1, DimC1}
	case OpMMU:
		return ShapeType{DimR1, DimC2}
	case OpEVL:
		return ShapeType{DimR1, DimOne}
	case OpTRA:
		return ShapeType{DimC1, DimR1}
	case OpRQR, OpDSV, OpVSV:
		return ShapeType{DimC1, DimC1}
	case OpCPD, OpSOL:
		return ShapeType{DimC1, DimC2}
	case OpEMU, OpADD, OpSUB:
		return ShapeType{DimRStar, DimCStar}
	case OpDET, OpRNK:
		return ShapeType{DimOne, DimOne}
	}
	panic(fmt.Sprintf("rma: no shape type for %q", op))
}

// sortNeed classifies how much sorting an operation needs when the
// Section 8.1 optimizations are enabled.
type sortNeed uint8

const (
	// needFull: the base result values depend on the row order of every
	// argument (inv, det, evc, evl, chf) or the row order determines the
	// result column naming (tra).
	needFull sortNeed = iota
	// needNone: the base result is invariant (rqr, dsv, vsv, rnk) or
	// row-equivariant (qqr, usv) under input row permutation, so the
	// unsorted order part remains a valid origin.
	needNone
	// needRelative: binary elementwise-style operations where only the
	// relative order of the two inputs matters; the second argument is
	// aligned to the first (add, sub, emu, cpd, sol).
	needRelative
	// needSecondOnly: the first argument is row-equivariant but the
	// second argument's order defines value pairing or column naming
	// (mmu, opd).
	needSecondOnly
)

func sortNeedOf(op Op) sortNeed {
	switch op {
	case OpQQR, OpUSV, OpRQR, OpDSV, OpVSV, OpRNK:
		return needNone
	case OpADD, OpSUB, OpEMU, OpCPD, OpSOL:
		return needRelative
	case OpMMU, OpOPD:
		return needSecondOnly
	}
	return needFull
}
