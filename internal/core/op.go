package core

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/batlin"
	"repro/internal/exec"
	"repro/internal/linalg"
)

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

// Ops lists all relational matrix operations, in the order of the
// operation table's rows.
var Ops = func() []Op {
	ops := make([]Op, len(opTable))
	for k, s := range opTable {
		ops[k] = s.op
	}
	return ops
}()

// ParseOp resolves an operation name (case-insensitive at the SQL layer,
// which lower-cases before calling).
func ParseOp(name string) (Op, error) {
	s, err := specOf(Op(name))
	if err != nil {
		return "", err
	}
	return s.op, nil
}

// Binary reports whether the operation takes two argument relations.
func (op Op) Binary() bool {
	s, err := specOf(op)
	return err == nil && s.binary
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
	s, err := specOf(op)
	if err != nil {
		panic(fmt.Sprintf("rma: no shape type for %q", op))
	}
	return s.shape
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

// opSpec is one operation's row of the operation table: the facts the
// paper states about it and the kernels that compute its base result.
// The Algorithm 1 driver (run) reads nothing else about an operation.
type opSpec struct {
	op     Op
	binary bool      // takes two argument relations
	shape  ShapeType // paper Tables 1-3
	sort   sortNeed  // §8.1
	// check lists the argument requirements (paper Table 1), checked in
	// order after sorting; empty admits arguments without rows, which
	// every other operation rejects after its requirements.
	check []require
	empty bool
	// bat is §7.3's no-copy kernel over the ordered application columns,
	// batRead one that reads the operands through their sort
	// permutations instead; with neither, PolicyBAT runs dense. autoBAT
	// keeps the operation on BATs under PolicyAuto.
	bat     batKernel
	batRead func(c *exec.Ctx, a []*bat.BAT, pa []int, b []*bat.BAT, pb []int) ([]*bat.BAT, error)
	autoBAT bool
	// dense is the kernel of internal/linalg. With reads set it only
	// reads its operands, the ordered application columns in place;
	// otherwise it takes over one arena copy of them. self, when set,
	// serves a second argument that is the first one again.
	dense denseKernel
	reads bool
	self  denseKernel
}

// elementwise are the requirements of ADD, SUB and EMU (shape (r*,c*)).
var elementwise = []require{equalRows, unionCompatible, disjointOrders}

// opTable holds one row per relational matrix operation. A row without
// a sort entry needs every argument sorted (needFull is the zero value).
var opTable = [...]opSpec{
	{op: OpEMU, binary: true, shape: ShapeType{DimRStar, DimCStar}, sort: needRelative, check: elementwise, empty: true,
		batRead: batlin.EMU, autoBAT: true, dense: denseElementwise(mulCols)},
	{op: OpMMU, binary: true, shape: ShapeType{DimR1, DimC2}, sort: needSecondOnly, check: []require{innerDims},
		bat: batlin.MMU, dense: denseMMU, reads: true},
	{op: OpOPD, binary: true, shape: ShapeType{DimR1, DimR2}, sort: needSecondOnly, check: []require{equalWidths},
		bat: batlin.OPD, dense: denseOPD, reads: true},
	{op: OpCPD, binary: true, shape: ShapeType{DimC1, DimC2}, sort: needRelative, check: []require{equalRows},
		bat: batlin.CPD, dense: denseCPD, reads: true, self: denseSYRK},
	{op: OpADD, binary: true, shape: ShapeType{DimRStar, DimCStar}, sort: needRelative, check: elementwise, empty: true,
		batRead: batlin.Add, autoBAT: true, dense: denseElementwise(addCols)},
	{op: OpSUB, binary: true, shape: ShapeType{DimRStar, DimCStar}, sort: needRelative, check: elementwise, empty: true,
		batRead: batlin.Sub, autoBAT: true, dense: denseElementwise(subCols)},
	{op: OpTRA, shape: ShapeType{DimC1, DimR1}, empty: true, bat: batTra, dense: denseTra},
	{op: OpSOL, binary: true, shape: ShapeType{DimC1, DimC2}, sort: needRelative, check: []require{equalRows, oneRightHandSide, determined},
		bat: batSolve, dense: denseSolve},
	{op: OpINV, shape: ShapeType{DimR1, DimC1}, check: []require{square}, bat: batInv, dense: unary(linalg.Inverse)},
	{op: OpEVC, shape: ShapeType{DimR1, DimC1}, check: []require{square}, dense: unary(linalg.Eigenvectors)},
	{op: OpEVL, shape: ShapeType{DimR1, DimOne}, check: []require{square}, dense: denseEvl},
	{op: OpQQR, shape: ShapeType{DimR1, DimC1}, sort: needNone, check: []require{tall}, bat: batQR(false), dense: denseQR(false)},
	{op: OpRQR, shape: ShapeType{DimC1, DimC1}, sort: needNone, check: []require{tall}, bat: batQR(true), dense: denseQR(true)},
	{op: OpDSV, shape: ShapeType{DimC1, DimC1}, sort: needNone, dense: denseDsv},
	{op: OpUSV, shape: ShapeType{DimR1, DimR1}, sort: needNone, dense: denseSVD(false)},
	{op: OpVSV, shape: ShapeType{DimC1, DimC1}, sort: needNone, dense: denseSVD(true)},
	{op: OpDET, shape: ShapeType{DimOne, DimOne}, check: []require{square}, bat: batDet, dense: denseDet},
	{op: OpRNK, shape: ShapeType{DimOne, DimOne}, sort: needNone, dense: denseRnk},
	{op: OpCHF, shape: ShapeType{DimR1, DimC1}, check: []require{square}, dense: unary(linalg.Cholesky)},
}

// specOf returns the operation's row of the table.
func specOf(op Op) (*opSpec, error) {
	for k := range opTable {
		if opTable[k].op == op {
			return &opTable[k], nil
		}
	}
	return nil, fmt.Errorf("rma: unknown operation %q", string(op))
}
