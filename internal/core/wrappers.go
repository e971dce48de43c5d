package core

import "repro/internal/rel"

// The functions below are typed convenience wrappers over Unary and
// Binary, one per relational matrix operation, in the order of paper
// Table 2. order / rOrder / sOrder are the order schemas (the BY clauses
// of the SQL extension).

// Usv returns op with the full matrix of left singular vectors (r1,r1).
func Usv(r *rel.Relation, order []string, opts *Options) (*rel.Relation, error) {
	return Unary(OpUSV, r, order, opts)
}

// Opd is the outer product A·Bᵀ (r1,r2).
func Opd(r *rel.Relation, rOrder []string, s *rel.Relation, sOrder []string, opts *Options) (*rel.Relation, error) {
	return Binary(OpOPD, r, rOrder, s, sOrder, opts)
}

// Inv is matrix inversion (r1,c1).
func Inv(r *rel.Relation, order []string, opts *Options) (*rel.Relation, error) {
	return Unary(OpINV, r, order, opts)
}

// Evc returns the eigenvector matrix (r1,c1).
func Evc(r *rel.Relation, order []string, opts *Options) (*rel.Relation, error) {
	return Unary(OpEVC, r, order, opts)
}

// Chf is the Cholesky factorization (r1,c1).
func Chf(r *rel.Relation, order []string, opts *Options) (*rel.Relation, error) {
	return Unary(OpCHF, r, order, opts)
}

// Qqr returns matrix Q of the QR decomposition (r1,c1).
func Qqr(r *rel.Relation, order []string, opts *Options) (*rel.Relation, error) {
	return Unary(OpQQR, r, order, opts)
}

// Mmu is matrix multiplication (r1,c2).
func Mmu(r *rel.Relation, rOrder []string, s *rel.Relation, sOrder []string, opts *Options) (*rel.Relation, error) {
	return Binary(OpMMU, r, rOrder, s, sOrder, opts)
}

// Evl returns the eigenvalues (r1,1).
func Evl(r *rel.Relation, order []string, opts *Options) (*rel.Relation, error) {
	return Unary(OpEVL, r, order, opts)
}

// Tra is transposition (c1,r1).
func Tra(r *rel.Relation, order []string, opts *Options) (*rel.Relation, error) {
	return Unary(OpTRA, r, order, opts)
}

// Rqr returns matrix R of the QR decomposition (c1,c1).
func Rqr(r *rel.Relation, order []string, opts *Options) (*rel.Relation, error) {
	return Unary(OpRQR, r, order, opts)
}

// Dsv returns the diagonal matrix of singular values (c1,c1).
func Dsv(r *rel.Relation, order []string, opts *Options) (*rel.Relation, error) {
	return Unary(OpDSV, r, order, opts)
}

// Vsv returns the matrix of right singular vectors (c1,c1). The paper's
// Table 1 lists (r1,1), but V of an i1×j1 matrix is j1×j1; see ShapeOf.
func Vsv(r *rel.Relation, order []string, opts *Options) (*rel.Relation, error) {
	return Unary(OpVSV, r, order, opts)
}

// Cpd is the cross product Aᵀ·B (c1,c2).
func Cpd(r *rel.Relation, rOrder []string, s *rel.Relation, sOrder []string, opts *Options) (*rel.Relation, error) {
	return Binary(OpCPD, r, rOrder, s, sOrder, opts)
}

// Sol solves A·x = b (c1,c2).
func Sol(r *rel.Relation, rOrder []string, s *rel.Relation, sOrder []string, opts *Options) (*rel.Relation, error) {
	return Binary(OpSOL, r, rOrder, s, sOrder, opts)
}

// Emu is elementwise multiplication (r*,c*).
func Emu(r *rel.Relation, rOrder []string, s *rel.Relation, sOrder []string, opts *Options) (*rel.Relation, error) {
	return Binary(OpEMU, r, rOrder, s, sOrder, opts)
}

// Add is matrix addition (r*,c*).
func Add(r *rel.Relation, rOrder []string, s *rel.Relation, sOrder []string, opts *Options) (*rel.Relation, error) {
	return Binary(OpADD, r, rOrder, s, sOrder, opts)
}

// Sub is matrix subtraction (r*,c*).
func Sub(r *rel.Relation, rOrder []string, s *rel.Relation, sOrder []string, opts *Options) (*rel.Relation, error) {
	return Binary(OpSUB, r, rOrder, s, sOrder, opts)
}

// Det is the determinant (1,1).
func Det(r *rel.Relation, order []string, opts *Options) (*rel.Relation, error) {
	return Unary(OpDET, r, order, opts)
}

// Rnk is the matrix rank (1,1).
func Rnk(r *rel.Relation, order []string, opts *Options) (*rel.Relation, error) {
	return Unary(OpRNK, r, order, opts)
}
