package linalg

import (
	"math"
	"sort"

	"repro/internal/exec"
)

// SVD holds a singular value decomposition A = U·diag(S)·Vᵀ computed with
// the one-sided Jacobi (Hestenes) method. For an m×n input with m >= n,
// U is n columns of m rows (orthonormal), S has n non-negative values in
// descending order, and V is n columns of n rows (orthogonal). Inputs
// with m < n are handled by factoring the transpose and swapping U and
// V. U and V are drawn from the factoring context's arena; Free hands
// back what FullU and FullV have not taken over.
type SVD struct {
	U [][]float64
	S []float64
	V [][]float64
}

const (
	svdMaxSweeps = 60
	svdEps       = 1e-14
)

// NewSVD computes the decomposition of the matrix held as the columns a
// (n columns of m rows, drawn from c's arena) under c's worker budget.
// It rotates a in place and takes the columns over.
func NewSVD(c *exec.Ctx, a [][]float64) (*SVD, error) {
	if len(a) == 0 || len(a[0]) == 0 {
		freeCols(c, a)
		return nil, ErrShape
	}
	m, n := len(a[0]), len(a)
	if m < n {
		t := TransposeCols(c, a, m)
		freeCols(c, a)
		d, err := NewSVD(c, t)
		if err != nil {
			return nil, err
		}
		d.U, d.V = d.V, d.U
		return d, nil
	}
	// Work on columns: u[j] is the j-th column of the rotating A, and
	// vcols[j] the j-th column of the accumulating V.
	u := a
	vcols := identityCols(c, n)

	// Each sweep visits every column pair once. A round-robin tournament
	// schedule makes the pairs within a round disjoint, so a round's
	// rotations fan out on c's workers without moving a bit (the classic
	// parallel one-sided Jacobi).
	players := n
	if players%2 == 1 {
		players++
	}
	seat := make([]int, players)
	for i := range seat {
		seat[i] = i
		if i >= n {
			seat[i] = -1 // bye for odd n
		}
	}
	rotate := func(p, q int) bool {
		var alpha, beta, gamma float64
		up, uq := u[p], u[q]
		for i := 0; i < m; i++ {
			alpha += up[i] * up[i]
			beta += uq[i] * uq[i]
			gamma += up[i] * uq[i]
		}
		if math.Abs(gamma) <= svdEps*math.Sqrt(alpha*beta) || gamma == 0 {
			return false
		}
		zeta := (beta - alpha) / (2 * gamma)
		t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
		cs := 1 / math.Sqrt(1+t*t)
		sn := cs * t
		rotatePair(up, uq, cs, sn)
		rotatePair(vcols[p], vcols[q], cs, sn)
		return true
	}
	// A round fans out from 4 pairs on, once its pairs read and rotate
	// about minParallelWork elements (4·m per pair: m·n > 2¹⁴ for a
	// round of n/2 pairs).
	minPairs := max(3, minParallelWork/(4*m))
	type pair struct{ p, q int }
	pairs := make([]pair, 0, players/2)
	rotated := make([]bool, players/2)
	round := func(lo, hi int) {
		for x := lo; x < hi; x++ {
			rotated[x] = rotate(pairs[x].p, pairs[x].q)
		}
	}
	for sweep := 0; sweep < svdMaxSweeps; sweep++ {
		rotatedAny := false
		for r := 0; r < players-1; r++ {
			pairs = pairs[:0]
			for i := 0; i < players/2; i++ {
				p, q := seat[i], seat[players-1-i]
				if p >= 0 && q >= 0 {
					pairs = append(pairs, pair{min(p, q), max(p, q)})
				}
			}
			c.ParallelFor(len(pairs), minPairs, round)
			for _, ok := range rotated[:len(pairs)] {
				rotatedAny = rotatedAny || ok
			}
			// Rotate the tournament seats (seat 0 fixed).
			last := seat[players-1]
			copy(seat[2:], seat[1:players-1])
			seat[1] = last
		}
		if !rotatedAny {
			break
		}
	}

	// Singular values are the column norms; normalize the columns into U.
	sv := make([]float64, n)
	for j := range u {
		sv[j] = norm2(u[j])
	}

	// Sort descending, permuting U and V consistently.
	order := make([]int, n)
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(x, y int) bool { return sv[order[x]] > sv[order[y]] })

	uOut := make([][]float64, n)
	vOut := make([][]float64, n)
	sOut := make([]float64, n)
	zeroTol := float64(m) * svdEps * sv[order[0]]
	r := 0 // the columns of singular values above zeroTol lead
	for dst, src := range order {
		sOut[dst] = sv[src]
		uOut[dst] = u[src]
		vOut[dst] = vcols[src]
		if sv[src] > zeroTol {
			inv := 1 / sv[src]
			for i := range u[src] {
				u[src][i] *= inv
			}
			r++
		}
	}
	// Columns for (near-)zero singular values are arbitrary up to
	// orthonormality; complete the leading r to an orthonormal basis.
	freeCols(c, uOut[r:])
	copy(uOut[r:], complementCols(c, uOut[:r], m, n))
	return &SVD{U: uOut, S: sOut, V: vOut}, nil
}

// rotatePair applies the plane rotation (cs, sn) to the columns x and y:
// x ← cs·x − sn·y, y ← sn·x + cs·y. Both Jacobi methods rotate their
// columns through it.
func rotatePair(x, y []float64, cs, sn float64) {
	y = y[:len(x)]
	for i, xi := range x {
		yi := y[i]
		x[i] = cs*xi - sn*yi
		y[i] = sn*xi + cs*yi
	}
}

// norm2 returns the Euclidean norm of x.
func norm2(x []float64) float64 {
	var norm float64
	for _, v := range x {
		norm += v * v
	}
	return math.Sqrt(norm)
}

// FullU extends the thin U factor to m×m orthogonal columns; the first
// n columns are U itself, the rest an orthonormal complement drawn from
// c's arena. This is what the paper's USV (shape (r1,r1): m×n in, m×m
// out) returns. The result takes U's columns over.
func (d *SVD) FullU(c *exec.Ctx) [][]float64 {
	u := squareCols(c, d.U)
	d.U = nil
	return u
}

// FullV extends the V factor to square orthogonal columns, taking V's
// columns over; V is already square except when the input had fewer
// rows than columns.
func (d *SVD) FullV(c *exec.Ctx) [][]float64 {
	v := squareCols(c, d.V)
	d.V = nil
	return v
}

// Free hands the factors that FullU and FullV have not taken over back
// to c's arena.
func (d *SVD) Free(c *exec.Ctx) {
	freeCols(c, d.U)
	freeCols(c, d.V)
	d.U, d.V = nil, nil
}

// squareCols completes the orthonormal columns u of m rows to m
// orthonormal columns, taking u over.
func squareCols(c *exec.Ctx, u [][]float64) [][]float64 {
	m := len(u[0])
	return append(u, complementCols(c, u, m, m)...)
}

// SingularValues returns the singular values of the columns a (consumed
// as by NewSVD) in descending order (the DSV base result is diag of
// these).
func SingularValues(c *exec.Ctx, a [][]float64) ([]float64, error) {
	d, err := NewSVD(c, a)
	if err != nil {
		return nil, err
	}
	d.Free(c)
	return d.S, nil
}

// Rank returns the numerical rank of the columns a (consumed as by
// NewSVD): the number of singular values above max(m,n)·eps·σmax (the
// RNK operation).
func Rank(c *exec.Ctx, a [][]float64) (int, error) {
	dim := len(a)
	if len(a) > 0 {
		dim = max(dim, len(a[0]))
	}
	s, err := SingularValues(c, a)
	if err != nil {
		return 0, err
	}
	if len(s) == 0 || s[0] == 0 {
		return 0, nil
	}
	tol := float64(dim) * 2.220446049250313e-16 * s[0]
	r := 0
	for _, v := range s {
		if v > tol {
			r++
		}
	}
	return r, nil
}
