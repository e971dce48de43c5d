package linalg

import (
	"math"
	"sort"
	"sync"

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
		t := make([][]float64, m)
		for i := range t {
			t[i] = c.Arena().Floats(n)
			for j, col := range a {
				t[i][j] = col[i]
			}
		}
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
	// schedule makes the pairs within a round disjoint, so rounds
	// parallelize across cores (the classic parallel one-sided Jacobi).
	workers := c.Workers()
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
		for i := 0; i < m; i++ {
			pi, qi := up[i], uq[i]
			up[i] = cs*pi - sn*qi
			uq[i] = sn*pi + cs*qi
		}
		vp, vq := vcols[p], vcols[q]
		for i := 0; i < n; i++ {
			pi, qi := vp[i], vq[i]
			vp[i] = cs*pi - sn*qi
			vq[i] = sn*pi + cs*qi
		}
		return true
	}
	parallel := workers > 1 && players >= 8 && m*n > 1<<14
	type pair struct{ p, q int }
	pairs := make([]pair, 0, players/2)
	rotated := make([]bool, players/2)
	for sweep := 0; sweep < svdMaxSweeps; sweep++ {
		rotatedAny := false
		for round := 0; round < players-1; round++ {
			pairs = pairs[:0]
			for i := 0; i < players/2; i++ {
				p, q := seat[i], seat[players-1-i]
				if p >= 0 && q >= 0 {
					if p > q {
						p, q = q, p
					}
					pairs = append(pairs, pair{p, q})
				}
			}
			if !parallel || len(pairs) < 2 {
				for _, pr := range pairs {
					if rotate(pr.p, pr.q) {
						rotatedAny = true
					}
				}
			} else {
				var wg sync.WaitGroup
				nw := workers
				if nw > len(pairs) {
					nw = len(pairs)
				}
				chunk := (len(pairs) + nw - 1) / nw
				for w := 0; w < nw; w++ {
					lo, hi := w*chunk, (w+1)*chunk
					if hi > len(pairs) {
						hi = len(pairs)
					}
					if lo >= hi {
						break
					}
					wg.Add(1)
					go func(lo, hi int) {
						defer wg.Done()
						for x := lo; x < hi; x++ {
							rotated[x] = rotate(pairs[x].p, pairs[x].q)
						}
					}(lo, hi)
				}
				wg.Wait()
				for _, r := range rotated[:len(pairs)] {
					if r {
						rotatedAny = true
					}
				}
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
		var norm float64
		for _, x := range u[j] {
			norm += x * x
		}
		sv[j] = math.Sqrt(norm)
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
	maxSV := 0.0
	for _, j := range order {
		if sv[j] > maxSV {
			maxSV = sv[j]
		}
	}
	zeroTol := float64(m) * svdEps * maxSV
	for dst, src := range order {
		sOut[dst] = sv[src]
		col := u[src]
		if sv[src] > zeroTol && sv[src] > 0 {
			inv := 1 / sv[src]
			for i := range col {
				col[i] *= inv
			}
		} else {
			clear(col)
		}
		uOut[dst] = col
		vOut[dst] = vcols[src]
	}
	// Columns for (near-)zero singular values are arbitrary up to
	// orthonormality; fill them by Gram-Schmidt against identity vectors.
	completeOrthonormal(c, uOut, sOut, zeroTol)
	return &SVD{U: uOut, S: sOut, V: vOut}, nil
}

// completeOrthonormal replaces the columns u[j] whose singular value is
// below tol with vectors orthonormal to all other columns.
func completeOrthonormal(c *exec.Ctx, u [][]float64, sv []float64, tol float64) {
	m := len(u[0])
	var cand []float64
	for j, s := range sv {
		if s > tol && s > 0 {
			continue
		}
		if cand == nil {
			cand = c.Arena().Floats(m)
			defer c.Arena().FreeFloats(cand)
		}
		// Try identity candidates until one survives projection.
		for e := 0; e < m; e++ {
			clear(cand)
			cand[e] = 1
			for k, uk := range u {
				if k == j {
					continue
				}
				project(cand, uk)
			}
			if norm := norm2(cand); norm > 1e-6 {
				for i := range cand {
					u[j][i] = cand[i] / norm
				}
				break
			}
		}
	}
}

// project subtracts from cand its component along the unit vector u.
func project(cand, u []float64) {
	var dot float64
	for i, x := range cand {
		dot += x * u[i]
	}
	for i := range cand {
		cand[i] -= dot * u[i]
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
	u := extendOrthonormal(c, d.U)
	d.U = nil
	return u
}

// FullV extends the V factor to square orthogonal columns, taking V's
// columns over; V is already square except when the input had fewer
// rows than columns.
func (d *SVD) FullV(c *exec.Ctx) [][]float64 {
	v := extendOrthonormal(c, d.V)
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

// extendOrthonormal completes n orthonormal columns of m >= n rows to m
// orthonormal columns by Gram-Schmidt over identity candidates.
func extendOrthonormal(c *exec.Ctx, u [][]float64) [][]float64 {
	m, n := len(u[0]), len(u)
	full := make([][]float64, m)
	copy(full, u)
	next := n
	var cand []float64
	for e := 0; e < m && next < m; e++ {
		if cand == nil {
			cand = c.Arena().Floats(m)
		}
		clear(cand)
		cand[e] = 1
		for _, fk := range full[:next] {
			project(cand, fk)
		}
		if norm := norm2(cand); norm > 1e-6 {
			for i := range cand {
				cand[i] /= norm
			}
			full[next] = cand
			next++
			cand = nil
		}
	}
	if cand != nil {
		c.Arena().FreeFloats(cand)
	}
	for ; next < m; next++ {
		full[next] = c.Arena().FloatsZero(m)
	}
	return full
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
