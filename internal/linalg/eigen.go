package linalg

import (
	"errors"
	"math"
	"sort"

	"repro/internal/exec"
)

// ErrComplexEigen is returned for non-symmetric matrices whose spectrum
// contains complex conjugate pairs; like the paper (which inherits the
// semantics of R's eigen over relational data), only real spectra are
// representable in a result relation.
var ErrComplexEigen = errors.New("linalg: matrix has complex eigenvalues")

// Eigen holds an eigendecomposition: Values in descending order and, when
// requested, the matching unit eigenvectors as the columns Vectors. Both
// are drawn from the context's arena.
type Eigen struct {
	Values  []float64
	Vectors [][]float64
}

const (
	jacobiMaxSweeps = 64
	qrMaxIter       = 120
)

// NewEigen computes eigenvalues (and eigenvectors when withVectors) of a
// square matrix held as its columns a, drawn from c's arena: the
// symmetric case rotates them in place, and they are handed back. Its
// working copies come from c's arena too. Symmetric inputs use the cyclic
// Jacobi method; general inputs are reduced to Hessenberg form and
// iterated with shifted QR, with eigenvectors recovered by inverse
// iteration.
func NewEigen(c *exec.Ctx, a [][]float64, withVectors bool) (*Eigen, error) {
	defer freeCols(c, a)
	if !isSquare(a) {
		return nil, ErrShape
	}
	if len(a) == 0 {
		return &Eigen{}, nil
	}
	if isSymmetric(a, 1e-10*(1+maxAbs(a))) {
		return symmetricJacobi(c, a, withVectors), nil
	}
	return generalEigen(c, a, withVectors)
}

// cloneCols copies the columns a into columns drawn from c's arena.
func cloneCols(c *exec.Ctx, a [][]float64) [][]float64 {
	out := make([][]float64, len(a))
	for j, col := range a {
		out[j] = c.Arena().Floats(len(col))
		copy(out[j], col)
	}
	return out
}

// identityCols returns the n×n identity as n columns drawn from c's
// arena.
func identityCols(c *exec.Ctx, n int) [][]float64 {
	out := make([][]float64, n)
	for j := range out {
		out[j] = c.Arena().FloatsZero(n)
		out[j][j] = 1
	}
	return out
}

// symmetricJacobi runs cyclic Jacobi rotations on the columns w (w[j][i]
// is element (i, j)) in place until off-diagonal mass vanishes.
// Unconditionally stable for symmetric matrices.
func symmetricJacobi(c *exec.Ctx, w [][]float64, withVectors bool) *Eigen {
	n := len(w)
	var v [][]float64
	if withVectors {
		v = identityCols(c, n)
	}
	for sweep := 0; sweep < jacobiMaxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w[j][i] * w[j][i]
			}
		}
		if mx := maxAbs(w); off < 1e-28*(1+mx*mx) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w[q][p]
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := w[p][p], w[q][q]
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(1+theta*theta))
				cs := 1 / math.Sqrt(1+t*t)
				sn := cs * t
				// Rotate columns, then rows, p and q of w.
				rotatePair(w[p], w[q], cs, sn)
				for _, wk := range w {
					wpk, wqk := wk[p], wk[q]
					wk[p] = cs*wpk - sn*wqk
					wk[q] = sn*wpk + cs*wqk
				}
				if withVectors {
					rotatePair(v[p], v[q], cs, sn)
				}
			}
		}
	}
	order := make([]int, n)
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(x, y int) bool { return w[order[x]][order[x]] > w[order[y]][order[y]] })
	out := &Eigen{Values: c.Arena().Floats(n)}
	for dst, src := range order {
		out.Values[dst] = w[src][src]
	}
	if withVectors {
		out.Vectors = make([][]float64, n)
		for dst, src := range order {
			out.Vectors[dst] = v[src] // a permutation of the columns, no copy
		}
	}
	return out
}

// hessenberg reduces a to upper Hessenberg form by Householder similarity
// transformations, on a copy drawn from c's arena.
func hessenberg(c *exec.Ctx, a [][]float64) [][]float64 {
	n := len(a)
	h := cloneCols(c, a) // h[j][i] is element (i, j)
	v := c.Arena().Floats(n)
	defer c.Arena().FreeFloats(v)
	for k := 0; k < n-2; k++ {
		var norm float64
		for i := k + 1; i < n; i++ {
			norm = math.Hypot(norm, h[k][i])
		}
		if norm == 0 {
			continue
		}
		if h[k][k+1] < 0 {
			norm = -norm
		}
		for i := k + 1; i < n; i++ {
			v[i] = h[k][i] / norm
		}
		v[k+1] += 1
		beta := v[k+1]
		// H <- P·H
		for _, hj := range h[k:] {
			var s float64
			for i := k + 1; i < n; i++ {
				s += v[i] * hj[i]
			}
			s = -s / beta
			for i := k + 1; i < n; i++ {
				hj[i] = hj[i] + s*v[i]
			}
		}
		// H <- H·P
		for i := 0; i < n; i++ {
			var s float64
			for j := k + 1; j < n; j++ {
				s += h[j][i] * v[j]
			}
			s = -s / beta
			for j := k + 1; j < n; j++ {
				h[j][i] = h[j][i] + s*v[j]
			}
		}
	}
	return h
}

// generalEigen computes the real spectrum of a general matrix via shifted
// QR on the Hessenberg form; complex pairs yield ErrComplexEigen.
func generalEigen(c *exec.Ctx, a [][]float64, withVectors bool) (*Eigen, error) {
	n := len(a)
	h := hessenberg(c, a)
	defer freeCols(c, h)
	rot := c.Arena().Floats(2 * (n - 1)) // one QR step's Givens rotations
	defer c.Arena().FreeFloats(rot)
	at := func(i, j int) float64 { return h[j][i] }
	scale := 1 + maxAbs(a)
	vals := c.Arena().Floats(n)[:0]
	hi := n - 1
	iter := 0
	for hi >= 0 {
		// Deflate converged subdiagonal entries.
		for hi > 0 && math.Abs(at(hi, hi-1)) < 1e-13*scale {
			vals = append(vals, at(hi, hi))
			hi--
			iter = 0
		}
		if hi == 0 {
			vals = append(vals, at(0, 0))
			break
		}
		if iter++; iter > qrMaxIter {
			// The trailing 2×2 block refuses to split: complex pair?
			p, q := hi-1, hi
			tr := at(p, p) + at(q, q)
			det := at(p, p)*at(q, q) - at(p, q)*at(q, p)
			disc := tr*tr/4 - det
			if disc < 0 {
				c.Arena().FreeFloats(vals)
				return nil, ErrComplexEigen
			}
			r := math.Sqrt(disc)
			vals = append(vals, tr/2+r, tr/2-r)
			hi -= 2
			iter = 0
			continue
		}
		// Wilkinson shift from the trailing 2×2 block.
		p, q := hi-1, hi
		tr := at(p, p) + at(q, q)
		det := at(p, p)*at(q, q) - at(p, q)*at(q, p)
		disc := tr*tr/4 - det
		var shift float64
		if disc >= 0 {
			r := math.Sqrt(disc)
			e1, e2 := tr/2+r, tr/2-r
			if math.Abs(e1-at(q, q)) < math.Abs(e2-at(q, q)) {
				shift = e1
			} else {
				shift = e2
			}
		} else {
			shift = at(q, q) // complex pair: use the real part; the
			// 2×2 deflation above will catch persistent blocks
		}
		qrStepHessenberg(h, hi, shift, rot)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	out := &Eigen{Values: vals}
	if withVectors {
		vecs, err := inverseIterationVectors(c, a, vals)
		if err != nil {
			c.Arena().FreeFloats(vals)
			return nil, err
		}
		out.Vectors = vecs
	}
	return out, nil
}

// qrStepHessenberg applies one shifted QR step (Givens based) to the
// leading (hi+1)×(hi+1) block of the Hessenberg matrix held as the
// columns h, keeping its rotations in rot (2·hi values).
func qrStepHessenberg(h [][]float64, hi int, shift float64, rot []float64) {
	n := hi + 1
	cs, sn := rot[:n-1], rot[n-1:2*(n-1)]
	for i := 0; i < n; i++ {
		h[i][i] = h[i][i] - shift
	}
	// QR by Givens rotations on the subdiagonal.
	for k := 0; k < n-1; k++ {
		x, y := h[k][k], h[k][k+1]
		r := math.Hypot(x, y)
		if r == 0 {
			cs[k], sn[k] = 1, 0
			continue
		}
		c, s := x/r, y/r
		cs[k], sn[k] = c, s
		for _, hj := range h[k:n] {
			a1, a2 := hj[k], hj[k+1]
			hj[k] = c*a1 + s*a2
			hj[k+1] = -s*a1 + c*a2
		}
	}
	// RQ: apply the transposed rotations on the right.
	for k := 0; k < n-1; k++ {
		c, s := cs[k], sn[k]
		hk, hk1 := h[k], h[k+1]
		for i := 0; i <= k+1 && i < n; i++ {
			a1, a2 := hk[i], hk1[i]
			hk[i] = c*a1 + s*a2
			hk1[i] = -s*a1 + c*a2
		}
	}
	for i := 0; i < n; i++ {
		h[i][i] = h[i][i] + shift
	}
}

// inverseIterationVectors recovers unit eigenvectors for the (real)
// eigenvalues via inverse iteration with a slightly perturbed shift. The
// vectors are columns drawn from c's arena.
func inverseIterationVectors(c *exec.Ctx, a [][]float64, vals []float64) ([][]float64, error) {
	n := len(a)
	vecs := make([][]float64, 0, len(vals))
	scale := 1 + maxAbs(a)
	y := c.Arena().Floats(n)
	defer c.Arena().FreeFloats(y)
	// shiftedLU factors a copy of A - shift·I - extra·I, subtracting
	// shift and then extra from each diagonal element.
	shiftedLU := func(shift, extra float64) (*lu, error) {
		m := cloneCols(c, a)
		for i := 0; i < n; i++ {
			m[i][i] = m[i][i] - shift - extra
		}
		d, err := newLU(c, m)
		if err != nil {
			freeCols(c, m)
		}
		return d, err
	}
	for _, lambda := range vals {
		shift := lambda + 1e-9*scale // keep A-λI invertible
		d, err := shiftedLU(shift, 0)
		if err != nil {
			// Exactly singular even with perturbation: nudge more.
			if d, err = shiftedLU(shift, 1e-6*scale); err != nil {
				freeCols(c, vecs)
				return nil, err
			}
		}
		x := c.Arena().Floats(n)
		for i := range x {
			x[i] = 1 / float64(n+i+1) // deterministic, not an eigvector of anything
		}
		for it := 0; it < 4; it++ {
			copy(y, x)
			d.solveInPlace(y)
			norm := norm2(y)
			if norm == 0 {
				break
			}
			for i := range y {
				x[i] = y[i] / norm
			}
		}
		freeCols(c, d.f)
		// Sign convention: largest-magnitude component positive.
		mi, mv := 0, math.Abs(x[0])
		for i, v := range x {
			if math.Abs(v) > mv {
				mi, mv = i, math.Abs(v)
			}
		}
		if x[mi] < 0 {
			for i := range x {
				x[i] = -x[i]
			}
		}
		vecs = append(vecs, x)
	}
	return vecs, nil
}

// Eigenvalues returns the spectrum in descending order (EVL), drawn from
// c's arena.
func Eigenvalues(c *exec.Ctx, a [][]float64) ([]float64, error) {
	e, err := NewEigen(c, a, false)
	if err != nil {
		return nil, err
	}
	return e.Values, nil
}

// Eigenvectors returns the unit eigenvectors as columns drawn from c's
// arena, ordered by descending eigenvalue (EVC).
func Eigenvectors(c *exec.Ctx, a [][]float64) ([][]float64, error) {
	e, err := NewEigen(c, a, true)
	if err != nil {
		return nil, err
	}
	c.Arena().FreeFloats(e.Values)
	return e.Vectors, nil
}
