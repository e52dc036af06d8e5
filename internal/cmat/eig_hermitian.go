package cmat

import (
	"errors"
	"math"
)

// HermitianEigen holds the spectral decomposition A = V·diag(Values)·V† of a
// Hermitian matrix. Values are real and sorted ascending; column j of V is
// the eigenvector for Values[j], and V is unitary.
type HermitianEigen struct {
	Values  []float64
	Vectors *Matrix
}

// NewHermitianEigen returns an n-dimensional decomposition buffer for
// EigenHermitianInto.
func NewHermitianEigen(n int) *HermitianEigen {
	return &HermitianEigen{Values: make([]float64, n), Vectors: New(n, n)}
}

// ErrNoConvergence is returned when an iterative eigensolver fails to reach
// the requested tolerance within its sweep budget.
var ErrNoConvergence = errors.New("cmat: eigensolver did not converge")

// maxJacobiSweeps bounds the cyclic Jacobi iteration. 30 sweeps is far more
// than needed for the ≤ 8×8 matrices quantum groups produce, but keeps the
// solver safe for larger inputs.
const maxJacobiSweeps = 60

// JacobiWorkspace holds the scratch state of one eigendecomposition so
// repeated solves of the same dimension allocate nothing. A workspace is
// owned by a single goroutine; concurrent solves need one workspace each.
type JacobiWorkspace struct {
	w, v *Matrix
	perm []int
}

// NewJacobiWorkspace returns a workspace for n×n decompositions.
func NewJacobiWorkspace(n int) *JacobiWorkspace {
	return &JacobiWorkspace{w: New(n, n), v: New(n, n), perm: make([]int, n)}
}

// EigenHermitianInto diagonalizes the Hermitian matrix a into out with the
// cyclic complex Jacobi method (closed form for 2×2), using ws for scratch
// and allocating nothing. The input is validated to be Hermitian within
// hermTol. a, ws and out must all have the same dimension and must not
// alias.
func EigenHermitianInto(a *Matrix, ws *JacobiWorkspace, out *HermitianEigen) error {
	return eigenHermitianInto(a, ws, out, true)
}

// EigenHermitianIntoTrusted is EigenHermitianInto minus the Hermiticity
// validation scan. Only for callers that construct a Hermitian by
// construction (real combinations of validated Hermitian operators) and
// diagonalize in a hot loop; a non-Hermitian input silently yields garbage.
// The decomposition itself is identical to the validated path's.
func EigenHermitianIntoTrusted(a *Matrix, ws *JacobiWorkspace, out *HermitianEigen) error {
	return eigenHermitianInto(a, ws, out, false)
}

// hermTol is EigenHermitianInto's Hermitian-validation tolerance, relative
// to max |aij|.
const hermTol = 1e-9

func eigenHermitianInto(a *Matrix, ws *JacobiWorkspace, out *HermitianEigen, validate bool) error {
	mustSquare("EigenHermitianInto", a)
	n := a.Rows
	if len(out.Values) != n || out.Vectors.Rows != n || out.Vectors.Cols != n {
		panic("cmat: EigenHermitianInto output dimension mismatch")
	}
	scale := hermitianScale(a)
	if scale == 0 {
		// Zero matrix: eigenvalues all zero, eigenvectors identity.
		for i := range out.Values {
			out.Values[i] = 0
		}
		out.Vectors.SetIdentity()
		return nil
	}
	if validate && !IsHermitian(a, hermTol*scale) {
		return errors.New("cmat: EigenHermitianInto: input is not Hermitian")
	}
	if n == 2 {
		eigenHermitian2x2(a, out)
		return nil
	}
	rotate := jacobiRotate
	if n == 4 {
		rotate = jacobiRotate4
	}
	return jacobiInto(a, ws, out, scale, rotate)
}

// hermitianScale returns max |aij|, the scale of the solver's tolerances.
func hermitianScale(a *Matrix) float64 {
	// max |aij| via squared magnitudes: one sqrt instead of n² hypots.
	// Squaring under/overflows beyond ±~1e±154, where hypot does not —
	// fall back to the exact form there so extreme-range inputs keep the
	// old behavior.
	var maxSq float64
	for _, v := range a.Data {
		if s := sqAbs(v); s > maxSq {
			maxSq = s
		}
	}
	if maxSq == 0 || math.IsInf(maxSq, 1) {
		return MaxAbs(a)
	}
	return math.Sqrt(maxSq)
}

// jacobiInto diagonalizes the nonzero Hermitian a, whose largest element
// magnitude is scale, with the thresholded cyclic Jacobi method, zeroing
// each off-diagonal pair with rotate.
func jacobiInto(a *Matrix, ws *JacobiWorkspace, out *HermitianEigen, scale float64, rotate func(w, v *Matrix, p, q int)) error {
	n := a.Rows
	if ws.w.Rows != n {
		panic("cmat: EigenHermitianInto workspace dimension mismatch")
	}
	w, v := ws.w, ws.v
	w.CopyFrom(a)
	v.SetIdentity()

	offNorm := func() float64 {
		var s float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s += 2 * sqAbs(w.Data[i*n+j])
			}
		}
		return math.Sqrt(s)
	}

	tol := 1e-13 * scale * float64(n)
	// Elements already far below the convergence tolerance are skipped —
	// the classical thresholded cyclic Jacobi refinement. The square
	// threshold spreads the budget over the n(n−1)/2 pairs.
	skip2 := tol * tol / float64(n*n)
	for sweep := 0; sweep < maxJacobiSweeps; sweep++ {
		if offNorm() <= tol {
			finishHermitian(w, v, ws.perm, out)
			return nil
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				if sqAbs(w.Data[p*n+q]) > skip2 {
					rotate(w, v, p, q)
				}
			}
		}
	}
	if offNorm() <= tol*1e3 {
		// Accept slightly looser convergence rather than fail outright; the
		// residual is still far below anything the QOC pipeline can resolve.
		finishHermitian(w, v, ws.perm, out)
		return nil
	}
	return ErrNoConvergence
}

// jacobiAngle returns the complex Jacobi rotation zeroing the off-diagonal
// element apq of the 2×2 Hermitian subproblem [[app, apq], [conj(apq), aqq]]:
// U = [[c, sp], [−spc, c]] with sp = s·phase and spc = conj(sp). ok is false
// when apq is exactly zero and there is nothing to rotate.
func jacobiAngle(apq complex128, app, aqq float64) (c float64, sp, spc complex128, ok bool) {
	// sqrt of the squared magnitude on the hot path; hypot only when the
	// square under- or overflows.
	s2 := sqAbs(apq)
	var r float64
	if s2 > 0 && !math.IsInf(s2, 1) {
		r = math.Sqrt(s2)
	} else {
		r = math.Hypot(real(apq), imag(apq))
	}
	if r == 0 {
		return 0, 0, 0, false
	}
	// Phase factor so that conj(phase)*apq is real positive.
	rinv := 1 / r
	phase := complex(real(apq)*rinv, imag(apq)*rinv)

	// Stable computation of tan θ for the real symmetric 2×2 subproblem
	// [[app, r],[r, aqq]] (Golub & Van Loan §8.5).
	var t float64
	theta := (aqq - app) / (2 * r)
	if theta >= 0 {
		t = 1 / (theta + math.Sqrt(1+theta*theta))
	} else {
		t = -1 / (-theta + math.Sqrt(1+theta*theta))
	}
	c = 1 / math.Sqrt(1+t*t)
	s := t * c
	sp = complex(s, 0) * phase
	return c, sp, complex(real(sp), -imag(sp)), true
}

// jacobiRotate applies a single complex Jacobi rotation zeroing w[p][q]
// (and w[q][p]) of the Hermitian working matrix w, accumulating the
// rotation into v so that original = v·w·v† is preserved.
func jacobiRotate(w, v *Matrix, p, q int) {
	n := w.Rows
	c, sp, spc, ok := jacobiAngle(w.Data[p*n+q], real(w.Data[p*n+p]), real(w.Data[q*n+q]))
	if !ok {
		return
	}
	// The full 2×2 unitary is U = [[c, s·phase], [−s·conj(phase), c]] applied
	// as w ← U† w U on rows/columns p and q. c is real, so the c-terms are
	// scaled componentwise rather than through a full complex multiply.
	// Column update for all rows i:
	//   w[i][p] ← c·w[i][p] − s·conj(phase)·w[i][q]
	//   w[i][q] ← s·phase·w[i][p_old] + c·w[i][q]
	for i := 0; i < n; i++ {
		rotatePair(&w.Data[i*n+p], &w.Data[i*n+q], c, sp, spc)
	}
	// Row update: w ← U† w, i.e.
	//   w[p][j] ← c·w[p][j] − s·phase·w[q][j] (conjugated transform)
	for j := 0; j < n; j++ {
		rotatePair(&w.Data[p*n+j], &w.Data[q*n+j], c, spc, sp)
	}
	// Accumulate eigenvectors: v ← v·U.
	for i := 0; i < n; i++ {
		rotatePair(&v.Data[i*n+p], &v.Data[i*n+q], c, sp, spc)
	}
	// Clean the rotated pair to exactly zero to aid convergence detection.
	w.Data[p*n+q] = 0
	w.Data[q*n+p] = 0
}

// rotatePair rotates one element pair of the rotated rows or columns:
// a ← c·a − y·b and b ← x·a + c·b, with both right-hand sides read before
// either is written.
func rotatePair(a, b *complex128, c float64, x, y complex128) {
	ai, bi := *a, *b
	*a = complex(c*real(ai), c*imag(ai)) - y*bi
	*b = x*ai + complex(c*real(bi), c*imag(bi))
}

// finishHermitian extracts sorted eigenvalues into out and reorders
// eigenvector columns to match, using perm as the sorting scratch
// (insertion sort: allocation-free, and n ≤ 32 in practice).
func finishHermitian(w, v *Matrix, perm []int, out *HermitianEigen) {
	n := w.Rows
	for i := 0; i < n; i++ {
		perm[i] = i
	}
	for i := 1; i < n; i++ {
		p := perm[i]
		key := real(w.Data[p*n+p])
		j := i - 1
		for j >= 0 && real(w.Data[perm[j]*n+perm[j]]) > key {
			perm[j+1] = perm[j]
			j--
		}
		perm[j+1] = p
	}
	for newCol, col := range perm {
		out.Values[newCol] = real(w.Data[col*n+col])
		for i := 0; i < n; i++ {
			out.Vectors.Data[i*n+newCol] = v.Data[i*n+col]
		}
	}
}

// Reconstruct returns V·diag(Values)·V†, which should equal the original
// matrix up to numerical error. Useful for testing.
func (e *HermitianEigen) Reconstruct() *Matrix {
	n := len(e.Values)
	d := New(n, n)
	for i, v := range e.Values {
		d.Data[i*n+i] = complex(v, 0)
	}
	return MulChain(e.Vectors, d, Dagger(e.Vectors))
}

// ApplyFunc returns V·diag(f(λᵢ))·V†: a matrix function of the Hermitian
// operator, e.g. f(λ)=exp(−iλt) yields the unitary propagator.
func (e *HermitianEigen) ApplyFunc(f func(float64) complex128) *Matrix {
	n := len(e.Values)
	dst := New(n, n)
	vdag := Dagger(e.Vectors)
	e.ApplyFuncInto(dst, New(n, n), vdag, f)
	return dst
}

// ApplyFuncInto computes dst = V·diag(f(λᵢ))·V† without allocating. scratch
// must be an n×n buffer, and vdag must hold Dagger(e.Vectors) (callers on
// the hot path keep it cached alongside the decomposition). dst, scratch
// and vdag must be distinct matrices.
func (e *HermitianEigen) ApplyFuncInto(dst, scratch, vdag *Matrix, f func(float64) complex128) {
	n := len(e.Values)
	v := e.Vectors
	for j, l := range e.Values {
		fl := f(l)
		for i := 0; i < n; i++ {
			scratch.Data[i*n+j] = v.Data[i*n+j] * fl
		}
	}
	MulInto(dst, scratch, vdag)
}

func sqAbs(v complex128) float64 {
	return real(v)*real(v) + imag(v)*imag(v)
}
