package cmat

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Schur holds a complex Schur decomposition A = Q·T·Q† with Q unitary and T
// upper triangular. The eigenvalues of A are the diagonal entries of T.
type Schur struct {
	T *Matrix
	Q *Matrix
}

// Hessenberg reduces a square matrix to upper Hessenberg form by unitary
// similarity: A = Q·H·Q†. It returns (H, Q).
func Hessenberg(a *Matrix) (h, q *Matrix) {
	mustSquare("Hessenberg", a)
	n := a.Rows
	h = a.Clone()
	q = Identity(n)
	if n <= 2 {
		return h, q
	}
	for col := 0; col < n-2; col++ {
		// Householder vector zeroing h[col+2:n, col].
		var norm float64
		for i := col + 1; i < n; i++ {
			norm += sqAbs(h.Data[i*n+col])
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			continue
		}
		x1 := h.Data[(col+1)*n+col]
		var beta complex128
		if x1 == 0 {
			beta = complex(-norm, 0)
		} else {
			beta = -(x1 / complex(cmplx.Abs(x1), 0)) * complex(norm, 0)
		}
		v := make([]complex128, n)
		v[col+1] = x1 - beta
		for i := col + 2; i < n; i++ {
			v[i] = h.Data[i*n+col]
		}
		var vv float64
		for i := col + 1; i < n; i++ {
			vv += sqAbs(v[i])
		}
		if vv == 0 {
			continue
		}
		tau := complex(2/vv, 0)
		applyHouseholderLeft(h, v, tau, col+1, col)
		applyHouseholderRight(h, v, tau, col+1, 0)
		applyHouseholderRight(q, v, tau, col+1, 0)
		// Enforce exact zeros below the subdiagonal.
		h.Data[(col+1)*n+col] = beta
		for i := col + 2; i < n; i++ {
			h.Data[i*n+col] = 0
		}
	}
	return h, q
}

// applyHouseholderLeft computes m ← P·m where P = I − τ·v·v†, restricted to
// rows [lo, n) and columns [colStart, n). v is only read in [lo, n).
func applyHouseholderLeft(m *Matrix, v []complex128, tau complex128, lo, colStart int) {
	n := m.Rows
	for j := colStart; j < m.Cols; j++ {
		var dot complex128
		for i := lo; i < n; i++ {
			dot += cmplx.Conj(v[i]) * m.Data[i*m.Cols+j]
		}
		dot *= tau
		if dot == 0 {
			continue
		}
		for i := lo; i < n; i++ {
			m.Data[i*m.Cols+j] -= dot * v[i]
		}
	}
}

// applyHouseholderRight computes m ← m·P where P = I − τ·v·v†, restricted to
// columns [lo, n) and rows [rowStart, n).
func applyHouseholderRight(m *Matrix, v []complex128, tau complex128, lo, rowStart int) {
	n := m.Cols
	for i := rowStart; i < m.Rows; i++ {
		var dot complex128
		for j := lo; j < n; j++ {
			dot += m.Data[i*m.Cols+j] * v[j]
		}
		dot *= tau
		if dot == 0 {
			continue
		}
		for j := lo; j < n; j++ {
			m.Data[i*m.Cols+j] -= dot * cmplx.Conj(v[j])
		}
	}
}

// SchurDecompose computes a complex Schur decomposition A = Q·T·Q† using
// Householder Hessenberg reduction followed by the shifted QR algorithm with
// Wilkinson shifts and deflation. It works for any square complex matrix.
func SchurDecompose(a *Matrix) (*Schur, error) {
	mustSquare("SchurDecompose", a)
	n := a.Rows
	if n == 0 {
		return &Schur{T: New(0, 0), Q: New(0, 0)}, nil
	}
	t, q := Hessenberg(a)
	scale := MaxAbs(t)
	if scale == 0 {
		return &Schur{T: t, Q: q}, nil
	}
	eps := 1e-14
	maxIter := 40 * n * n
	hi := n - 1
	sinceDeflation := 0
	for iter := 0; iter < maxIter && hi > 0; iter++ {
		// Zero negligible subdiagonals.
		for k := 0; k < hi; k++ {
			d := cmplx.Abs(t.Data[k*n+k]) + cmplx.Abs(t.Data[(k+1)*n+k+1])
			if d == 0 {
				d = scale
			}
			if cmplx.Abs(t.Data[(k+1)*n+k]) <= eps*d {
				t.Data[(k+1)*n+k] = 0
			}
		}
		// Deflate from the bottom.
		for hi > 0 && t.Data[hi*n+hi-1] == 0 {
			hi--
			sinceDeflation = 0
		}
		if hi == 0 {
			break
		}
		// Find the start of the active block.
		lo := hi
		for lo > 0 && t.Data[lo*n+lo-1] != 0 {
			lo--
		}
		// Wilkinson shift from the trailing 2×2 of the active block.
		var mu complex128
		sinceDeflation++
		if sinceDeflation%20 == 0 {
			// Exceptional ad-hoc shift to break symmetry-induced stalls.
			mu = t.Data[hi*n+hi] + complex(0.75*cmplx.Abs(t.Data[hi*n+hi-1]), 0)
		} else {
			aa := t.Data[(hi-1)*n+hi-1]
			bb := t.Data[(hi-1)*n+hi]
			cc := t.Data[hi*n+hi-1]
			dd := t.Data[hi*n+hi]
			tr := aa + dd
			disc := cmplx.Sqrt((aa-dd)*(aa-dd) + 4*bb*cc)
			l1 := (tr + disc) / 2
			l2 := (tr - disc) / 2
			if cmplx.Abs(l1-dd) < cmplx.Abs(l2-dd) {
				mu = l1
			} else {
				mu = l2
			}
		}
		qrStep(t, q, lo, hi, mu)
	}
	if hi > 0 {
		return nil, ErrNoConvergence
	}
	// Zero out the strict lower triangle (it holds numerical dust).
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			t.Data[i*n+j] = 0
		}
	}
	return &Schur{T: t, Q: q}, nil
}

// qrStep performs one explicit shifted QR iteration on the active block
// [lo, hi] of the Hessenberg matrix t, accumulating the transform into q.
func qrStep(t, q *Matrix, lo, hi int, mu complex128) {
	n := t.Rows
	type givens struct {
		ca, sa complex128 // G = [[conj(ca), conj(sa)], [−sa, ca]] / r is unitary
	}
	rots := make([]givens, 0, hi-lo)
	// Shift the diagonal of the active block.
	for k := lo; k <= hi; k++ {
		t.Data[k*n+k] -= mu
	}
	// Left Givens sweep: reduce the block to upper triangular.
	for k := lo; k < hi; k++ {
		a := t.Data[k*n+k]
		b := t.Data[(k+1)*n+k]
		r := math.Sqrt(sqAbs(a) + sqAbs(b))
		if r == 0 {
			rots = append(rots, givens{1, 0})
			continue
		}
		ca := a / complex(r, 0)
		sa := b / complex(r, 0)
		rots = append(rots, givens{ca, sa})
		// Apply G to rows k, k+1 over columns k..n−1:
		// G = [[conj(ca), conj(sa)], [−sa, ca]].
		for j := k; j < n; j++ {
			x := t.Data[k*n+j]
			y := t.Data[(k+1)*n+j]
			t.Data[k*n+j] = cmplx.Conj(ca)*x + cmplx.Conj(sa)*y
			t.Data[(k+1)*n+j] = -sa*x + ca*y
		}
	}
	// Right sweep: t ← t·G†, q ← q·G† for each rotation in order.
	for idx, g := range rots {
		k := lo + idx
		// G† = [[ca, −conj(sa)], [sa, conj(ca)]] acting on columns k, k+1.
		top := k + 2
		if top > hi {
			top = hi
		}
		for i := 0; i <= top; i++ {
			x := t.Data[i*n+k]
			y := t.Data[i*n+k+1]
			t.Data[i*n+k] = x*g.ca + y*g.sa
			t.Data[i*n+k+1] = -x*cmplx.Conj(g.sa) + y*cmplx.Conj(g.ca)
		}
		for i := 0; i < n; i++ {
			x := q.Data[i*n+k]
			y := q.Data[i*n+k+1]
			q.Data[i*n+k] = x*g.ca + y*g.sa
			q.Data[i*n+k+1] = -x*cmplx.Conj(g.sa) + y*cmplx.Conj(g.ca)
		}
	}
	// Restore the shift.
	for k := lo; k <= hi; k++ {
		t.Data[k*n+k] += mu
	}
}

// Sqrtm returns the principal square root of a square matrix via its Schur
// decomposition and the Björck–Hammarling recurrence on the triangular
// factor. For normal matrices (unitaries, Hermitians) this reduces to the
// spectral square root. Matrices with eigenvalues on the closed negative
// real axis may not have a principal root; a zero or near-cancelling
// diagonal pair yields an error.
func Sqrtm(a *Matrix) (*Matrix, error) {
	s, err := SchurDecompose(a)
	if err != nil {
		return nil, err
	}
	n := a.Rows
	t := s.T
	r := New(n, n)
	for i := 0; i < n; i++ {
		r.Data[i*n+i] = cmplx.Sqrt(t.Data[i*n+i])
	}
	for off := 1; off < n; off++ {
		for i := 0; i+off < n; i++ {
			j := i + off
			sum := t.Data[i*n+j]
			for k := i + 1; k < j; k++ {
				sum -= r.Data[i*n+k] * r.Data[k*n+j]
			}
			den := r.Data[i*n+i] + r.Data[j*n+j]
			if cmplx.Abs(den) < 1e-300 {
				if cmplx.Abs(sum) < 1e-12 {
					r.Data[i*n+j] = 0
					continue
				}
				return nil, fmt.Errorf("cmat: Sqrtm: eigenvalue pair cancels (λi=%v, λj=%v)",
					t.Data[i*n+i], t.Data[j*n+j])
			}
			r.Data[i*n+j] = sum / den
		}
	}
	return MulChain(s.Q, r, Dagger(s.Q)), nil
}
