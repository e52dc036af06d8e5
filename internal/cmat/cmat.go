// Package cmat implements dense complex linear algebra for quantum optimal
// control: matrix arithmetic, Kronecker products, a Hermitian Jacobi
// eigensolver (whose spectral functions give the GRAPE propagators), a
// complex Schur decomposition and principal square roots.
//
// Matrices are dense, row-major []complex128. The package is the numerical
// substrate for every other package in this repository; it has no
// dependencies outside the standard library.
//
// Unless documented otherwise, functions return freshly allocated results
// and never alias their inputs. Dimension mismatches are programmer errors
// and panic; numerical failures (non-convergence, a principal square root
// that does not exist) return errors.
package cmat

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// Matrix is a dense complex matrix with row-major storage.
type Matrix struct {
	Rows, Cols int
	Data       []complex128 // len == Rows*Cols, element (i,j) at Data[i*Cols+j]
}

// New returns a zero matrix of the given shape.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("cmat: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// FromRows builds a matrix from row slices. All rows must have equal length.
func FromRows(rows [][]complex128) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic(fmt.Sprintf("cmat: ragged row %d: len %d want %d", i, len(r), c))
		}
		copy(m.Data[i*c:(i+1)*c], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) complex128 {
	m.boundsCheck(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v complex128) {
	m.boundsCheck(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Matrix) boundsCheck(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("cmat: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom copies a's elements into m. Shapes must match.
func (m *Matrix) CopyFrom(a *Matrix) {
	sameShape("CopyFrom", m, a)
	copy(m.Data, a.Data)
}

// SetIdentity overwrites m (which must be square) with the identity.
func (m *Matrix) SetIdentity() {
	mustSquare("SetIdentity", m)
	for i := range m.Data {
		m.Data[i] = 0
	}
	n := m.Rows
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
}

// IsSquare reports whether m is square.
func (m *Matrix) IsSquare() bool { return m.Rows == m.Cols }

// Equal reports exact element-wise equality of shape and data.
func (m *Matrix) Equal(other *Matrix) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		if v != other.Data[i] {
			return false
		}
	}
	return true
}

// EqualApprox reports whether m and other have the same shape and all
// elements within tol of each other (absolute difference).
func (m *Matrix) EqualApprox(other *Matrix, tol float64) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		if cmplx.Abs(v-other.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix with 4 decimal places, one row per line.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			v := m.Data[i*m.Cols+j]
			fmt.Fprintf(&b, "(%8.4f%+8.4fi) ", real(v), imag(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Add returns a + b.
func Add(a, b *Matrix) *Matrix {
	sameShape("Add", a, b)
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// Sub returns a − b.
func Sub(a, b *Matrix) *Matrix {
	sameShape("Sub", a, b)
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// Scale returns s·a.
func Scale(s complex128, a *Matrix) *Matrix {
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = s * a.Data[i]
	}
	return out
}

// AccumScaled adds s·b into a in place (a += s·b).
func AccumScaled(a *Matrix, s complex128, b *Matrix) {
	sameShape("AccumScaled", a, b)
	for i := range a.Data {
		a.Data[i] += s * b.Data[i]
	}
}

// Mul returns the matrix product a·b.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("cmat: Mul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	MulInto(out, a, b)
	return out
}

// MulInto computes dst = a·b without allocating. dst must have shape
// a.Rows × b.Cols and must not alias a or b. Square 2×2 and 4×4 products —
// the one- and two-qubit shapes that dominate every QOC workload — are
// dispatched to fully unrolled kernels; products with at least 8 output
// rows and columns (three-qubit groups and up) take the row-blocked
// path of gemm.go, which is bit-identical to the naive loop.
func MulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("cmat: MulInto shape mismatch")
	}
	n, k, p := a.Rows, a.Cols, b.Cols
	switch {
	case n == 2 && k == 2 && p == 2:
		mul2x2(dst.Data, a.Data, b.Data)
		return
	case n == 4 && k == 4 && p == 4:
		mul4x4(dst.Data, a.Data, b.Data)
		return
	case n >= gemmMinDim && p >= gemmMinDim:
		mulRows(dst, a, b)
		return
	}
	mulNaive(dst, a, b)
}

// MulChain multiplies matrices left to right: MulChain(a,b,c) = a·b·c.
func MulChain(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		panic("cmat: MulChain of zero matrices")
	}
	out := ms[0].Clone()
	for _, m := range ms[1:] {
		out = Mul(out, m)
	}
	return out
}

// Dagger returns the conjugate transpose a†.
func Dagger(a *Matrix) *Matrix {
	out := New(a.Cols, a.Rows)
	DaggerInto(out, a)
	return out
}

// DaggerInto computes dst = a† without allocating. dst must have shape
// a.Cols × a.Rows and must not alias a. Large operands (both dims ≥ 8)
// transpose in cache blocks; the element values are identical either way.
func DaggerInto(dst, a *Matrix) {
	if dst.Rows != a.Cols || dst.Cols != a.Rows {
		panic(fmt.Sprintf("cmat: DaggerInto shape mismatch %dx%d vs %dx%d", dst.Rows, dst.Cols, a.Rows, a.Cols))
	}
	if a.Rows >= gemmMinDim && a.Cols >= gemmMinDim {
		daggerBlocked(dst, a)
		return
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			v := a.Data[i*a.Cols+j]
			dst.Data[j*a.Rows+i] = complex(real(v), -imag(v))
		}
	}
}

// Transpose returns aᵀ (no conjugation).
func Transpose(a *Matrix) *Matrix {
	out := New(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Data[j*a.Rows+i] = a.Data[i*a.Cols+j]
		}
	}
	return out
}

// Conj returns the element-wise complex conjugate.
func Conj(a *Matrix) *Matrix {
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = cmplx.Conj(v)
	}
	return out
}

// Trace returns Σᵢ aᵢᵢ. Panics if a is not square.
func Trace(a *Matrix) complex128 {
	mustSquare("Trace", a)
	var t complex128
	for i := 0; i < a.Rows; i++ {
		t += a.Data[i*a.Cols+i]
	}
	return t
}

// MulABtInto computes dst = a·bᵀ (no conjugation) without allocating or
// forming bᵀ: dst[i][j] = Σₗ a[i][l]·b[j][l], a row-dot-row product that
// walks both operands contiguously. a.Cols must equal b.Cols; dst must be
// a.Rows × b.Rows and must not alias a or b.
func MulABtInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("cmat: MulABtInto shape mismatch")
	}
	if a.Rows >= gemmMinDim && b.Rows >= gemmMinDim {
		mulABtRows(dst, a, b)
		return
	}
	k := a.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*k : (i+1)*k]
		drow := dst.Data[i*b.Rows : (i+1)*b.Rows]
		for j := 0; j < b.Rows; j++ {
			brow := b.Data[j*k : (j+1)*k]
			var s complex128
			for l, av := range arow {
				s += av * brow[l]
			}
			drow[j] = s
		}
	}
}

// MulConjInto computes dst = conj(a)·b without allocating or forming
// conj(a). Shapes follow MulInto's rules; dst must not alias a or b.
func MulConjInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("cmat: MulConjInto shape mismatch")
	}
	n, k, p := a.Rows, a.Cols, b.Cols
	if n >= gemmMinDim && p >= gemmMinDim {
		mulConjRows(dst, a, b)
		return
	}
	for i := 0; i < n; i++ {
		row := dst.Data[i*p : (i+1)*p]
		for j := range row {
			row[j] = 0
		}
		for l := 0; l < k; l++ {
			v := a.Data[i*k+l]
			if v == 0 {
				continue
			}
			av := complex(real(v), -imag(v))
			brow := b.Data[l*p : (l+1)*p]
			for j, bv := range brow {
				row[j] += av * bv
			}
		}
	}
}

// TraceMulDagger returns Tr(a†·b) = Σᵢⱼ conj(aᵢⱼ)·bᵢⱼ without forming the
// product — the allocation-free inner product behind gate fidelity. Shapes
// must match.
func TraceMulDagger(a, b *Matrix) complex128 {
	sameShape("TraceMulDagger", a, b)
	var t complex128
	for i, v := range a.Data {
		t += complex(real(v), -imag(v)) * b.Data[i]
	}
	return t
}

// Kron returns the Kronecker (tensor) product a ⊗ b.
func Kron(a, b *Matrix) *Matrix {
	out := New(a.Rows*b.Rows, a.Cols*b.Cols)
	for ia := 0; ia < a.Rows; ia++ {
		for ja := 0; ja < a.Cols; ja++ {
			av := a.Data[ia*a.Cols+ja]
			if av == 0 {
				continue
			}
			for ib := 0; ib < b.Rows; ib++ {
				dstRow := (ia*b.Rows + ib) * out.Cols
				srcRow := ib * b.Cols
				for jb := 0; jb < b.Cols; jb++ {
					out.Data[dstRow+ja*b.Cols+jb] = av * b.Data[srcRow+jb]
				}
			}
		}
	}
	return out
}

// FrobeniusNorm returns √Σ|aᵢⱼ|².
func FrobeniusNorm(a *Matrix) float64 {
	var s float64
	for _, v := range a.Data {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// L1Norm returns Σ|aᵢⱼ| (entry-wise, the paper's d1 distance kernel).
func L1Norm(a *Matrix) float64 {
	var s float64
	for _, v := range a.Data {
		s += cmplx.Abs(v)
	}
	return s
}

// MaxAbs returns max |aᵢⱼ|.
func MaxAbs(a *Matrix) float64 {
	var s float64
	for _, v := range a.Data {
		if av := cmplx.Abs(v); av > s {
			s = av
		}
	}
	return s
}

// IsHermitian reports whether a equals its conjugate transpose within tol.
func IsHermitian(a *Matrix, tol float64) bool {
	if !a.IsSquare() {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		for j := i; j < a.Cols; j++ {
			if cmplx.Abs(a.Data[i*a.Cols+j]-cmplx.Conj(a.Data[j*a.Cols+i])) > tol {
				return false
			}
		}
	}
	return true
}

// IsUnitary reports whether a†a = I within tol (Frobenius norm of residual).
func IsUnitary(a *Matrix, tol float64) bool {
	if !a.IsSquare() {
		return false
	}
	res := Sub(Mul(Dagger(a), a), Identity(a.Rows))
	return FrobeniusNorm(res) <= tol
}

func sameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("cmat: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

func mustSquare(op string, a *Matrix) {
	if !a.IsSquare() {
		panic(fmt.Sprintf("cmat: %s requires square matrix, got %dx%d", op, a.Rows, a.Cols))
	}
}
