package cmat

import "math"

// Small-dimension kernels. The QOC workloads are overwhelmingly 2×2 (one
// qubit) and 4×4 (two qubits): every segment of every optimizer evaluation
// multiplies and diagonalizes matrices of exactly these shapes, so MulInto
// and EigenHermitianInto dispatch to the unrolled forms below. The kernels
// accumulate products left to right in ascending-index order, matching the
// generic loops, so results are numerically identical across paths; the
// 4×4 Jacobi rotation likewise repeats the generic rotation's operations.

// mul2x2 computes dst = a·b for row-major 2×2 complex matrices. Slices must
// not alias.
func mul2x2(dst, a, b []complex128) {
	b00, b01 := b[0], b[1]
	b10, b11 := b[2], b[3]
	a00, a01 := a[0], a[1]
	a10, a11 := a[2], a[3]
	dst[0] = a00*b00 + a01*b10
	dst[1] = a00*b01 + a01*b11
	dst[2] = a10*b00 + a11*b10
	dst[3] = a10*b01 + a11*b11
}

// mul4x4 computes dst = a·b for row-major 4×4 complex matrices. Slices must
// not alias.
func mul4x4(dst, a, b []complex128) {
	b00, b01, b02, b03 := b[0], b[1], b[2], b[3]
	b10, b11, b12, b13 := b[4], b[5], b[6], b[7]
	b20, b21, b22, b23 := b[8], b[9], b[10], b[11]
	b30, b31, b32, b33 := b[12], b[13], b[14], b[15]
	for i := 0; i < 4; i++ {
		a0, a1, a2, a3 := a[i*4], a[i*4+1], a[i*4+2], a[i*4+3]
		dst[i*4+0] = a0*b00 + a1*b10 + a2*b20 + a3*b30
		dst[i*4+1] = a0*b01 + a1*b11 + a2*b21 + a3*b31
		dst[i*4+2] = a0*b02 + a1*b12 + a2*b22 + a3*b32
		dst[i*4+3] = a0*b03 + a1*b13 + a2*b23 + a3*b33
	}
}

// eigenHermitian2x2 writes the closed-form spectral decomposition of the
// Hermitian 2×2 matrix a into out: Values ascending, Vectors unitary with
// column j the eigenvector of Values[j]. The eigenvector formulation is
// chosen per eigenvalue so the un-normalized vector always has norm ≥ the
// off-diagonal magnitude — no cancellation for near-diagonal inputs.
func eigenHermitian2x2(a *Matrix, out *HermitianEigen) {
	p := real(a.Data[0]) // a00, real by Hermiticity
	q := real(a.Data[3]) // a11
	b := a.Data[1]       // a01 = conj(a10)
	// hypot, not sqrt of squares: |b| must survive magnitudes whose square
	// under- or overflows float64.
	babs := math.Hypot(real(b), imag(b))
	v := out.Vectors
	if babs == 0 {
		if p <= q {
			out.Values[0], out.Values[1] = p, q
			v.Data[0], v.Data[1], v.Data[2], v.Data[3] = 1, 0, 0, 1
		} else {
			out.Values[0], out.Values[1] = q, p
			v.Data[0], v.Data[1], v.Data[2], v.Data[3] = 0, 1, 1, 0
		}
		return
	}
	half := (p + q) / 2
	delta := (p - q) / 2
	r := math.Hypot(delta, babs)
	out.Values[0] = half - r
	out.Values[1] = half + r
	// For delta ≥ 0 the row-1 nullspace form (b, λ−p) is well-conditioned
	// for λ₀ and the row-2 form (λ−q, conj(b)) for λ₁; delta < 0 swaps the
	// roles. Both share the same norm √(|b|² + (r+|delta|)²).
	norm := math.Hypot(babs, r+math.Abs(delta))
	inv := complex(1/norm, 0)
	bc := complex(real(b), -imag(b))
	if delta >= 0 {
		// v0 = (b, −(r+delta)), v1 = (r+delta, conj(b)).
		v.Data[0] = b * inv
		v.Data[2] = complex(-(r + delta), 0) * inv
		v.Data[1] = complex(r+delta, 0) * inv
		v.Data[3] = bc * inv
	} else {
		// v0 = (delta−r, conj(b)), v1 = (b, r−delta).
		v.Data[0] = complex(delta-r, 0) * inv
		v.Data[2] = bc * inv
		v.Data[1] = b * inv
		v.Data[3] = complex(r-delta, 0) * inv
	}
}

// jacobiRotate4 is jacobiRotate for n = 4, over fixed-size arrays with the
// three update loops unrolled: the same floating-point operations in the
// same order, so its results are bit-identical to the generic rotation's,
// minus the loop and bounds-check overhead that dominates a 4×4 rotation.
func jacobiRotate4(wm, vm *Matrix, p, q int) {
	w, v := (*[16]complex128)(wm.Data), (*[16]complex128)(vm.Data)
	p, q = p&3, q&3 // no-ops for 0 ≤ p < q < 4 that prove every index below in range
	pr, qr := 4*p, 4*q
	c, sp, spc, ok := jacobiAngle(w[pr+q], real(w[pr+p]), real(w[qr+q]))
	if !ok {
		return
	}
	rotatePair(&w[p], &w[q], c, sp, spc)
	rotatePair(&w[4+p], &w[4+q], c, sp, spc)
	rotatePair(&w[8+p], &w[8+q], c, sp, spc)
	rotatePair(&w[12+p], &w[12+q], c, sp, spc)

	rotatePair(&w[pr], &w[qr], c, spc, sp)
	rotatePair(&w[pr+1], &w[qr+1], c, spc, sp)
	rotatePair(&w[pr+2], &w[qr+2], c, spc, sp)
	rotatePair(&w[pr+3], &w[qr+3], c, spc, sp)

	rotatePair(&v[p], &v[q], c, sp, spc)
	rotatePair(&v[4+p], &v[4+q], c, sp, spc)
	rotatePair(&v[8+p], &v[8+q], c, sp, spc)
	rotatePair(&v[12+p], &v[12+q], c, sp, spc)

	w[pr+q] = 0
	w[qr+p] = 0
}
