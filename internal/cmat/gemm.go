package cmat

// Blocked complex GEMM. The unrolled 2×2/4×4 kernels in kernels.go cover
// the one- and two-qubit shapes; everything bigger (three-qubit gate groups
// are 8×8, the brute-force baseline goes to 32×32) used to fall onto the
// naive single-row saxpy loop. The kernels here block the output space by
// rows: dst = a·b walks four A rows per pass so every B row is loaded once
// per four rows of output instead of once per row, quartering the dominant
// memory traffic. (Register-resident accumulator tiles — the textbook GEMM
// shape — were measured slower here: 2×4 complex128 tiles need 16 scalar
// registers for the accumulators alone, the compiler spills, and the tiled
// loop loses to the naive one. Row blocking keeps the inner loop a plain
// contiguous saxpy the compiler handles well.) A·Bᵀ row-dot-row products
// use a 2×2 accumulator tile instead — four accumulators fit in registers
// and each pass streams two A rows against two B rows contiguously.
//
// Bit-exactness contract: for every output element (i, j) the blocked path
// performs the same floating-point operations in the same order as the
// naive loop — k ascending, one fused accumulate per nonzero a[i][l], with
// the identical `a[i][l] == 0` skip — so blocked results are bit-identical
// to the naive reference, and the dim ≥ 8 dispatch in MulInto changes no
// observable value anywhere in the system. The same holds per element for
// the conj(A)·B and A·Bᵀ variants below (A·Bᵀ has no zero-skip in either
// arm, matching its naive form).

// gemmMinDim routes MulInto and friends onto the blocked path: below it
// the unrolled kernels or the naive loop win (row-block bookkeeping costs
// more than it saves on a 4×4).
const gemmMinDim = 8

// mulRows computes dst = a·b, four output rows per B-row pass. Shapes are
// the caller's responsibility. Per output element the k-loop runs
// ascending with the naive loop's exact zero-skip, so results are
// bit-identical to mulNaive.
func mulRows(dst, a, b *Matrix) {
	n, k, p := a.Rows, a.Cols, b.Cols
	i := 0
	for ; i+3 < n; i += 4 {
		r0 := dst.Data[i*p : (i+1)*p]
		r1 := dst.Data[(i+1)*p : (i+2)*p]
		r2 := dst.Data[(i+2)*p : (i+3)*p]
		r3 := dst.Data[(i+3)*p : (i+4)*p]
		for j := range r0 {
			r0[j], r1[j], r2[j], r3[j] = 0, 0, 0, 0
		}
		a0 := a.Data[i*k : (i+1)*k]
		a1 := a.Data[(i+1)*k : (i+2)*k]
		a2 := a.Data[(i+2)*k : (i+3)*k]
		a3 := a.Data[(i+3)*k : (i+4)*k]
		for l := 0; l < k; l++ {
			brow := b.Data[l*p : (l+1)*p]
			av0, av1, av2, av3 := a0[l], a1[l], a2[l], a3[l]
			if av0 != 0 && av1 != 0 && av2 != 0 && av3 != 0 {
				// Dense fast path: unitaries and propagators rarely hold
				// exact zeros, so this fused loop is the one that runs.
				for j, bv := range brow {
					r0[j] += av0 * bv
					r1[j] += av1 * bv
					r2[j] += av2 * bv
					r3[j] += av3 * bv
				}
				continue
			}
			if av0 != 0 {
				for j, bv := range brow {
					r0[j] += av0 * bv
				}
			}
			if av1 != 0 {
				for j, bv := range brow {
					r1[j] += av1 * bv
				}
			}
			if av2 != 0 {
				for j, bv := range brow {
					r2[j] += av2 * bv
				}
			}
			if av3 != 0 {
				for j, bv := range brow {
					r3[j] += av3 * bv
				}
			}
		}
	}
	for ; i < n; i++ {
		row := dst.Data[i*p : (i+1)*p]
		for j := range row {
			row[j] = 0
		}
		arow := a.Data[i*k : (i+1)*k]
		for l := 0; l < k; l++ {
			if av := arow[l]; av != 0 {
				brow := b.Data[l*p : (l+1)*p]
				for j, bv := range brow {
					row[j] += av * bv
				}
			}
		}
	}
}

// mulNaive is the pre-blocking generic loop, kept as the sub-threshold
// path, the bit-equivalence reference for the property tests, and the
// "before" arm of the GEMM benchmarks.
func mulNaive(dst, a, b *Matrix) {
	n, k, p := a.Rows, a.Cols, b.Cols
	for i := 0; i < n; i++ {
		row := dst.Data[i*p : (i+1)*p]
		for j := range row {
			row[j] = 0
		}
		for l := 0; l < k; l++ {
			av := a.Data[i*k+l]
			if av == 0 {
				continue
			}
			brow := b.Data[l*p : (l+1)*p]
			for j, bv := range brow {
				row[j] += av * bv
			}
		}
	}
}

// mulConjRows computes dst = conj(a)·b with the same four-row blocking.
// Per element it conjugates a[i][l] after the zero test on the raw value,
// exactly as the naive MulConjInto loop does.
func mulConjRows(dst, a, b *Matrix) {
	n, k, p := a.Rows, a.Cols, b.Cols
	i := 0
	for ; i+3 < n; i += 4 {
		r0 := dst.Data[i*p : (i+1)*p]
		r1 := dst.Data[(i+1)*p : (i+2)*p]
		r2 := dst.Data[(i+2)*p : (i+3)*p]
		r3 := dst.Data[(i+3)*p : (i+4)*p]
		for j := range r0 {
			r0[j], r1[j], r2[j], r3[j] = 0, 0, 0, 0
		}
		a0 := a.Data[i*k : (i+1)*k]
		a1 := a.Data[(i+1)*k : (i+2)*k]
		a2 := a.Data[(i+2)*k : (i+3)*k]
		a3 := a.Data[(i+3)*k : (i+4)*k]
		for l := 0; l < k; l++ {
			brow := b.Data[l*p : (l+1)*p]
			v0, v1, v2, v3 := a0[l], a1[l], a2[l], a3[l]
			if v0 != 0 && v1 != 0 && v2 != 0 && v3 != 0 {
				av0 := complex(real(v0), -imag(v0))
				av1 := complex(real(v1), -imag(v1))
				av2 := complex(real(v2), -imag(v2))
				av3 := complex(real(v3), -imag(v3))
				for j, bv := range brow {
					r0[j] += av0 * bv
					r1[j] += av1 * bv
					r2[j] += av2 * bv
					r3[j] += av3 * bv
				}
				continue
			}
			if v0 != 0 {
				av := complex(real(v0), -imag(v0))
				for j, bv := range brow {
					r0[j] += av * bv
				}
			}
			if v1 != 0 {
				av := complex(real(v1), -imag(v1))
				for j, bv := range brow {
					r1[j] += av * bv
				}
			}
			if v2 != 0 {
				av := complex(real(v2), -imag(v2))
				for j, bv := range brow {
					r2[j] += av * bv
				}
			}
			if v3 != 0 {
				av := complex(real(v3), -imag(v3))
				for j, bv := range brow {
					r3[j] += av * bv
				}
			}
		}
	}
	for ; i < n; i++ {
		row := dst.Data[i*p : (i+1)*p]
		for j := range row {
			row[j] = 0
		}
		arow := a.Data[i*k : (i+1)*k]
		for l := 0; l < k; l++ {
			v := arow[l]
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

// mulABtRows computes dst = a·bᵀ with 2×2 accumulator tiles: each pass
// streams two contiguous A rows against two contiguous B rows, and the
// four complex accumulators stay in registers. The naive MulABtInto has no
// zero-skip, so neither does this.
func mulABtRows(dst, a, b *Matrix) {
	n, k, br := a.Rows, a.Cols, b.Rows
	i := 0
	for ; i+1 < n; i += 2 {
		a0 := a.Data[i*k : (i+1)*k]
		a1 := a.Data[(i+1)*k : (i+2)*k]
		j := 0
		for ; j+1 < br; j += 2 {
			b0 := b.Data[j*k : (j+1)*k]
			b1 := b.Data[(j+1)*k : (j+2)*k]
			var c00, c01, c10, c11 complex128
			for l := 0; l < k; l++ {
				av0, av1 := a0[l], a1[l]
				bv0, bv1 := b0[l], b1[l]
				c00 += av0 * bv0
				c01 += av0 * bv1
				c10 += av1 * bv0
				c11 += av1 * bv1
			}
			dst.Data[i*br+j], dst.Data[i*br+j+1] = c00, c01
			dst.Data[(i+1)*br+j], dst.Data[(i+1)*br+j+1] = c10, c11
		}
		for ; j < br; j++ {
			mulABtCol1(dst.Data, a.Data, b.Data, k, br, i, j)
			mulABtCol1(dst.Data, a.Data, b.Data, k, br, i+1, j)
		}
	}
	for ; i < n; i++ {
		for j := 0; j < br; j++ {
			mulABtCol1(dst.Data, a.Data, b.Data, k, br, i, j)
		}
	}
}

// mulABtCol1 is the scalar tail of mulABtRows: one output element, full
// k-loop, no zero-skip, matching the naive MulABtInto element for element.
func mulABtCol1(dst, a, b []complex128, k, brows, i, j int) {
	a0 := a[i*k : (i+1)*k]
	b0 := b[j*k : (j+1)*k]
	var c complex128
	for l := 0; l < k; l++ {
		c += a0[l] * b0[l]
	}
	dst[i*brows+j] = c
}

// daggerBlocked writes dst = a† in cache-blocked strips, so both the reads
// and the transposed writes stay within a few cache lines per strip. Pure
// data movement — element values match DaggerInto's loop.
func daggerBlocked(dst, a *Matrix) {
	const tb = 8
	rows, cols := a.Rows, a.Cols
	for ii := 0; ii < rows; ii += tb {
		ihi := ii + tb
		if ihi > rows {
			ihi = rows
		}
		for jj := 0; jj < cols; jj += tb {
			jhi := jj + tb
			if jhi > cols {
				jhi = cols
			}
			for i := ii; i < ihi; i++ {
				for j := jj; j < jhi; j++ {
					v := a.Data[i*cols+j]
					dst.Data[j*rows+i] = complex(real(v), -imag(v))
				}
			}
		}
	}
}
