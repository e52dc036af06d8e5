package cmat

import (
	"math"
	"math/cmplx"
	"testing"
)

// randHermitian returns a random Hermitian n×n matrix.
func randHermitian(n int, seed int64) *Matrix {
	r := rng(seed)
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = complex(2*r.Float64()-1, 0)
		for j := i + 1; j < n; j++ {
			v := complex(2*r.Float64()-1, 2*r.Float64()-1)
			m.Data[i*n+j] = v
			m.Data[j*n+i] = cmplx.Conj(v)
		}
	}
	return m
}

func randDense(rows, cols int, seed int64) *Matrix {
	r := rng(seed)
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = complex(2*r.Float64()-1, 2*r.Float64()-1)
	}
	return m
}

// TestSmallDimKernelsMatchGeneric pins the unrolled 2×2/4×4 kernels to the
// generic triple loop on random inputs.
func TestSmallDimKernelsMatchGeneric(t *testing.T) {
	generic := func(dst, a, b *Matrix) {
		n, k, p := a.Rows, a.Cols, b.Cols
		for i := 0; i < n; i++ {
			for j := 0; j < p; j++ {
				var s complex128
				for l := 0; l < k; l++ {
					s += a.Data[i*k+l] * b.Data[l*p+j]
				}
				dst.Data[i*p+j] = s
			}
		}
	}
	for _, n := range []int{2, 4} {
		for seed := int64(0); seed < 10; seed++ {
			a := randDense(n, n, seed)
			b := randDense(n, n, seed+100)
			got := New(n, n)
			want := New(n, n)
			MulInto(got, a, b)
			generic(want, a, b)
			if !got.EqualApprox(want, 1e-14) {
				t.Fatalf("n=%d seed=%d: kernel product deviates from generic", n, seed)
			}
		}
	}
}

func TestDaggerInto(t *testing.T) {
	a := randDense(3, 5, 7)
	dst := New(5, 3)
	DaggerInto(dst, a)
	if !dst.Equal(Dagger(a)) {
		t.Fatal("DaggerInto != Dagger")
	}
}

func TestCopyFromAndSetIdentity(t *testing.T) {
	a := randDense(3, 3, 1)
	b := New(3, 3)
	b.CopyFrom(a)
	if !b.Equal(a) {
		t.Fatal("CopyFrom mismatch")
	}
	b.SetIdentity()
	if !b.Equal(Identity(3)) {
		t.Fatal("SetIdentity mismatch")
	}
}

func TestTraceMulDagger(t *testing.T) {
	a := randDense(4, 4, 2)
	b := randDense(4, 4, 3)
	got := TraceMulDagger(a, b)
	want := Trace(Mul(Dagger(a), b))
	if cmplx.Abs(got-want) > 1e-12 {
		t.Fatalf("TraceMulDagger = %v, want %v", got, want)
	}
}

func TestMulABtInto(t *testing.T) {
	a := randDense(3, 5, 4)
	b := randDense(4, 5, 5)
	dst := New(3, 4)
	MulABtInto(dst, a, b)
	want := Mul(a, Transpose(b))
	if !dst.EqualApprox(want, 1e-13) {
		t.Fatal("MulABtInto != a·bᵀ")
	}
}

func TestMulConjInto(t *testing.T) {
	a := randDense(3, 4, 6)
	b := randDense(4, 2, 7)
	dst := New(3, 2)
	MulConjInto(dst, a, b)
	want := Mul(Conj(a), b)
	if !dst.EqualApprox(want, 1e-13) {
		t.Fatal("MulConjInto != conj(a)·b")
	}
}

// TestEigen2x2ClosedForm exercises the analytic 2×2 kernel against its
// defining properties, including the near-diagonal regime where the naive
// eigenvector formula cancels.
func TestEigen2x2ClosedForm(t *testing.T) {
	cases := []*Matrix{
		randHermitian(2, 1),
		randHermitian(2, 2),
		FromRows([][]complex128{{1, 0}, {0, -3}}),                // diagonal, descending
		FromRows([][]complex128{{-3, 0}, {0, 5}}),                // diagonal, ascending
		FromRows([][]complex128{{1, 1e-14}, {1e-14, 1 + 1e-13}}), // near-degenerate
		FromRows([][]complex128{{5, 1e-12i}, {-1e-12i, -5}}),     // tiny off-diagonal
	}
	for i, a := range cases {
		e, err := eigen(a)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if e.Values[0] > e.Values[1] {
			t.Fatalf("case %d: values not ascending: %v", i, e.Values)
		}
		if !IsUnitary(e.Vectors, 1e-12) {
			t.Fatalf("case %d: eigenvectors not unitary", i)
		}
		if !e.Reconstruct().EqualApprox(a, 1e-12) {
			t.Fatalf("case %d: reconstruction failed", i)
		}
	}
}

func TestApplyFuncIntoMatchesApplyFunc(t *testing.T) {
	a := randHermitian(4, 9)
	e, err := eigen(a)
	if err != nil {
		t.Fatal(err)
	}
	f := func(l float64) complex128 {
		sin, cos := math.Sincos(-0.3 * l)
		return complex(cos, sin)
	}
	want := e.ApplyFunc(f)
	dst := New(4, 4)
	scratch := New(4, 4)
	vdag := Dagger(e.Vectors)
	e.ApplyFuncInto(dst, scratch, vdag, f)
	if !dst.Equal(want) {
		t.Fatal("ApplyFuncInto != ApplyFunc")
	}
	if !IsUnitary(dst, 1e-10) {
		t.Fatal("propagator not unitary")
	}
}

// TestEigenHermitianExtremeScales covers the magnitude ranges where naive
// squared-magnitude scaling under- or overflows.
func TestEigenHermitianExtremeScales(t *testing.T) {
	for _, s := range []float64{1e-200, 1e160} {
		a := FromRows([][]complex128{
			{complex(s, 0), complex(0.5*s, 0)},
			{complex(0.5*s, 0), complex(-s, 0)},
		})
		e, err := eigen(a)
		if err != nil {
			t.Fatalf("scale %g: %v", s, err)
		}
		// λ = ±s·√1.25 for [[1,.5],[.5,-1]]·s.
		want := s * math.Sqrt(1.25)
		if math.Abs(e.Values[1]-want) > 1e-10*want || math.Abs(e.Values[0]+want) > 1e-10*want {
			t.Fatalf("scale %g: eigenvalues %v, want ±%g", s, e.Values, want)
		}
		if !IsUnitary(e.Vectors, 1e-12) {
			t.Fatalf("scale %g: eigenvectors not unitary", s)
		}
	}
	// The overflow range through the Jacobi path (n > 2). (Sub-√underflow
	// magnitudes have always collapsed in the Jacobi off-norm; only the
	// closed-form 2×2 path handles them.)
	for _, s := range []float64{1e160} {
		a := New(3, 3)
		a.Set(0, 1, complex(s, 0))
		a.Set(1, 0, complex(s, 0))
		a.Set(2, 2, complex(2*s, 0))
		e, err := eigen(a)
		if err != nil {
			t.Fatalf("jacobi scale %g: %v", s, err)
		}
		// Spectrum {−s, s, 2s}.
		if math.Abs(e.Values[0]+s) > 1e-10*s || math.Abs(e.Values[2]-2*s) > 1e-10*s {
			t.Fatalf("jacobi scale %g: eigenvalues %v", s, e.Values)
		}
	}
}
