package cmat

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// grapeHamiltonians returns k Hamiltonians shaped like GRAPE's two-qubit
// segments: J·Z⊗Z drift plus X/Y drives on each qubit with amplitudes
// drawn from ±maxAmp (the hamiltonian package's default constants).
func grapeHamiltonians(k int, seed int64) []*Matrix {
	const j, maxAmp = 0.002513274122871834, 0.06283185307179587
	x := FromRows([][]complex128{{0, 1}, {1, 0}})
	y := FromRows([][]complex128{{0, -1i}, {1i, 0}})
	z := FromRows([][]complex128{{1, 0}, {0, -1}})
	id := Identity(2)
	ctls := []*Matrix{Kron(x, id), Kron(y, id), Kron(id, x), Kron(id, y)}
	r := rng(seed)
	hs := make([]*Matrix, k)
	for i := range hs {
		h := Scale(j, Kron(z, z))
		for _, c := range ctls {
			AccumScaled(h, complex(maxAmp*(2*r.Float64()-1), 0), c)
		}
		hs[i] = h
	}
	return hs
}

// BenchmarkEigenHermitian4 prices one trusted 4×4 solve on GRAPE-scale
// Hamiltonians — the forward pass's per-segment cost.
func BenchmarkEigenHermitian4(b *testing.B) {
	hs := grapeHamiltonians(64, 1)
	ws := NewJacobiWorkspace(4)
	out := NewHermitianEigen(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := EigenHermitianIntoTrusted(hs[i%len(hs)], ws, out); err != nil {
			b.Fatal(err)
		}
	}
}

// jacobiRotateRef is the reference model of the Jacobi rotation: the
// generic n×n rotation as one self-contained loop nest, sharing no helper
// with the production code. Both production rotations (jacobiRotate for
// any n, jacobiRotate4) must reproduce its bits.
func jacobiRotateRef(w, v *Matrix, p, q int) {
	n := w.Rows
	apq := w.Data[p*n+q]
	s2 := sqAbs(apq)
	var r float64
	if s2 > 0 && !math.IsInf(s2, 1) {
		r = math.Sqrt(s2)
	} else {
		r = math.Hypot(real(apq), imag(apq))
	}
	if r == 0 {
		return
	}
	rinv := 1 / r
	phase := complex(real(apq)*rinv, imag(apq)*rinv)
	app := real(w.Data[p*n+p])
	aqq := real(w.Data[q*n+q])
	var t float64
	theta := (aqq - app) / (2 * r)
	if theta >= 0 {
		t = 1 / (theta + math.Sqrt(1+theta*theta))
	} else {
		t = -1 / (-theta + math.Sqrt(1+theta*theta))
	}
	c := 1 / math.Sqrt(1+t*t)
	s := t * c
	sp := complex(s, 0) * phase
	spc := complex(real(sp), -imag(sp))
	for i := 0; i < n; i++ {
		wip := w.Data[i*n+p]
		wiq := w.Data[i*n+q]
		w.Data[i*n+p] = complex(c*real(wip), c*imag(wip)) - spc*wiq
		w.Data[i*n+q] = sp*wip + complex(c*real(wiq), c*imag(wiq))
	}
	for j := 0; j < n; j++ {
		wpj := w.Data[p*n+j]
		wqj := w.Data[q*n+j]
		w.Data[p*n+j] = complex(c*real(wpj), c*imag(wpj)) - sp*wqj
		w.Data[q*n+j] = spc*wpj + complex(c*real(wqj), c*imag(wqj))
	}
	for i := 0; i < n; i++ {
		vip := v.Data[i*n+p]
		viq := v.Data[i*n+q]
		v.Data[i*n+p] = complex(c*real(vip), c*imag(vip)) - spc*viq
		v.Data[i*n+q] = sp*vip + complex(c*real(viq), c*imag(viq))
	}
	w.Data[p*n+q] = 0
	w.Data[q*n+p] = 0
}

// eigen4Inputs returns the reference test's Hermitian 4×4 inputs: random
// dense and GRAPE-scale matrices plus the edge shapes — diagonal,
// degenerate spectra, off-diagonals below the skip threshold, and
// magnitudes whose squares overflow (the hypot branch).
func eigen4Inputs() []*Matrix {
	var in []*Matrix
	for seed := int64(0); seed < 6000; seed++ {
		in = append(in, randHermitian(4, seed))
	}
	in = append(in, grapeHamiltonians(4000, 7)...)
	r := rng(99)
	for k := 0; k < 100; k++ {
		// Diagonal: nothing to rotate.
		d := New(4, 4)
		for i := 0; i < 4; i++ {
			d.Data[i*5] = complex(2*r.Float64()-1, 0)
		}
		in = append(in, d)
		// Degenerate: a random unitary conjugating a spectrum with
		// repeated eigenvalues.
		u := RandomUnitary(r, 4)
		spec := New(4, 4)
		for i, l := range []float64{1, 1, -0.5, -0.5 + float64(k%2)} {
			spec.Data[i*5] = complex(l, 0)
		}
		in = append(in, hermitianPart(MulChain(u, spec, Dagger(u))))
		// Skip-threshold tiny: one pair far below the convergence
		// tolerance, the rest O(1).
		tiny := randHermitian(4, 10000+int64(k))
		tiny.Set(1, 3, complex(1e-17, -1e-18))
		tiny.Set(3, 1, complex(1e-17, 1e-18))
		tiny.Set(0, 2, 0)
		tiny.Set(2, 0, 0)
		in = append(in, tiny)
		// Huge: squared magnitudes overflow, so every rotation takes the
		// hypot branch.
		in = append(in, Scale(complex(1e160, 0), randHermitian(4, 20000+int64(k))))
	}
	return in
}

// hermitianPart returns (a + a†)/2, removing rounding asymmetry.
func hermitianPart(a *Matrix) *Matrix {
	return Scale(0.5, Add(a, Dagger(a)))
}

// eigenBitsDiff describes the first bit difference between two
// decompositions, or returns "" when they are bit-identical.
func eigenBitsDiff(got, want *HermitianEigen) string {
	for i := range want.Values {
		if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
			return fmt.Sprintf("Values[%d] = %v, reference %v", i, got.Values[i], want.Values[i])
		}
	}
	for i, w := range want.Vectors.Data {
		g := got.Vectors.Data[i]
		if math.Float64bits(real(g)) != math.Float64bits(real(w)) || math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
			return fmt.Sprintf("Vectors[%d] = %v, reference %v", i, g, w)
		}
	}
	return ""
}

func skipUnlessAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("bit-identity is pinned on amd64; %s may fuse multiply-adds differently per code shape", runtime.GOARCH)
	}
}

func TestJacobiRotate4MatchesGeneric(t *testing.T) {
	skipUnlessAMD64(t)
	ws := NewJacobiWorkspace(4)
	got, want := NewHermitianEigen(4), NewHermitianEigen(4)
	for k, a := range eigen4Inputs() {
		if err := EigenHermitianIntoTrusted(a, ws, got); err != nil {
			t.Fatalf("input %d: %v", k, err)
		}
		if err := jacobiInto(a, ws, want, hermitianScale(a), jacobiRotateRef); err != nil {
			t.Fatalf("input %d: reference: %v", k, err)
		}
		if diff := eigenBitsDiff(got, want); diff != "" {
			t.Fatalf("input %d: %s", k, diff)
		}
	}
}

// TestJacobiRotateMatchesReference pins the generic rotation, which the
// n ≠ 2, 4 solves still use, to the reference model on 3×3 and 8×8 inputs.
func TestJacobiRotateMatchesReference(t *testing.T) {
	skipUnlessAMD64(t)
	for _, n := range []int{3, 8} {
		ws := NewJacobiWorkspace(n)
		got, want := NewHermitianEigen(n), NewHermitianEigen(n)
		for seed := int64(0); seed < 200; seed++ {
			a := randHermitian(n, seed)
			if err := EigenHermitianIntoTrusted(a, ws, got); err != nil {
				t.Fatal(err)
			}
			if err := jacobiInto(a, ws, want, hermitianScale(a), jacobiRotateRef); err != nil {
				t.Fatal(err)
			}
			if diff := eigenBitsDiff(got, want); diff != "" {
				t.Fatalf("n=%d seed=%d: %s", n, seed, diff)
			}
		}
	}
}
