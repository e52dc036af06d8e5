package cmat

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

// Property-based tests (testing/quick) for the numerical core: each checks
// a mathematical identity on randomized inputs.

func qcfg(n int) *quick.Config { return &quick.Config{MaxCount: n} }

func TestPropSimilarityInvarianceOfEigenvalues(t *testing.T) {
	// Eigenvalues are invariant under unitary similarity.
	r := rng(106)
	f := func(seed int64) bool {
		h := RandomHermitian(r, 4)
		u := RandomUnitary(r, 4)
		e1, err1 := eigen(h)
		e2, err2 := eigen(MulChain(u, h, Dagger(u)))
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range e1.Values {
			if math.Abs(e1.Values[i]-e2.Values[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, qcfg(20)); err != nil {
		t.Fatal(err)
	}
}

func TestPropKronDagger(t *testing.T) {
	// (A⊗B)† = A†⊗B†.
	r := rng(107)
	f := func(seed int64) bool {
		a := RandomGinibre(r, 2)
		b := RandomGinibre(r, 3)
		return Dagger(Kron(a, b)).EqualApprox(Kron(Dagger(a), Dagger(b)), 1e-12)
	}
	if err := quick.Check(f, qcfg(25)); err != nil {
		t.Fatal(err)
	}
}

func TestPropKronTrace(t *testing.T) {
	// tr(A⊗B) = tr(A)·tr(B).
	r := rng(108)
	f := func(seed int64) bool {
		a := RandomGinibre(r, 2)
		b := RandomGinibre(r, 3)
		return cmplx.Abs(Trace(Kron(a, b))-Trace(a)*Trace(b)) < 1e-10
	}
	if err := quick.Check(f, qcfg(25)); err != nil {
		t.Fatal(err)
	}
}

func TestPropSqrtmSquares(t *testing.T) {
	// For positive-definite H = G†G + I, sqrtm(H)² = H.
	r := rng(110)
	f := func(seed int64) bool {
		g := RandomGinibre(r, 3)
		h := Add(Mul(Dagger(g), g), Identity(3))
		s, err := Sqrtm(h)
		if err != nil {
			return false
		}
		return Mul(s, s).EqualApprox(h, 1e-7)
	}
	if err := quick.Check(f, qcfg(20)); err != nil {
		t.Fatal(err)
	}
}

func TestPropFrobeniusUnitaryInvariance(t *testing.T) {
	// ‖U·A‖_F = ‖A‖_F for unitary U.
	r := rng(111)
	f := func(seed int64) bool {
		a := RandomGinibre(r, 4)
		u := RandomUnitary(r, 4)
		return math.Abs(FrobeniusNorm(Mul(u, a))-FrobeniusNorm(a)) < 1e-9
	}
	if err := quick.Check(f, qcfg(25)); err != nil {
		t.Fatal(err)
	}
}

func TestPropHessenbergIdempotentOnHessenberg(t *testing.T) {
	// Reducing an already-Hessenberg matrix must not change it much
	// structurally: the result is still Hessenberg and similar to it.
	r := rng(112)
	f := func(seed int64) bool {
		a := RandomGinibre(r, 4)
		h1, _ := Hessenberg(a)
		h2, q2 := Hessenberg(h1)
		if !IsUnitary(q2, 1e-9) {
			return false
		}
		return MulChain(q2, h2, Dagger(q2)).EqualApprox(h1, 1e-9)
	}
	if err := quick.Check(f, qcfg(15)); err != nil {
		t.Fatal(err)
	}
}

func TestPropRandomUnitaryComposes(t *testing.T) {
	// The product of Haar unitaries is unitary; daggers invert.
	r := rng(114)
	f := func(seed int64) bool {
		u := RandomUnitary(r, 3)
		v := RandomUnitary(r, 3)
		w := Mul(u, v)
		if !IsUnitary(w, 1e-9) {
			return false
		}
		return Mul(w, Dagger(w)).EqualApprox(Identity(3), 1e-9)
	}
	if err := quick.Check(f, qcfg(25)); err != nil {
		t.Fatal(err)
	}
}
