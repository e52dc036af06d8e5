package cmat

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// eigen diagonalizes a with EigenHermitianInto into freshly allocated
// buffers.
func eigen(a *Matrix) (*HermitianEigen, error) {
	out := NewHermitianEigen(a.Rows)
	if err := EigenHermitianInto(a, NewJacobiWorkspace(a.Rows), out); err != nil {
		return nil, err
	}
	return out, nil
}

func TestNewZeroAndIdentity(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New should be zero-filled")
		}
	}
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(3)[%d][%d] = %v", i, j, id.At(i, j))
			}
		}
	}
}

func TestFromRowsAndAccessors(t *testing.T) {
	m := FromRows([][]complex128{{1, 2}, {3i, 4}})
	if m.At(1, 0) != 3i {
		t.Fatalf("At(1,0) = %v, want 3i", m.At(1, 0))
	}
	m.Set(0, 1, 7)
	if m.At(0, 1) != 7 {
		t.Fatal("Set did not stick")
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("Clone aliases original")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]complex128{{1, 2}, {3}})
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	b := FromRows([][]complex128{{5, 6}, {7, 8}})
	sum := Add(a, b)
	if sum.At(1, 1) != 12 {
		t.Fatalf("Add = %v", sum)
	}
	diff := Sub(b, a)
	if diff.At(0, 0) != 4 {
		t.Fatalf("Sub = %v", diff)
	}
	sc := Scale(2i, a)
	if sc.At(0, 1) != 4i {
		t.Fatalf("Scale = %v", sc)
	}
	acc := a.Clone()
	AccumScaled(acc, 10, b)
	if want := FromRows([][]complex128{{51, 62}, {73, 84}}); !acc.Equal(want) {
		t.Fatalf("AccumScaled = %v", acc)
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	b := FromRows([][]complex128{{0, 1}, {1, 0}}) // swap columns
	got := Mul(a, b)
	want := FromRows([][]complex128{{2, 1}, {4, 3}})
	if !got.Equal(want) {
		t.Fatalf("Mul:\n%v want\n%v", got, want)
	}
}

func TestMulIdentityProperty(t *testing.T) {
	r := rng(1)
	f := func(seed int64) bool {
		rr := rng(seed%997 + 1)
		n := 1 + rr.Intn(6)
		a := RandomGinibre(r, n)
		return Mul(a, Identity(n)).EqualApprox(a, 1e-12) &&
			Mul(Identity(n), a).EqualApprox(a, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	r := rng(2)
	f := func(seed int64) bool {
		n := 2 + int(seed%3+3)%3
		a, b, c := RandomGinibre(r, n), RandomGinibre(r, n), RandomGinibre(r, n)
		return Mul(Mul(a, b), c).EqualApprox(Mul(a, Mul(b, c)), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDaggerProperties(t *testing.T) {
	r := rng(3)
	a := RandomGinibre(r, 4)
	b := RandomGinibre(r, 4)
	// (AB)† = B†A†
	if !Dagger(Mul(a, b)).EqualApprox(Mul(Dagger(b), Dagger(a)), 1e-12) {
		t.Fatal("(AB)† != B†A†")
	}
	// A†† = A
	if !Dagger(Dagger(a)).EqualApprox(a, 0) {
		t.Fatal("double dagger is not identity")
	}
}

func TestTraceCyclicProperty(t *testing.T) {
	r := rng(4)
	a := RandomGinibre(r, 5)
	b := RandomGinibre(r, 5)
	if cmplx.Abs(Trace(Mul(a, b))-Trace(Mul(b, a))) > 1e-10 {
		t.Fatal("trace is not cyclic")
	}
}

func TestKronKnown(t *testing.T) {
	x := FromRows([][]complex128{{0, 1}, {1, 0}})
	id := Identity(2)
	k := Kron(x, id)
	want := FromRows([][]complex128{
		{0, 0, 1, 0},
		{0, 0, 0, 1},
		{1, 0, 0, 0},
		{0, 1, 0, 0},
	})
	if !k.Equal(want) {
		t.Fatalf("Kron(X, I):\n%v", k)
	}
}

func TestKronMixedProduct(t *testing.T) {
	// (A⊗B)(C⊗D) = (AC)⊗(BD)
	r := rng(5)
	a, b, c, d := RandomGinibre(r, 2), RandomGinibre(r, 3), RandomGinibre(r, 2), RandomGinibre(r, 3)
	lhs := Mul(Kron(a, b), Kron(c, d))
	rhs := Kron(Mul(a, c), Mul(b, d))
	if !lhs.EqualApprox(rhs, 1e-10) {
		t.Fatal("Kron mixed-product identity fails")
	}
}

func TestNorms(t *testing.T) {
	a := FromRows([][]complex128{{3, 0}, {0, 4i}})
	if got := FrobeniusNorm(a); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Frobenius = %v, want 5", got)
	}
	if got := L1Norm(a); math.Abs(got-7) > 1e-12 {
		t.Fatalf("L1 = %v, want 7", got)
	}
	if got := MaxAbs(a); math.Abs(got-4) > 1e-12 {
		t.Fatalf("MaxAbs = %v, want 4", got)
	}
}

func TestHermitianUnitaryChecks(t *testing.T) {
	r := rng(6)
	h := RandomHermitian(r, 4)
	if !IsHermitian(h, 1e-12) {
		t.Fatal("RandomHermitian not Hermitian")
	}
	u := RandomUnitary(r, 4)
	if !IsUnitary(u, 1e-10) {
		t.Fatal("RandomUnitary not unitary")
	}
	if IsUnitary(Scale(2, u), 1e-10) {
		t.Fatal("2U flagged unitary")
	}
	g := RandomGinibre(r, 4)
	if IsHermitian(g, 1e-12) {
		t.Fatal("Ginibre flagged Hermitian")
	}
}

func TestEigenHermitianKnown(t *testing.T) {
	// Pauli X has eigenvalues ±1.
	x := FromRows([][]complex128{{0, 1}, {1, 0}})
	e, err := eigen(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Values[0]+1) > 1e-12 || math.Abs(e.Values[1]-1) > 1e-12 {
		t.Fatalf("Pauli X eigenvalues = %v", e.Values)
	}
	if !e.Reconstruct().EqualApprox(x, 1e-10) {
		t.Fatal("reconstruction failed")
	}
}

func TestEigenHermitianRandom(t *testing.T) {
	r := rng(9)
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(8)
		h := RandomHermitian(r, n)
		e, err := eigen(h)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !IsUnitary(e.Vectors, 1e-9) {
			t.Fatal("eigenvectors not unitary")
		}
		if !e.Reconstruct().EqualApprox(h, 1e-9) {
			t.Fatal("V·Λ·V† != H")
		}
		for i := 1; i < n; i++ {
			if e.Values[i] < e.Values[i-1] {
				t.Fatal("eigenvalues not sorted")
			}
		}
		// Trace preserved.
		var sum float64
		for _, v := range e.Values {
			sum += v
		}
		if math.Abs(sum-real(Trace(h))) > 1e-9 {
			t.Fatal("eigenvalue sum != trace")
		}
	}
}

func TestEigenHermitianRejectsNonHermitian(t *testing.T) {
	g := RandomGinibre(rng(10), 3)
	if _, err := eigen(g); err == nil {
		t.Fatal("expected rejection of non-Hermitian input")
	}
}

func TestEigenHermitianZero(t *testing.T) {
	e, err := eigen(New(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range e.Values {
		if v != 0 {
			t.Fatal("zero matrix must have zero eigenvalues")
		}
	}
}

func TestHessenberg(t *testing.T) {
	r := rng(11)
	for trial := 0; trial < 10; trial++ {
		n := 2 + r.Intn(6)
		a := RandomGinibre(r, n)
		h, q := Hessenberg(a)
		if !IsUnitary(q, 1e-9) {
			t.Fatal("Hessenberg Q not unitary")
		}
		if !MulChain(q, h, Dagger(q)).EqualApprox(a, 1e-9) {
			t.Fatal("QHQ† != A")
		}
		for i := 2; i < n; i++ {
			for j := 0; j < i-1; j++ {
				if h.At(i, j) != 0 {
					t.Fatalf("H[%d][%d] = %v not zero", i, j, h.At(i, j))
				}
			}
		}
	}
}

func TestSchurRandom(t *testing.T) {
	r := rng(12)
	for trial := 0; trial < 15; trial++ {
		n := 1 + r.Intn(7)
		a := RandomGinibre(r, n)
		s, err := SchurDecompose(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !IsUnitary(s.Q, 1e-8) {
			t.Fatal("Schur Q not unitary")
		}
		if !MulChain(s.Q, s.T, Dagger(s.Q)).EqualApprox(a, 1e-8) {
			t.Fatal("QTQ† != A")
		}
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				if s.T.At(i, j) != 0 {
					t.Fatal("T not upper triangular")
				}
			}
		}
	}
}

func TestSchurUnitaryInput(t *testing.T) {
	// For a unitary (normal) input the Schur form is diagonal with
	// unit-modulus eigenvalues.
	r := rng(13)
	u := RandomUnitary(r, 6)
	s, err := SchurDecompose(u)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if math.Abs(cmplx.Abs(s.T.At(i, i))-1) > 1e-8 {
			t.Fatalf("|λ| = %v, want 1", cmplx.Abs(s.T.At(i, i)))
		}
		for j := i + 1; j < 6; j++ {
			if cmplx.Abs(s.T.At(i, j)) > 1e-7 {
				t.Fatalf("normal input should give diagonal T, T[%d][%d]=%v", i, j, s.T.At(i, j))
			}
		}
	}
}

func TestSqrtmUnitary(t *testing.T) {
	r := rng(17)
	for trial := 0; trial < 10; trial++ {
		u := RandomUnitary(r, 4)
		s, err := Sqrtm(u)
		if err != nil {
			t.Fatal(err)
		}
		if !Mul(s, s).EqualApprox(u, 1e-8) {
			t.Fatal("sqrtm(U)² != U")
		}
	}
}

func TestSqrtmPositiveDiagonal(t *testing.T) {
	d := New(2, 2)
	d.Set(0, 0, 4)
	d.Set(1, 1, 9)
	s, err := Sqrtm(d)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(s.At(0, 0)-2) > 1e-10 || cmplx.Abs(s.At(1, 1)-3) > 1e-10 {
		t.Fatalf("sqrtm(diag(4,9)) = %v", s)
	}
}

func TestSqrtmUpperTriangular(t *testing.T) {
	a := FromRows([][]complex128{{4, 2}, {0, 9}})
	s, err := Sqrtm(a)
	if err != nil {
		t.Fatal(err)
	}
	if !Mul(s, s).EqualApprox(a, 1e-9) {
		t.Fatal("sqrtm(triangular)² != A")
	}
}

func TestMulChainAndKronChain(t *testing.T) {
	a := Identity(2)
	b := FromRows([][]complex128{{0, 1}, {1, 0}})
	if !MulChain(a, b, b).EqualApprox(a, 1e-12) {
		t.Fatal("X·X != I")
	}
}

func TestTransposeConj(t *testing.T) {
	a := FromRows([][]complex128{{1 + 2i, 3}, {4, 5i}})
	tr := Transpose(a)
	if tr.At(0, 1) != 4 || tr.At(1, 0) != 3 {
		t.Fatal("Transpose wrong")
	}
	cj := Conj(a)
	if cj.At(0, 0) != 1-2i {
		t.Fatal("Conj wrong")
	}
}

func TestShapePanics(t *testing.T) {
	cases := []func(){
		func() { Add(New(2, 2), New(3, 3)) },
		func() { Mul(New(2, 3), New(2, 3)) },
		func() { Trace(New(2, 3)) },
		func() { New(2, 2).At(5, 0) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestRandomUnitaryHaarPhaseInvariance(t *testing.T) {
	// Weak statistical check: the mean of U[0][0] over many draws should be
	// close to zero if phases are fixed correctly (Mezzadri's point).
	r := rng(18)
	var mean complex128
	const draws = 300
	for i := 0; i < draws; i++ {
		mean += RandomUnitary(r, 2).At(0, 0)
	}
	mean /= draws
	if cmplx.Abs(mean) > 0.15 {
		t.Fatalf("mean U00 = %v, suspiciously far from 0 for Haar", mean)
	}
}
