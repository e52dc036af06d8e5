package similarity

import (
	"math"
	"math/rand"
	"testing"

	"accqoc/internal/cmat"
	"accqoc/internal/gate"
)

func gU(t *testing.T, n gate.Name, params ...float64) *cmat.Matrix {
	t.Helper()
	u, err := gate.Unitary(n, params)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestSelfDistanceIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := cmat.RandomUnitary(rng, 4)
	for _, f := range []Func{L1, L2, TraceFid, UhlmannFid} {
		d, err := Distance(f, u, u)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if d > 1e-8 {
			t.Errorf("%s: self-distance = %v, want ≈ 0", f, d)
		}
	}
}

func TestInverseFidRewardsDissimilarity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	u := cmat.RandomUnitary(rng, 4)
	dSelf, err := Distance(InverseFid, u, u)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dSelf-1) > 1e-8 {
		t.Fatalf("inverse self-distance = %v, want 1 (maximal)", dSelf)
	}
}

func TestSymmetryOfMetricFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := cmat.RandomUnitary(rng, 4)
	b := cmat.RandomUnitary(rng, 4)
	for _, f := range []Func{L1, L2, TraceFid} {
		d1, err1 := Distance(f, a, b)
		d2, err2 := Distance(f, b, a)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if math.Abs(d1-d2) > 1e-10 {
			t.Errorf("%s not symmetric: %v vs %v", f, d1, d2)
		}
	}
}

func TestOrderingCloserAnglesAreCloser(t *testing.T) {
	// rz(1.0) should be closer to rz(1.1) than to rz(2.5) under every
	// genuine similarity function.
	ref := gU(t, gate.RZ, 1.0)
	near := gU(t, gate.RZ, 1.1)
	far := gU(t, gate.RZ, 2.5)
	for _, f := range []Func{L1, L2, TraceFid, UhlmannFid} {
		dn, err := Distance(f, ref, near)
		if err != nil {
			t.Fatal(err)
		}
		df, err := Distance(f, ref, far)
		if err != nil {
			t.Fatal(err)
		}
		if dn >= df {
			t.Errorf("%s: d(near)=%v ≥ d(far)=%v", f, dn, df)
		}
	}
}

func TestTraceFidGlobalPhaseInvariant(t *testing.T) {
	a := gU(t, gate.H)
	b := cmat.Scale(1i, a)
	d, err := Distance(TraceFid, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-10 {
		t.Fatalf("trace fidelity should ignore global phase: %v", d)
	}
}

func TestL1L2RelationToNorms(t *testing.T) {
	a := gU(t, gate.X)
	b := gU(t, gate.I)
	d1, _ := Distance(L1, a, b)
	d2, _ := Distance(L2, a, b)
	// X−I has entries {−1,1,1,−1}: L1 = 4, L2 = 2.
	if math.Abs(d1-4) > 1e-12 || math.Abs(d2-2) > 1e-12 {
		t.Fatalf("d1=%v d2=%v, want 4 and 2", d1, d2)
	}
}

func TestUhlmannPeaksAtEqualUnitaries(t *testing.T) {
	// d4(A, A) ≈ 0 verifies the dagger transcription (see package doc).
	for _, g := range []gate.Name{gate.H, gate.T, gate.CX, gate.Swap} {
		u := gU(t, g)
		d, err := Distance(UhlmannFid, u, u)
		if err != nil {
			t.Fatal(err)
		}
		if d > 1e-8 {
			t.Errorf("%s: d4 self-distance %v", g, d)
		}
	}
}

func TestDistanceValidation(t *testing.T) {
	if _, err := Distance(L1, cmat.Identity(2), cmat.Identity(4)); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, err := Distance("bogus", cmat.Identity(2), cmat.Identity(2)); err == nil {
		t.Fatal("unknown function accepted")
	}
	if _, err := Distance(L1, cmat.New(2, 3), cmat.New(2, 3)); err == nil {
		t.Fatal("non-square accepted")
	}
}

func TestAllListsFiveFunctions(t *testing.T) {
	if len(All) != 5 {
		t.Fatalf("All has %d functions, want 5 (paper Fig. 8)", len(All))
	}
}
