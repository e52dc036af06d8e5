package hamiltonian

import (
	"math"
	"math/cmplx"
	"testing"

	"accqoc/internal/cmat"
)

func TestOneQubitSystem(t *testing.T) {
	s := OneQubit(Config{})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Dim != 2 || len(s.Controls) != 2 {
		t.Fatalf("shape: dim=%d controls=%d", s.Dim, len(s.Controls))
	}
	// On resonance the drift is zero.
	if cmat.FrobeniusNorm(s.Drift) != 0 {
		t.Fatal("default 1q drift should vanish in the rotating frame")
	}
}

func TestOneQubitDetuning(t *testing.T) {
	s := OneQubit(Config{Detuning: 0.02})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(real(s.Drift.At(0, 0))-0.01) > 1e-15 {
		t.Fatalf("drift = %v, want Δ/2 = 0.01", s.Drift.At(0, 0))
	}
}

func TestTwoQubitSystem(t *testing.T) {
	s := TwoQubit(Config{})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Dim != 4 || len(s.Controls) != 4 {
		t.Fatalf("shape: dim=%d controls=%d", s.Dim, len(s.Controls))
	}
	// ZZ drift: diagonal (J, −J, −J, J).
	j := DefaultCoupling
	want := []float64{j, -j, -j, j}
	for i, w := range want {
		if math.Abs(real(s.Drift.At(i, i))-w) > 1e-15 {
			t.Fatalf("drift[%d][%d] = %v, want %v", i, i, s.Drift.At(i, i), w)
		}
	}
}

func TestForQubits(t *testing.T) {
	if _, err := ForQubits(1, Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ForQubits(2, Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ForQubits(6, Config{}); err == nil {
		t.Fatal("6-qubit model should be rejected (chain cap)")
	}
}

func TestAssemble(t *testing.T) {
	s := OneQubit(Config{})
	h := s.Assemble([]float64{0.5, 0})
	// H = 0.5·σx.
	if h.At(0, 1) != 0.5 || h.At(1, 0) != 0.5 {
		t.Fatalf("assembled H = %v", h)
	}
	if !cmat.IsHermitian(h, 1e-14) {
		t.Fatal("assembled H not Hermitian")
	}
}

func TestAssemblePanicsOnWrongArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	OneQubit(Config{}).Assemble([]float64{1})
}

func TestValidateCatchesCorruption(t *testing.T) {
	s := OneQubit(Config{})
	s.Controls[0].Set(0, 1, 2) // breaks Hermiticity
	if err := s.Validate(); err == nil {
		t.Fatal("non-Hermitian control accepted")
	}
	s = OneQubit(Config{})
	s.MaxAmp = -1
	if err := s.Validate(); err == nil {
		t.Fatal("negative MaxAmp accepted")
	}
}

func TestConfigDrift(t *testing.T) {
	d := Config{}.Drift(2)
	if d.MaxAmp != DefaultMaxAmp*1.02 {
		t.Fatalf("MaxAmp %v, want %v", d.MaxAmp, DefaultMaxAmp*1.02)
	}
	if d.Coupling != DefaultCoupling*1.02 {
		t.Fatalf("Coupling %v, want %v", d.Coupling, DefaultCoupling*1.02)
	}
	// The detuning shift is the 1q invalidation channel: without it a
	// drifted on-resonance single-qubit system would be physically
	// identical and old pulses would stay exactly valid.
	if want := 0.02 * d.MaxAmp; d.Detuning != want {
		t.Fatalf("Detuning %v, want %v", d.Detuning, want)
	}
	// Drifting a zero-value config must not collapse back to defaults on
	// the other side: the result is explicit.
	if sys := OneQubit(d); sys.Drift.At(0, 0) == 0 {
		t.Fatal("drifted 1q system has a zero drift term")
	}
	// Normalize is idempotent physics: zero value and explicit defaults
	// describe the same system.
	n := Config{}.Normalize()
	if n.MaxAmp != DefaultMaxAmp || n.Coupling != DefaultCoupling || n.Detuning != 0 {
		t.Fatalf("Normalize = %+v", n)
	}
}

func TestRabiFlipTiming(t *testing.T) {
	// Driving σx at amplitude u for t = π/(2u) implements an X rotation:
	// exp(−i·u·t·σx) with u·t = π/2 equals −i·X.
	s := OneQubit(Config{})
	u := s.MaxAmp
	tFlip := math.Pi / (2 * u)
	h := s.Assemble([]float64{u, 0})
	e := cmat.NewHermitianEigen(s.Dim)
	if err := cmat.EigenHermitianInto(h, cmat.NewJacobiWorkspace(s.Dim), e); err != nil {
		t.Fatal(err)
	}
	prop := e.ApplyFunc(func(l float64) complex128 {
		return cmplx.Exp(complex(0, -tFlip*l))
	})
	wantX := cmat.FromRows([][]complex128{{0, 1}, {1, 0}})
	got := cmat.Scale(1i, prop) // remove the −i global phase
	if !got.EqualApprox(wantX, 1e-10) {
		t.Fatalf("π-pulse did not produce X:\n%v", prop)
	}
	// With the default amplitude bound this is 25 ns.
	if math.Abs(tFlip-25) > 1e-9 {
		t.Fatalf("π-pulse time = %v ns, want 25 ns at default bound", tFlip)
	}
}

func TestCXEntanglingTime(t *testing.T) {
	// The ZZ drift needs J·t = π/4 for the CNOT's entangling content:
	// t = π/(4J) ≈ 312.5 ns with the default coupling.
	tEnt := math.Pi / (4 * DefaultCoupling)
	if math.Abs(tEnt-312.5) > 0.1 {
		t.Fatalf("entangling time = %v ns, want ≈ 312.5 ns", tEnt)
	}
}

func TestChainMatchesTwoQubit(t *testing.T) {
	c2, err := Chain(2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t2 := TwoQubit(Config{})
	if !c2.Drift.EqualApprox(t2.Drift, 1e-14) {
		t.Fatal("2-site chain drift differs from TwoQubit")
	}
	if len(c2.Controls) != len(t2.Controls) {
		t.Fatal("control count differs")
	}
}

func TestChainThreeQubits(t *testing.T) {
	c, err := Chain(3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Dim != 8 || len(c.Controls) != 6 {
		t.Fatalf("chain-3 shape: dim=%d controls=%d", c.Dim, len(c.Controls))
	}
	// Drift diagonal for |000⟩: two bonds both aligned → +2J.
	if math.Abs(real(c.Drift.At(0, 0))-2*DefaultCoupling) > 1e-15 {
		t.Fatalf("chain drift corner = %v", c.Drift.At(0, 0))
	}
}

func TestChainBounds(t *testing.T) {
	if _, err := Chain(0, Config{}); err == nil {
		t.Fatal("chain(0) accepted")
	}
	if _, err := Chain(6, Config{}); err == nil {
		t.Fatal("chain(6) accepted")
	}
	if _, err := ForQubits(3, Config{}); err != nil {
		t.Fatal("ForQubits(3) should use the chain model")
	}
}

func TestAssembleIntoMatchesAssemble(t *testing.T) {
	for _, sys := range []*System{OneQubit(Config{}), TwoQubit(Config{Detuning: 0.01})} {
		amps := make([]float64, len(sys.Controls))
		for i := range amps {
			amps[i] = 0.01 * float64(i+1)
		}
		amps[0] = 0 // zero amplitude short-circuits; must still match
		want := sys.Assemble(amps)
		dst := cmat.New(sys.Dim, sys.Dim)
		dst.Set(0, 0, 99) // stale contents must be overwritten
		sys.AssembleInto(dst, amps)
		if !dst.Equal(want) {
			t.Fatalf("%s: AssembleInto != Assemble", sys.Name)
		}
	}
}

func TestAssembleIntoWrongAmpsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on amplitude count mismatch")
		}
	}()
	sys := OneQubit(Config{})
	sys.AssembleInto(cmat.New(2, 2), []float64{0.1})
}
