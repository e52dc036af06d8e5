package grape

import (
	"math"
	"testing"

	"accqoc/internal/cmat"
	"accqoc/internal/gate"
	"accqoc/internal/hamiltonian"
	"accqoc/internal/pulse"
)

func oneQ() *hamiltonian.System { return hamiltonian.OneQubit(hamiltonian.Config{}) }
func twoQ() *hamiltonian.System { return hamiltonian.TwoQubit(hamiltonian.Config{}) }

func gateU(t *testing.T, n gate.Name, params ...float64) *cmat.Matrix {
	t.Helper()
	u, err := gate.Unitary(n, params)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestFidelityBasics(t *testing.T) {
	id := cmat.Identity(2)
	x := gateU(t, gate.X)
	if f := Fidelity(id, id); math.Abs(f-1) > 1e-12 {
		t.Fatalf("F(I,I) = %v", f)
	}
	if f := Fidelity(x, id); f > 1e-12 {
		t.Fatalf("F(X,I) = %v, want 0", f)
	}
	// Global phase invariance.
	if f := Fidelity(cmat.Scale(1i, x), x); math.Abs(f-1) > 1e-12 {
		t.Fatalf("F(iX,X) = %v, want 1", f)
	}
}

func TestExactGradientMatchesFiniteDifference(t *testing.T) {
	for name, setup := range map[string]struct {
		sys      *hamiltonian.System
		target   *cmat.Matrix
		duration float64
	}{
		"1q-h":  {oneQ(), gateU(t, gate.H), 60},
		"2q-cx": {twoQ(), gateU(t, gate.CX), 400},
	} {
		opts := Options{Segments: 6, Seed: 3}.withDefaults()
		obj := newObjective(setup.sys, setup.target, setup.duration, opts)
		x := obj.initialVector(nil)
		for i := range x {
			x[i] += 0.01 * float64(i%3)
		}
		grad := make([]float64, len(x))
		obj.Gradient(x, grad)

		const h = 1e-6
		for i := 0; i < len(x); i += 3 {
			xp := append([]float64(nil), x...)
			xm := append([]float64(nil), x...)
			xp[i] += h
			xm[i] -= h
			fd := (obj.Evaluate(xp) - obj.Evaluate(xm)) / (2 * h)
			if math.Abs(fd-grad[i]) > 1e-5*(1+math.Abs(fd)) {
				t.Errorf("%s: grad[%d] = %v, finite diff %v", name, i, grad[i], fd)
			}
		}
	}
}

func TestCompileXGate(t *testing.T) {
	res, err := Compile(oneQ(), gateU(t, gate.X), 40, Options{Segments: 12, TargetInfidelity: 1e-6, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("X gate did not converge: infidelity %v after %d iters", res.Infidelity, res.Iterations)
	}
	// Independent verification through the propagator.
	if inf := VerifyPulse(oneQ(), res.Pulse, gateU(t, gate.X)); inf > 1e-5 {
		t.Fatalf("verification infidelity %v", inf)
	}
	// Pulse respects the amplitude bound (clipped post-optimization).
	if res.Pulse.MaxAbs() > oneQ().MaxAmp+1e-12 {
		t.Fatal("pulse exceeds amplitude bound")
	}
}

func TestCompileHGateAllOptimizers(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	opts := Options{Segments: 12, TargetInfidelity: 1e-4, Seed: 2, MaxIterations: 4000}
	res, err := Compile(oneQ(), gateU(t, gate.H), 50, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("H gate infidelity %v after %d iters", res.Infidelity, res.Iterations)
	}
}

func TestCompileZRotationWithoutZControl(t *testing.T) {
	// rz is reachable from {σx, σy} controls only via composite rotations —
	// a real controllability test.
	res, err := Compile(oneQ(), gateU(t, gate.RZ, 1.1), 60, Options{Segments: 16, TargetInfidelity: 1e-5, Seed: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("rz infidelity %v", res.Infidelity)
	}
}

func TestCompileCXGate(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	// CX at 500 ns: comfortably above the ≈312 ns ZZ speed limit (bounded
	// local drives push the practical limit to ≈450 ns), so it converges.
	// Two-qubit targets want ≥32 segments for reliable convergence.
	res, err := Compile(twoQ(), gateU(t, gate.CX), 500, Options{Segments: 32, TargetInfidelity: 1e-4, Seed: 5, MaxIterations: 2000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("CX infidelity %v after %d iterations", res.Infidelity, res.Iterations)
	}
	if inf := VerifyPulse(twoQ(), res.Pulse, gateU(t, gate.CX)); inf > 1e-3 {
		t.Fatalf("CX verification infidelity %v", inf)
	}
}

func TestCompileTooShortFails(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	// 50 ns is far below the ZZ speed limit for CX: must NOT converge.
	res, err := Compile(twoQ(), gateU(t, gate.CX), 50, Options{Segments: 10, TargetInfidelity: 1e-4, Seed: 6, MaxIterations: 300}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("CX in 50 ns should be physically impossible")
	}
}

func TestWarmStartReducesIterations(t *testing.T) {
	// Train rz(1.0), then warm-start rz(1.1) from it: fewer iterations than
	// a cold start. This is the paper's §V-B insight in miniature.
	target1 := gateU(t, gate.RZ, 1.0)
	target2 := gateU(t, gate.RZ, 1.1)
	opts := Options{Segments: 16, TargetInfidelity: 1e-5, Seed: 7}
	first, err := Compile(oneQ(), target1, 60, opts, nil)
	if err != nil || !first.Converged {
		t.Fatalf("first: %v / %+v", err, first)
	}
	cold, err := Compile(oneQ(), target2, 60, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Compile(oneQ(), target2, 60, opts, first.Pulse)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Converged {
		t.Fatal("warm start did not converge")
	}
	if warm.Iterations >= cold.Iterations {
		t.Errorf("warm start took %d iterations, cold %d — expected acceleration",
			warm.Iterations, cold.Iterations)
	}
}

func TestCompileValidation(t *testing.T) {
	if _, err := Compile(oneQ(), cmat.Identity(4), 10, Options{}, nil); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, err := Compile(oneQ(), cmat.Scale(2, cmat.Identity(2)), 10, Options{}, nil); err == nil {
		t.Fatal("non-unitary target accepted")
	}
	if _, err := Compile(oneQ(), cmat.Identity(2), -5, Options{}, nil); err == nil {
		t.Fatal("negative duration accepted")
	}
}

func TestPropagateZeroPulseIsIdentity(t *testing.T) {
	p := pulse.New(oneQ().ControlNames, 8, 5)
	u := Propagate(oneQ(), p)
	if !u.EqualApprox(cmat.Identity(2), 1e-12) {
		t.Fatal("zero pulse on driftless system must be identity")
	}
}

func TestBinarySearchFindsMinimalLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	// For X the speed limit is 25 ns (π at full drive). The search should
	// land within resolution of it.
	sys := oneQ()
	res, err := CompileBinarySearch(sys, gateU(t, gate.X), Options{Segments: 12, TargetInfidelity: 1e-4, Seed: 8},
		SearchOptions{MinDuration: 5, MaxDuration: 200, Resolution: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("binary search result not converged")
	}
	if res.Duration < 24 || res.Duration > 60 {
		t.Fatalf("X latency = %v ns, want near the 25 ns speed limit", res.Duration)
	}
	if len(res.Probes) < 3 {
		t.Fatalf("expected several probes, got %d", len(res.Probes))
	}
	if res.TotalIterations <= 0 {
		t.Fatal("iteration accounting missing")
	}
}

func TestBinarySearchUnreachable(t *testing.T) {
	if testing.Short() {
		t.Skip("trains pulses; skipped in -short")
	}
	// CX cannot be reached in ≤ 100 ns with the default coupling.
	_, err := CompileBinarySearch(twoQ(), gateU(t, gate.CX),
		Options{Segments: 10, TargetInfidelity: 1e-4, Seed: 9, MaxIterations: 200},
		SearchOptions{MinDuration: 5, MaxDuration: 100, Resolution: 10}, nil)
	if err == nil {
		t.Fatal("expected unreachable-target error")
	}
}

func TestDeterminismWithSeed(t *testing.T) {
	opts := Options{Segments: 10, TargetInfidelity: 1e-4, Seed: 11}
	r1, err1 := Compile(oneQ(), gateU(t, gate.H), 50, opts, nil)
	r2, err2 := Compile(oneQ(), gateU(t, gate.H), 50, opts, nil)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.Iterations != r2.Iterations || r1.Infidelity != r2.Infidelity {
		t.Fatal("same seed should give identical runs")
	}
}
