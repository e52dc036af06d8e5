package grape

import (
	"testing"

	"accqoc/internal/gate"
	"accqoc/internal/hamiltonian"
	"accqoc/internal/obs"
)

// End-to-end compilation benches: the serving-path unit of work behind
// every /v1/compile cache miss. Restarts are disabled so iterations (and
// therefore work) are identical across runs; b.ReportAllocs exposes the
// steady-state allocation behavior of the evaluation core. Each reports
// its optimizer iterations (iters) and line-search trial points (evals),
// both deterministic.

func benchCompile(b *testing.B, sys *hamiltonian.System, g gate.Name, duration float64, opts Options) {
	b.Helper()
	target, err := gate.Unitary(g, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Compile(sys, target, duration, opts, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Iterations), "iters")
		b.ReportMetric(float64(res.FuncEvals), "evals")
	}
}

// obsHook reproduces the server's per-iteration instrumentation (a counter
// increment plus a histogram observation per accepted optimizer iteration)
// so the observed bench variants price exactly what production pays.
func obsHook() func(infidelity, stepNorm float64) {
	r := obs.NewRegistry()
	iters := r.Counter("bench_iterations_total", "bench")
	norm := r.Histogram("bench_step_norm", "bench", obs.ExponentialBuckets(1e-6, 10, 10))
	return func(infidelity, stepNorm float64) {
		iters.Inc()
		norm.Observe(stepNorm)
	}
}

func BenchmarkCompile1Q(b *testing.B) {
	sys := hamiltonian.OneQubit(hamiltonian.Config{})
	benchCompile(b, sys, gate.H, 50,
		Options{Segments: 12, TargetInfidelity: 1e-4, Seed: 3, Restarts: -1})
}

func BenchmarkCompile1QObserved(b *testing.B) {
	sys := hamiltonian.OneQubit(hamiltonian.Config{})
	benchCompile(b, sys, gate.H, 50,
		Options{Segments: 12, TargetInfidelity: 1e-4, Seed: 3, Restarts: -1, IterationHook: obsHook()})
}

func BenchmarkCompile2Q(b *testing.B) {
	sys := hamiltonian.TwoQubit(hamiltonian.Config{})
	benchCompile(b, sys, gate.CX, 500,
		Options{Segments: 32, TargetInfidelity: 1e-3, Seed: 5, MaxIterations: 400, Restarts: -1})
}

func BenchmarkCompile2QObserved(b *testing.B) {
	sys := hamiltonian.TwoQubit(hamiltonian.Config{})
	benchCompile(b, sys, gate.CX, 500,
		Options{Segments: 32, TargetInfidelity: 1e-3, Seed: 5, MaxIterations: 400, Restarts: -1, IterationHook: obsHook()})
}

// Single-call benches isolate the objective's hot loop from the optimizer.

func benchGradient(b *testing.B, sys *hamiltonian.System, g gate.Name, duration float64, segments int) {
	b.Helper()
	target, err := gate.Unitary(g, nil)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Segments: segments, Seed: 3}.withDefaults()
	obj := newObjective(sys, target, duration, opts)
	x := obj.initialVector(nil)
	grad := make([]float64, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Perturb so the shared-forward-pass cache cannot short-circuit the
		// work being measured.
		x[0] += 1e-12
		obj.Gradient(x, grad)
	}
}

func BenchmarkGradient1Q(b *testing.B) {
	benchGradient(b, hamiltonian.OneQubit(hamiltonian.Config{}), gate.H, 50, 12)
}

func BenchmarkGradient2Q(b *testing.B) {
	benchGradient(b, hamiltonian.TwoQubit(hamiltonian.Config{}), gate.CX, 500, 32)
}

// BenchmarkGradient3Q prices one objective+gradient pass at the dim-8
// scale the opt-in 3-qubit grouping policies reach: 40 segments of 8x8
// propagator chain (the tiled GEMM path in cmat). Must stay 0 allocs/op.
func BenchmarkGradient3Q(b *testing.B) {
	sys, err := hamiltonian.ForQubits(3, hamiltonian.Config{})
	if err != nil {
		b.Fatal(err)
	}
	benchGradient(b, sys, gate.CCX, 2200, 40)
}

func BenchmarkEvaluate2Q(b *testing.B) {
	target, err := gate.Unitary(gate.CX, nil)
	if err != nil {
		b.Fatal(err)
	}
	sys := hamiltonian.TwoQubit(hamiltonian.Config{})
	opts := Options{Segments: 32, Seed: 3}.withDefaults()
	obj := newObjective(sys, target, 500, opts)
	x := obj.initialVector(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x[0] += 1e-12
		obj.Evaluate(x)
	}
}
