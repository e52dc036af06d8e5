package server

import (
	"testing"

	"accqoc/internal/circuit"
	"accqoc/internal/compilesvc"
	"accqoc/internal/devreg"
	"accqoc/internal/precompile"
	"accqoc/internal/qasm"
)

// Similar 2Q pairs: one CX-anchored group whose trailing rz angle moves a
// little, so the second program's group is a cache miss with a close
// covered neighbor.
const (
	cx2qAProgram = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncx q[0],q[1];\nrz(0.2) q[1];\n"
	cx2qBProgram = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncx q[0],q[1];\nrz(0.35) q[1];\n"
)

func mustParse(b *testing.B, src string) *circuit.Circuit {
	b.Helper()
	prog, err := qasm.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// benchServe measures one cache-miss service pattern: train program A on
// a fresh server, then serve the similar program B as a miss. The
// reported grape-iters/op is B's training cost — the paper's
// compile-cost metric (§VI-G) — which the seed index should cut relative
// to the cold path. The cold arm serves B on a second fresh server, whose
// empty seed index has nothing to lend, so B trains from a random init.
// GRAPE is seeded (fastOpts sets Seed), so the iteration metric is
// deterministic; wall time on the shared bench box is not the signal.
func benchServe(b *testing.B, progA, progB string, cold bool) {
	pa := mustParse(b, progA)
	pb := mustParse(b, progB)
	var iters, seeded int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(Config{Compile: fastOpts(), Workers: 1})
		if _, err := s.svc.Do(&compilesvc.Request{Prog: pa, NS: s.defaultNS()}); err != nil {
			b.Fatal(err)
		}
		if cold {
			s.Close()
			s = New(Config{Compile: fastOpts(), Workers: 1})
		}
		res, err := s.svc.Do(&compilesvc.Request{Prog: pb, NS: s.defaultNS()})
		if err != nil {
			b.Fatal(err)
		}
		iters += int64(res.Resp.TrainingIterations)
		seeded += int64(res.Resp.WarmSeeded)
		s.Close()
	}
	b.StopTimer()
	if cold && seeded != 0 {
		b.Fatalf("cold arm seeded %d misses on an empty index", seeded)
	}
	if !cold && seeded < int64(b.N) {
		b.Fatalf("warm mode seeded %d of %d misses", seeded, b.N)
	}
	b.ReportMetric(float64(iters)/float64(b.N), "grape-iters/op")
}

// BenchmarkServeColdVsWarm is the serving-path ablation committed to
// BENCH_warmstart.json: the same miss served next to a covered similar
// neighbor (warm) and on a fresh server with nothing to seed from (cold).
func BenchmarkServeColdVsWarm(b *testing.B) {
	for _, c := range []struct{ name, a, b string }{
		{"1q", rxAProgram, rxBProgram},
		{"2q", cx2qAProgram, cx2qBProgram},
	} {
		b.Run(c.name+"/cold", func(b *testing.B) { benchServe(b, c.a, c.b, true) })
		b.Run(c.name+"/warm", func(b *testing.B) { benchServe(b, c.a, c.b, false) })
	}
}

// benchEpochRoll measures the cross-epoch recompilation cost for one
// calibration event: epoch 0 is warmed with a 1q and a 2q group, the
// calibration drifts ±2%, and every covered group re-trains for epoch 1.
// The warm arm drives the server's real pipeline unit (recompileOne:
// seeded by the old-epoch pulse at its native duration); the cold arm
// strips the seeds — what every recalibration cost before the registry.
// grape-iters/op is the summed re-training cost per roll. Fidelity is
// tightened to 1e-3 so iteration counts are meaningful; GRAPE is seeded,
// so they are deterministic — wall clock on the shared box is not the
// signal.
func benchEpochRoll(b *testing.B, warm bool) {
	opts := fastOpts()
	opts.Precompile.Grape.TargetInfidelity = 1e-3
	pa := mustParse(b, rxAProgram)
	pc := mustParse(b, cx2qAProgram)
	var iters int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(Config{Compile: opts, Workers: 1})
		for _, prog := range []*circuit.Circuit{pa, pc} {
			if _, err := s.svc.Do(&compilesvc.Request{Prog: prog, NS: s.defaultNS()}); err != nil {
				b.Fatal(err)
			}
		}
		roll, err := s.Registry().Calibrate("", devreg.CalibrationUpdate{DriftPct: 2})
		if err != nil {
			b.Fatal(err)
		}
		if len(roll.Plan) != 2 {
			b.Fatalf("plan has %d items, want 2", len(roll.Plan))
		}
		if warm {
			for j := range roll.Plan {
				if rerr := s.svc.Recompile(roll, &roll.Plan[j]); rerr != nil {
					b.Fatal(rerr)
				}
			}
			st := roll.Status()
			// The acceptance invariant: the warm path seeds every
			// re-trained group from its old-epoch pulse.
			if st.Done != len(roll.Plan) || st.WarmSeeded != st.Done || st.Failed != 0 {
				b.Fatalf("warm roll did not seed every group: %+v", st)
			}
			iters += int64(st.Iterations)
		} else {
			cfg := roll.New.Comp.Options().Precompile
			for _, it := range roll.Plan {
				stripped := &precompile.Entry{
					Key: it.Old.Key, NumQubits: it.Old.NumQubits, Frequency: it.Old.Frequency,
				}
				e, rerr := precompile.RetrainEntry(stripped, it.Unitary, cfg)
				if rerr != nil {
					b.Fatal(rerr)
				}
				iters += int64(e.Iterations)
			}
		}
		roll.Finish()
		s.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(iters)/float64(b.N), "grape-iters/op")
}

// BenchmarkEpochRollWarmVsCold is the calibration-epoch ablation committed
// to BENCH_epoch.json: the same ±2% recalibration re-covered with
// old-epoch warm starts (the registry's roll pipeline) vs cold re-training
// (the pre-registry cost of a recalibration).
func BenchmarkEpochRollWarmVsCold(b *testing.B) {
	b.Run("cold", func(b *testing.B) { benchEpochRoll(b, false) })
	b.Run("warm", func(b *testing.B) { benchEpochRoll(b, true) })
}
