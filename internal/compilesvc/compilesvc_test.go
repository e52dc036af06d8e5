package compilesvc

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"accqoc"
	"accqoc/internal/circuit"
	"accqoc/internal/devreg"
	"accqoc/internal/gate"
	"accqoc/internal/grape"
	"accqoc/internal/grouping"
	"accqoc/internal/obs"
	"accqoc/internal/precompile"
	"accqoc/internal/qasm"
	"accqoc/internal/topology"
)

// newNamespace returns the default namespace of a fresh registry on a
// 4-qubit line, with a GRAPE budget small enough for single-qubit groups
// to train in milliseconds.
func newNamespace(t *testing.T) *devreg.Namespace {
	t.Helper()
	reg, err := devreg.New(devreg.Config{Base: accqoc.Options{
		Device: topology.Linear(4),
		Policy: grouping.Map2b4l,
		Precompile: precompile.Config{
			Grape:    grape.Options{TargetInfidelity: 1e-2, MaxIterations: 300, Seed: 1},
			Search1Q: grape.SearchOptions{MinDuration: 10, MaxDuration: 120, Resolution: 20},
			Search2Q: grape.SearchOptions{MinDuration: 200, MaxDuration: 1400, Resolution: 200},
		},
	}}, devreg.Profile{})
	if err != nil {
		t.Fatal(err)
	}
	ns, err := reg.Current("")
	if err != nil {
		t.Fatal(err)
	}
	return ns
}

func newRequest(t *testing.T, ns *devreg.Namespace, src string, circuit bool) *Request {
	t.Helper()
	prog, err := qasm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return &Request{Prog: prog, NS: ns, Circuit: circuit}
}

// submit runs one request through Submit and waits for its answer.
func submit(t *testing.T, p *Pool, req *Request) chan *Result {
	t.Helper()
	out := make(chan *Result, 1)
	err := p.Submit(req, nil, func(res *Result, err error) {
		if err != nil {
			t.Errorf("async request failed: %v", err)
		}
		out <- res
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSyncIsBatchOfOne pins that Do and Submit answer alike: on two fresh
// registries, one request served each way reports the same response,
// every field but the wall time, seed distance to the bit. The four rx
// groups first occur in another order than their MST trains them in, and
// three trainings warm-start, so seed_distance is the mean of three
// distances: both paths must sum them in execution order.
func TestSyncIsBatchOfOne(t *testing.T) {
	const src = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\n" +
		"rx(1.2) q[0];\nrx(0.3) q[1];\nrx(0.9) q[2];\nrx(0.6) q[3];\n"
	for _, circuit := range []bool{false, true} {
		syncNS, asyncNS := newNamespace(t), newNamespace(t)
		p := New(Config{Workers: 1})
		syncRes, err := p.Do(newRequest(t, syncNS, src, circuit))
		if err != nil {
			t.Fatal(err)
		}
		asyncRes := <-submit(t, p, newRequest(t, asyncNS, src, circuit))
		p.Close()
		if asyncRes == nil {
			t.Fatal("async request returned no result")
		}

		s, a := syncRes.Resp, asyncRes.Resp
		if circuit {
			s, a = &syncRes.Circ.Compile, &asyncRes.Circ.Compile
			if syncRes.Circ.MakespanNs != asyncRes.Circ.MakespanNs ||
				!reflect.DeepEqual(syncRes.Circ.Schedule, asyncRes.Circ.Schedule) {
				t.Errorf("circuit=%v: schedules diverge:\nsync  %+v\nasync %+v", circuit, syncRes.Circ.Schedule, asyncRes.Circ.Schedule)
			}
		}
		if s.WarmSeeded < 3 || s.UncoveredUnique != 4 {
			t.Fatalf("circuit=%v: want 4 cold groups with at least 3 seeded trainings, got %+v", circuit, *s)
		}
		if math.Float64bits(s.SeedDistance) != math.Float64bits(a.SeedDistance) {
			t.Errorf("circuit=%v: seed_distance %016x (sync) != %016x (async)", circuit,
				math.Float64bits(s.SeedDistance), math.Float64bits(a.SeedDistance))
		}
		sc, ac := *s, *a
		sc.CompileMillis, ac.CompileMillis = 0, 0
		if sc != ac {
			t.Errorf("circuit=%v: responses diverge:\nsync  %+v\nasync %+v", circuit, sc, ac)
		}
	}
}

// TestBatchCountsEachOwner pins the batch's one counting site: two jobs
// in one batch share a cold key and a covered key, each with its own
// occurrence counts. The shared training counts into both responses once
// per unique key; covered occurrences count per job.
func TestBatchCountsEachOwner(t *testing.T) {
	const header = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\n"
	ns := newNamespace(t)
	p := New(Config{Workers: 1, BatchWindow: 500 * time.Millisecond})
	defer p.Close()
	// Cover rx(0.5).
	if _, err := p.Do(newRequest(t, ns, header+"rx(0.5) q[0];\n", false)); err != nil {
		t.Fatal(err)
	}
	// Job a: the covered key once, the cold key three times; job b the
	// other way round. Both land in one batch window.
	a := submit(t, p, newRequest(t, ns, header+"rx(0.5) q[0];\nrx(1.3) q[1];\nrx(1.3) q[2];\nrx(1.3) q[3];\n", false))
	b := submit(t, p, newRequest(t, ns, header+"rx(0.5) q[0];\nrx(0.5) q[1];\nrx(0.5) q[2];\nrx(1.3) q[3];\n", false))
	ra, rb := (<-a).Resp, (<-b).Resp
	if got := ns.Store.Stats().Trainings; got != 2 {
		t.Fatalf("store ran %d trainings, want 2 (the warm-up and one shared cold key)", got)
	}
	for _, tc := range []struct {
		name    string
		resp    *CompileResponse
		covered int
	}{{"a", ra, 1}, {"b", rb, 3}} {
		r := tc.resp
		if r.TotalGroups != 4 || r.CoveredGroups != tc.covered || r.UncoveredUnique != 1 || r.FailedGroups != 0 {
			t.Errorf("job %s: total=%d covered=%d uncovered_unique=%d failed=%d, want 4/%d/1/0",
				tc.name, r.TotalGroups, r.CoveredGroups, r.UncoveredUnique, r.FailedGroups, tc.covered)
		}
		if want := float64(tc.covered) / 4; r.CoverageRate != want || r.WarmServed {
			t.Errorf("job %s: coverage_rate=%v warm_served=%v, want %v and false", tc.name, r.CoverageRate, r.WarmServed, want)
		}
	}
	if ra.TrainingIterations == 0 || ra.TrainingIterations != rb.TrainingIterations ||
		ra.WarmSeeded != rb.WarmSeeded || ra.SeedDistance != rb.SeedDistance {
		t.Errorf("shared training counted differently: a=%+v b=%+v", *ra, *rb)
	}
}

// TestPlanPanicFailsOnlyItsRequest: a request whose planning panics (a
// gate on a wire outside its circuit, which only a caller bypassing
// circuit.Append can build) gets an ErrPlanPanic error and an ended
// prepare span carrying it; the worker survives, and a valid request
// batched with it, and one sent after it, are served.
func TestPlanPanicFailsOnlyItsRequest(t *testing.T) {
	ns := newNamespace(t)
	p := New(Config{Workers: 1, BatchWindow: 50 * time.Millisecond})
	defer p.Close()
	bad := func() *Request {
		prog := circuit.New(2)
		prog.Gates = append(prog.Gates, gate.MustInstance(gate.CX, []int{0, 7}))
		return &Request{Prog: prog, NS: ns, Trace: obs.NewTrace("bad", "test")}
	}
	const src = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nrz(0.4) q[0];\nh q[1];\n"

	req := bad()
	if _, err := p.Do(req); !errors.Is(err, ErrPlanPanic) || !strings.Contains(err.Error(), "index out of range") {
		t.Fatalf("malformed request: error %v, want a recovered index panic", err)
	}
	var prepare *obs.Span
	for _, sp := range req.Trace.Spans {
		if sp.Name == "prepare" {
			prepare = sp
		}
	}
	if prepare == nil || !strings.Contains(prepare.Error, "planning panicked") {
		t.Fatalf("prepare span %+v, want it ended with the panic's text", prepare)
	}

	// One batch: the panicking request and a valid one.
	errs := make(chan error, 2)
	for _, r := range []*Request{bad(), newRequest(t, ns, src, false)} {
		if err := p.Submit(r, nil, func(_ *Result, err error) { errs <- err }); err != nil {
			t.Fatal(err)
		}
	}
	var failed int
	for range 2 {
		switch err := <-errs; {
		case errors.Is(err, ErrPlanPanic):
			failed++
		case err != nil:
			t.Errorf("valid request in the batch failed: %v", err)
		}
	}
	if failed != 1 {
		t.Errorf("%d requests of the batch failed with ErrPlanPanic, want 1", failed)
	}

	res, err := p.Do(newRequest(t, ns, src, false))
	if err != nil || res.Resp.TotalGroups == 0 {
		t.Fatalf("valid request after the panic: %+v, %v", res, err)
	}
}
