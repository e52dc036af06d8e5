package accqoc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"testing"

	"accqoc/internal/grouping"
	"accqoc/internal/precompile"
	"accqoc/internal/pulse"
	"accqoc/internal/topology"
)

// syntheticEntry is a deterministic library entry for key: a pulse whose
// every channel carries distinct amplitudes (so a mirrored slot's channel
// exchange shows in its bits) and whose duration varies with the key.
func syntheticEntry(key string, numQubits int) *precompile.Entry {
	sum := sha256.Sum256([]byte(key))
	labels := []string{"x0", "y0", "x1", "y1"}[:2*numQubits]
	segs := precompile.SegmentsFor(numQubits)
	p := pulse.New(labels, segs, 1+float64(sum[1]%8)/4)
	for c := range p.Amps {
		for s := range p.Amps[c] {
			p.Amps[c][s] = float64(c) + float64(int(sum[(7*c+s)%len(sum)])-128)/1000
		}
	}
	return &precompile.Entry{Key: key, NumQubits: numQubits, Pulse: p, LatencyNs: p.Duration()}
}

// syntheticLibrary covers a plan's unique keys with synthetic entries:
// every key when all is set, else about half of them (chosen by a key
// digest), so both entry prices and gate-based fallback prices appear.
func syntheticLibrary(plan *GroupPlan, all bool) map[string]*precompile.Entry {
	lib := make(map[string]*precompile.Entry, len(plan.Unique))
	for _, u := range plan.Unique {
		if sum := sha256.Sum256([]byte(u.Key)); all || sum[0]&1 == 0 {
			lib[u.Key] = syntheticEntry(u.Key, u.NumQubits)
		}
	}
	return lib
}

// resolvedTail runs the back end over a resolved plan: the scheduled
// pulse program, the latency-only path's makespan and the estimates.
func resolvedTail(tb testing.TB, plan *GroupPlan, lib map[string]*precompile.Entry, dev *topology.Device) (*Schedule, float64, Estimates) {
	tb.Helper()
	sched, err := AssembleSchedule(&CompileResult{GroupPlan: plan}, lib, dev.Calibration)
	if err != nil {
		tb.Fatal(err)
	}
	makespan, err := plan.Makespan(lib, dev.Calibration)
	if err != nil {
		tb.Fatal(err)
	}
	return sched, makespan, Estimate(plan.DAG, dev, makespan)
}

// TestGoldenBackEnd pins the back end over a resolved plan bit for bit:
// every slot's group, qubits, start and duration, key, mirrored flag and
// oriented pulse, then the schedule's makespan, the latency-only path's
// makespan, the gate-based latency, the reduction and the fidelity
// estimate. Programs are the §VI-A suite programs that fit Melbourne plus
// servebench's random-mix program, under map2b4l and swap2b4l, against a
// synthetic library covering about half of each plan's keys. The digests
// were recorded on amd64 before the back end was folded into one pricing
// pass; a change that claims the same output must reproduce them
// unedited.
func TestGoldenBackEnd(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64; %s may differ", runtime.GOARCH)
	}
	dev := topology.Melbourne()
	suite := []struct {
		pol    grouping.Policy
		digest string
	}{
		{grouping.Map2b4l, "b013b8f677047c9f2809672587aa6a265b89f88643df0d1dded3ebfa83193700"},
		{grouping.Swap2b4l, "e673c6bc5b7d8dd81c91918e1ad3b54162ce076b5e61059d8562e57382514f42"},
	}
	for _, w := range suite {
		c := New(Options{Device: dev, Policy: w.pol})
		h := sha256.New()
		var slots, mirrored, fallback int
		for _, p := range goldenPrograms(t, dev) {
			plan, err := c.PlanGroups(p.Circuit)
			if err != nil {
				t.Fatal(err)
			}
			sched, makespan, est := resolvedTail(t, plan, syntheticLibrary(plan, false), dev)
			if err := sched.Validate(); err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			for _, sp := range sched.Pulses {
				slots++
				if sp.Mirrored {
					mirrored++
				}
				if sp.Key == "" {
					fallback++
				}
				hashSlot(h, sp.Group, sp.Qubits, sp.StartNs, sp.DurationNs, sp.Key, sp.Mirrored, sp.Pulse())
			}
			hashFloats(h, sched.MakespanNs, makespan, est.GateBasedLatencyNs, est.LatencyReduction, est.EstimatedFidelity)
		}
		if mirrored == 0 || fallback == 0 || fallback == slots {
			t.Fatalf("%s: %d slots, %d mirrored, %d priced gate-based: the golden must see all three kinds",
				w.pol.Name, slots, mirrored, fallback)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != w.digest {
			t.Errorf("back end under %s: digest %s, want %s", w.pol.Name, got, w.digest)
		}
	}
}

func hashFloats(h hash.Hash, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// hashSlot feeds one schedule slot into h, its oriented pulse included.
func hashSlot(h hash.Hash, group int, qubits []int, start, duration float64, key string, mirrored bool, p *pulse.Pulse) {
	fmt.Fprintf(h, "slot %d %v %t %d:%s\n", group, qubits, mirrored, len(key), key)
	hashFloats(h, start, duration)
	if p == nil {
		h.Write([]byte("gate-based\n"))
		return
	}
	fmt.Fprintf(h, "%v\n", p.Labels)
	hashFloats(h, p.Dt)
	for _, ch := range p.Amps {
		hashFloats(h, ch...)
	}
}
