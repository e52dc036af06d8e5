package compilesvc

// The whole-circuit pipeline: Prepare, coverage/cold partition,
// MST-warm-started training through the shared singleflight, Algorithm 3
// scheduling, and conformance validation. The assemble tail is shared
// between the synchronous path (compileCircuit) and the async batch path
// (runBatch), which resolves a union of groups once and assembles each
// job's schedule from the shared entries.

import (
	"fmt"
	"time"

	"accqoc"
	"accqoc/internal/circuit"
	"accqoc/internal/devreg"
	"accqoc/internal/obs"
	"accqoc/internal/precompile"
	"accqoc/internal/pulse"
)

// compileCircuit runs the whole-circuit pipeline for one namespace:
// plan (front end + canonical keys), resolve every unique group through
// the shared singleflight/MST machinery, assemble the schedule, and
// validate it against the schedule invariants before answering.
func (p *Pool) compileCircuit(prog *circuit.Circuit, ns *devreg.Namespace, inlineWaveforms bool, tr *obs.Trace) (*CircuitResponse, error) {
	begin := time.Now()
	sp := tr.StartSpan("prepare")
	plan, err := ns.Plan(prog)
	if err != nil {
		return nil, err
	}
	sp.End()
	gr := plan.Prepared.Grouping
	resp := &CompileResponse{
		Qubits:      prog.NumQubits,
		Gates:       prog.GateCount(),
		Epoch:       ns.Epoch,
		TotalGroups: len(gr.Groups),
	}
	entries := p.resolveGroups(ns, resp, plan.Unique, tr, nil)
	return assembleCircuit(plan, ns, resp, entries, inlineWaveforms, tr, begin)
}

// assembleCircuit is the schedule tail shared by the sync and batch
// circuit paths: Algorithm 3 assembly over the resolved entries,
// conformance validation, and the wire-format schedule with
// content-addressed waveform refs.
func assembleCircuit(plan *accqoc.GroupPlan, ns *devreg.Namespace, resp *CompileResponse, entries map[string]*precompile.Entry, inlineWaveforms bool, tr *obs.Trace, begin time.Time) (*CircuitResponse, error) {
	sp := tr.StartSpan("assemble")
	res := plan.Result()
	dev := ns.Comp.Options().Device
	sched, err := accqoc.AssembleSchedule(res, dev.Calibration, func(key string) (*precompile.Entry, bool) {
		e, ok := entries[key]
		return e, ok
	})
	if err != nil {
		return nil, err
	}
	res.OverallLatencyNs = sched.MakespanNs
	sp.End()
	// Conformance oracle: a pulse program violating its own invariants
	// (dependency order, per-qubit exclusivity, two-sided makespan) must
	// never reach a waveform generator — fail the request instead.
	vsp := tr.StartSpan("validate")
	if verr := sched.Validate(); verr != nil {
		return nil, fmt.Errorf("scheduled pulse program failed conformance: %w", verr)
	}
	vsp.End()

	esp := tr.StartSpan("estimate")
	finalizeResponse(resp, plan.Prepared.Physical, dev, sched.MakespanNs, begin)
	esp.End()

	out := &CircuitResponse{
		Compile:    *resp,
		MakespanNs: sched.MakespanNs,
		Schedule:   make([]ScheduledPulseWire, 0, len(sched.Pulses)),
	}
	// refs dedups the hash work: one MarshalBinary+SHA-256 per unique
	// entry, however many occurrences reference it.
	refs := make(map[string]string, len(entries))
	for _, sp := range sched.Pulses {
		slot := ScheduledPulseWire{
			Group:      sp.Group,
			Qubits:     sp.Qubits,
			StartNs:    sp.StartNs,
			DurationNs: sp.DurationNs,
			Mirrored:   sp.Mirrored,
		}
		if e, eok := entries[sp.Key]; sp.Key != "" && eok && e.Pulse != nil {
			ref, cached := refs[sp.Key]
			if !cached {
				ref = WaveformRef(e)
				refs[sp.Key] = ref
			}
			slot.Waveform = ref
			if inlineWaveforms {
				if out.Waveforms == nil {
					out.Waveforms = map[string]*pulse.Pulse{}
				}
				out.Waveforms[ref] = e.Pulse
			}
		}
		out.Schedule = append(out.Schedule, slot)
	}
	return out, nil
}
