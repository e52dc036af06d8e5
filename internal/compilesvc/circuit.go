package compilesvc

// The whole-circuit tail of a request: Algorithm 3 schedule assembly
// over the resolved entries, conformance validation, and the wire-format
// schedule with content-addressed waveform refs.

import (
	"fmt"

	"accqoc"
	"accqoc/internal/precompile"
	"accqoc/internal/pulse"
)

// assembleCircuit finishes one circuit request against the resolved
// entries: it assembles the schedule and validates it against the
// schedule invariants before answering.
func assembleCircuit(c *call, plan *accqoc.GroupPlan, resp *CompileResponse, entries map[string]*precompile.Entry) (*CircuitResponse, error) {
	tr := c.req.Trace
	sp := tr.StartSpan("assemble")
	dev := c.req.NS.Comp.Options().Device
	sched, err := accqoc.AssembleSchedule(&accqoc.CompileResult{GroupPlan: plan}, entries, dev.Calibration)
	if err != nil {
		return nil, err
	}
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
	finalizeResponse(resp, plan.DAG, dev, sched.MakespanNs, c.begin)
	esp.End()

	out := &CircuitResponse{
		Compile:    *resp,
		MakespanNs: sched.MakespanNs,
		Schedule:   make([]ScheduledPulseWire, 0, len(sched.Pulses)),
	}
	for _, sp := range sched.Pulses {
		slot := ScheduledPulseWire{
			Group:      sp.Group,
			Qubits:     sp.Qubits,
			StartNs:    sp.StartNs,
			DurationNs: sp.DurationNs,
			Mirrored:   sp.Mirrored,
		}
		if sp.Entry != nil {
			slot.Waveform = WaveformRef(sp.Entry)
			if c.req.Waveforms {
				if out.Waveforms == nil {
					out.Waveforms = map[string]*pulse.Pulse{}
				}
				out.Waveforms[slot.Waveform] = sp.Entry.Pulse
			}
		}
		out.Schedule = append(out.Schedule, slot)
	}
	return out, nil
}
