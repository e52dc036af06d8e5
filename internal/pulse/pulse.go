// Package pulse represents piecewise-constant control pulses — the output
// artifact of QOC compilation — with concatenation, resampling (the warm-
// start transport between groups of different durations), clipping and JSON
// serialization for pulse libraries.
package pulse

import (
	"encoding/json"
	"fmt"
	"math"
)

// Pulse is a piecewise-constant multi-channel waveform. Amps[c][s] is the
// amplitude of control channel c during segment s; every segment lasts Dt
// nanoseconds.
type Pulse struct {
	Labels []string    `json:"labels"`
	Amps   [][]float64 `json:"amps"`
	Dt     float64     `json:"dt_ns"`
}

// New allocates a zero pulse with the given channel labels and segment
// count.
func New(labels []string, segments int, dt float64) *Pulse {
	amps := make([][]float64, len(labels))
	for i := range amps {
		amps[i] = make([]float64, segments)
	}
	return &Pulse{Labels: append([]string(nil), labels...), Amps: amps, Dt: dt}
}

// Channels returns the number of control channels.
func (p *Pulse) Channels() int { return len(p.Amps) }

// Segments returns the number of time slices.
func (p *Pulse) Segments() int {
	if len(p.Amps) == 0 {
		return 0
	}
	return len(p.Amps[0])
}

// Duration returns the pulse length in nanoseconds.
func (p *Pulse) Duration() float64 { return p.Dt * float64(p.Segments()) }

// Clone returns a deep copy.
func (p *Pulse) Clone() *Pulse {
	out := New(p.Labels, p.Segments(), p.Dt)
	for c := range p.Amps {
		copy(out.Amps[c], p.Amps[c])
	}
	return out
}

// Validate checks rectangular shape, a positive finite time step and
// finite amplitudes.
func (p *Pulse) Validate() error {
	if !(p.Dt > 0) || math.IsInf(p.Dt, 1) {
		return fmt.Errorf("pulse: dt %v is not positive and finite", p.Dt)
	}
	if len(p.Amps) != len(p.Labels) {
		return fmt.Errorf("pulse: %d channels vs %d labels", len(p.Amps), len(p.Labels))
	}
	for c, ch := range p.Amps {
		if len(ch) != len(p.Amps[0]) {
			return fmt.Errorf("pulse: ragged channel %d: %d segments vs %d", c, len(ch), len(p.Amps[0]))
		}
		for s, a := range ch {
			if math.IsNaN(a) || math.IsInf(a, 0) {
				return fmt.Errorf("pulse: channel %d segment %d amplitude %v is not finite", c, s, a)
			}
		}
	}
	return nil
}

// MaxAbs returns the largest absolute amplitude across all channels.
func (p *Pulse) MaxAbs() float64 {
	var m float64
	for _, ch := range p.Amps {
		for _, a := range ch {
			if ab := math.Abs(a); ab > m {
				m = ab
			}
		}
	}
	return m
}

// Clip limits every amplitude to [−bound, bound] in place and returns the
// number of clipped samples.
func (p *Pulse) Clip(bound float64) int {
	n := 0
	for _, ch := range p.Amps {
		for i, a := range ch {
			switch {
			case a > bound:
				ch[i] = bound
				n++
			case a < -bound:
				ch[i] = -bound
				n++
			}
		}
	}
	return n
}

// Resample returns a pulse with the requested segment count and time step
// whose waveform linearly interpolates this pulse's samples (segment
// midpoints). This is how a trained pulse seeds a group with a different
// latency (warm start across binary-search durations).
func (p *Pulse) Resample(segments int, dt float64) *Pulse {
	out := New(p.Labels, segments, dt)
	src := p.Segments()
	if src == 0 || segments == 0 {
		return out
	}
	for c := range p.Amps {
		for s := 0; s < segments; s++ {
			// Midpoint position of the new segment in [0, 1).
			pos := (float64(s) + 0.5) / float64(segments)
			x := pos*float64(src) - 0.5
			i0 := int(math.Floor(x))
			frac := x - float64(i0)
			i1 := i0 + 1
			if i0 < 0 {
				i0, i1, frac = 0, 0, 0
			}
			if i1 >= src {
				i0, i1, frac = src-1, src-1, 0
			}
			out.Amps[c][s] = p.Amps[c][i0]*(1-frac) + p.Amps[c][i1]*frac
		}
	}
	return out
}

// MarshalJSON/UnmarshalJSON use the natural field encoding; Pulse is a
// plain data holder, so the default marshaling applies. These methods exist
// only to validate on decode.
func (p *Pulse) UnmarshalJSON(data []byte) error {
	type alias Pulse
	var a alias
	if err := json.Unmarshal(data, &a); err != nil {
		return err
	}
	*p = Pulse(a)
	return p.Validate()
}
