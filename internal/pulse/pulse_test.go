package pulse

import (
	"encoding/json"
	"math"
	"testing"
)

func ramp(segments int) *Pulse {
	p := New([]string{"x", "y"}, segments, 2)
	for s := 0; s < segments; s++ {
		p.Amps[0][s] = float64(s)
		p.Amps[1][s] = -float64(s)
	}
	return p
}

func TestShapeAndDuration(t *testing.T) {
	p := New([]string{"x", "y"}, 10, 2.5)
	if p.Channels() != 2 || p.Segments() != 10 {
		t.Fatalf("shape %dx%d", p.Channels(), p.Segments())
	}
	if p.Duration() != 25 {
		t.Fatalf("Duration = %v", p.Duration())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadPulses(t *testing.T) {
	p := New([]string{"x"}, 4, 1)
	p.Dt = 0
	if err := p.Validate(); err == nil {
		t.Fatal("zero dt accepted")
	}
	q := New([]string{"x", "y"}, 4, 1)
	q.Amps[1] = q.Amps[1][:2]
	if err := q.Validate(); err == nil {
		t.Fatal("ragged channels accepted")
	}
	for _, dt := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := New([]string{"x"}, 4, dt)
		if err := r.Validate(); err == nil {
			t.Errorf("dt %v accepted", dt)
		}
	}
	for _, a := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := New([]string{"x", "y"}, 4, 1)
		r.Amps[1][3] = a
		if err := r.Validate(); err == nil {
			t.Errorf("amplitude %v accepted", a)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	p := ramp(4)
	q := p.Clone()
	q.Amps[0][0] = 99
	if p.Amps[0][0] == 99 {
		t.Fatal("Clone aliases amplitudes")
	}
}

func TestClipAndMaxAbs(t *testing.T) {
	p := ramp(5) // amplitudes 0..4
	if p.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", p.MaxAbs())
	}
	n := p.Clip(2.5)
	if n != 4 { // samples 3,4 on both channels
		t.Fatalf("clipped %d samples, want 4", n)
	}
	if p.MaxAbs() != 2.5 {
		t.Fatalf("MaxAbs after clip = %v", p.MaxAbs())
	}
}

func TestResamplePreservesConstant(t *testing.T) {
	p := New([]string{"x"}, 8, 1)
	for s := range p.Amps[0] {
		p.Amps[0][s] = 0.7
	}
	q := p.Resample(20, 0.4)
	if q.Segments() != 20 || q.Dt != 0.4 {
		t.Fatal("resample shape wrong")
	}
	for _, a := range q.Amps[0] {
		if math.Abs(a-0.7) > 1e-12 {
			t.Fatalf("constant pulse distorted: %v", a)
		}
	}
}

func TestResampleRampEndpoints(t *testing.T) {
	p := ramp(10)
	q := p.Resample(5, 4)
	// A downsampled ramp stays monotone.
	for s := 1; s < q.Segments(); s++ {
		if q.Amps[0][s] < q.Amps[0][s-1] {
			t.Fatal("resampled ramp not monotone")
		}
	}
	if q.Duration() != 20 {
		t.Fatalf("resampled duration = %v", q.Duration())
	}
}

func TestResampleEmpty(t *testing.T) {
	p := New([]string{"x"}, 0, 1)
	q := p.Resample(4, 1)
	for _, a := range q.Amps[0] {
		if a != 0 {
			t.Fatal("resampling an empty pulse should yield zeros")
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := ramp(4)
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var q Pulse
	if err := json.Unmarshal(data, &q); err != nil {
		t.Fatal(err)
	}
	if q.Segments() != 4 || q.Channels() != 2 || q.Dt != 2 {
		t.Fatalf("round trip shape: %+v", q)
	}
	if q.Amps[0][3] != 3 {
		t.Fatal("round trip content")
	}
}

func TestJSONRejectsInvalid(t *testing.T) {
	var q Pulse
	if err := json.Unmarshal([]byte(`{"labels":["x"],"amps":[[1,2]],"dt_ns":0}`), &q); err == nil {
		t.Fatal("invalid pulse decoded without error")
	}
}
