package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"accqoc/internal/compilesvc"
)

// This file is the circuit-level serving surface: POST /v1/circuits/compile
// accepts a whole QASM program (or workload spec) and returns the scheduled
// pulse program a control stack would hand to the waveform generators. The
// pipeline itself — Prepare, coverage/cold partition, MST-warm-started
// training, Algorithm 3 scheduling, conformance validation — lives in the
// training tier (internal/compilesvc); this handler ingests, routes, and
// writes the response.

// CircuitRequest is the POST /v1/circuits/compile body: the compile
// request fields (exactly one of qasm/workload, optional device routing)
// plus schedule-specific options.
type CircuitRequest struct {
	CompileRequest
	// IncludeWaveforms inlines the referenced waveforms in the response's
	// waveforms map (off by default: schedules reference waveforms by
	// stable content address, and warm traffic usually has them cached).
	IncludeWaveforms bool `json:"include_waveforms,omitempty"`
}

// ScheduledPulseWire is one slot of the scheduled pulse program; the
// alias preserves this package's wire surface across the tier split.
type ScheduledPulseWire = compilesvc.ScheduledPulseWire

// CircuitResponse is the POST /v1/circuits/compile body.
type CircuitResponse = compilesvc.CircuitResponse

func (s *Server) handleCircuits(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req CircuitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.failures.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return
	}
	if wantsAsync(r) {
		s.dispatchAsync(w, r, req.CompileRequest, true, req.IncludeWaveforms)
		return
	}
	res := s.dispatch(w, r, req.CompileRequest, true, req.IncludeWaveforms)
	if res == nil {
		return
	}
	// Echo the explicit device routing, exactly like the per-group path.
	res.Circ.Compile.Device = req.Device
	s.compileNs.Add(int64(res.Circ.Compile.CompileMillis * float64(time.Millisecond)))
	writeJSON(w, http.StatusOK, res.Circ)
}
