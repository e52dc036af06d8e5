package server

// The async job API on the tier seam: POST /v1/compile?async=1 and
// POST /v1/circuits/compile?async=1 validate and route exactly like their
// synchronous twins, then hand the work to the training tier's Submit —
// where same-namespace submissions batch into one shared resolveGroups
// pass — and answer 202 Accepted with a job ID immediately. The job's
// lifecycle lives in the bounded store (internal/jobs): poll it on
// GET /v1/jobs/{id}, cancel it while still queued (or reap a finished
// record) with DELETE /v1/jobs/{id}. A full job store is the async path's
// admission control and answers 503 with a Retry-After hint, counted
// separately from sync queue rejections (rejected_async).

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"accqoc/internal/compilesvc"
	"accqoc/internal/jobs"
	"accqoc/internal/obs"
)

// AsyncAccepted is the 202 Accepted body of an async submission.
type AsyncAccepted struct {
	JobID string     `json:"job_id"`
	State jobs.State `json:"state"`
	// Poll is the job's status URL (also sent as the Location header).
	Poll string `json:"poll"`
}

// wantsAsync reports whether the request opted into the async job API.
func wantsAsync(r *http.Request) bool {
	switch r.URL.Query().Get("async") {
	case "1", "true":
		return true
	}
	return false
}

// dispatchAsync is the asynchronous twin of dispatch: same ingest and
// device routing, but the work is submitted to the training tier with
// job-lifecycle callbacks instead of blocking the handler. The namespace
// reference is held until the job's work completes (done) or is vetoed
// by cancellation (start), never by the handler itself.
func (s *Server) dispatchAsync(w http.ResponseWriter, r *http.Request, req CompileRequest, circuit, waveforms bool) {
	prog, ns := s.admit(w, r, req)
	if ns == nil {
		return
	}
	kind, endpoint := "compile", "/v1/compile"
	if circuit {
		kind, endpoint = "circuit", "/v1/circuits/compile"
	}
	job, err := s.jobStore.Create(kind, req.Device)
	if err != nil {
		ns.Release()
		s.rejectedAsync.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	id := job.ID

	// The job gets its own pipeline trace keyed by the job ID — the HTTP
	// middleware's trace covers only the 202 submission. It is filed to
	// the flight recorder when the job completes, spans batch_wait and
	// queue included.
	tr := obs.NewTrace(id, endpoint+"?async=1")
	tr.SetMeta(ns.DeviceName, ns.Epoch, prog.NumQubits, prog.GateCount())

	begin := time.Now()
	device := req.Device
	creq := &compilesvc.Request{Prog: prog, NS: ns, Circuit: circuit, Waveforms: waveforms, Trace: tr}
	start := func() bool {
		if !s.jobStore.Start(id) {
			// Canceled while queued: the veto means no other callback runs
			// for this job, so the namespace reference is ours to drop.
			ns.Release()
			return false
		}
		return true
	}
	done := func(res *compilesvc.Result, derr error) {
		defer ns.Release()
		if derr != nil {
			if !errors.Is(derr, compilesvc.ErrClosed) {
				// The pipeline ran and failed; shutdown fails never ran.
				s.observeCompile(ns.DeviceName, time.Since(begin))
				s.failures.Add(1)
			}
			s.jobStore.Fail(id, derr.Error())
			s.recordJobTrace(tr, http.StatusInternalServerError, derr.Error())
			return
		}
		var payload any
		var millis float64
		if circuit {
			res.Circ.Compile.Device = device
			payload, millis = res.Circ, res.Circ.Compile.CompileMillis
		} else {
			res.Resp.Device = device
			payload, millis = res.Resp, res.Resp.CompileMillis
		}
		s.observeCompile(ns.DeviceName, time.Since(begin))
		s.compileNs.Add(int64(millis * float64(time.Millisecond)))
		if ferr := s.jobStore.Finish(id, payload); ferr != nil {
			s.failures.Add(1)
			s.recordJobTrace(tr, http.StatusInternalServerError, ferr.Error())
			return
		}
		s.recordJobTrace(tr, http.StatusOK, "")
	}
	if serr := s.svc.Submit(creq, start, done); serr != nil {
		// The job ID never reached the client; drop the record entirely.
		s.jobStore.Discard(id)
		ns.Release()
		s.rejectedAsync.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, serr)
		return
	}
	poll := "/v1/jobs/" + id
	w.Header().Set("Location", poll)
	writeJSON(w, http.StatusAccepted, AsyncAccepted{JobID: id, State: jobs.StateQueued, Poll: poll})
}

// recordJobTrace finishes an async job's pipeline trace and files it to
// the flight recorder.
func (s *Server) recordJobTrace(tr *obs.Trace, code int, errMsg string) {
	tr.Finish(code, errMsg)
	s.obs.recorder.Record(tr)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobStore.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.jobStore.Cancel(id) {
		// Canceled while queued: the record (now failed, "canceled") stays
		// pollable until its TTL so the client sees the outcome.
		j, _ := s.jobStore.Get(id)
		writeJSON(w, http.StatusOK, j)
		return
	}
	if s.jobStore.Delete(id) {
		writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
		return
	}
	if _, ok := s.jobStore.Get(id); !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	// Still running: the training is underway and warms the shared
	// library either way; poll until it finishes.
	writeError(w, http.StatusConflict, fmt.Errorf("job %s is running", id))
}
