package main

// The traced run's per-layer attribution, over the same traffic as the
// untraced run, from three sources:
//
//   - The server's own pipeline spans (parse, queue, prepare, plan,
//     train, assemble, validate), matched to each request by its
//     X-Request-Id. With the handler time outside the spans (JSON decode,
//     routing, library hits, the usage ledger, the response's estimates,
//     waveform references and JSON encode) and the transport time outside
//     the handler, they sum to the client's round trip.
//   - The benchmark's own timings of what those spans lump together or
//     leave out: the JSON request decode and response encode, inside
//     prepare the mapping, grouping, crosstalk and key passes, and after
//     it the filing of the request's keys with the device's usage ledger,
//     the response's latency and fidelity estimates and its waveform
//     references. Each is re-run on the window's first requests with the
//     serving namespace's options, library and ledger; the ledger filing
//     runs once per request and keeps feeding the live ledger, as the
//     window's traffic did.
//   - GRAPE work per request, from the window's responses. Like every
//     figure here it covers the measured window only, never the library
//     build, so on the warm workload, whose window trains nothing, it is 0.
//
// The times are as measured, not scaled like the end-to-end ones; with
// them comes the reference kernel's mean time over the window
// (host_ref_ms, see host.go), by which runs on a busier or a quieter host
// can be compared.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"accqoc"
	"accqoc/internal/compilesvc"
	"accqoc/internal/crosstalk"
	"accqoc/internal/gatepulse"
	"accqoc/internal/grouping"
	"accqoc/internal/mapping"
	"accqoc/internal/obs"
	"accqoc/internal/precompile"
	"accqoc/internal/qasm"
	"accqoc/internal/server"
	"accqoc/internal/usage"
)

// serverStages are the pipeline spans the server records per request.
var serverStages = []string{"parse", "queue", "prepare", "plan", "train", "assemble", "validate"}

const (
	// frontEndReps is how often each request's front end is re-run; the
	// median run counts.
	frontEndReps = 3
	// maxGates is the server's default per-request gate budget.
	maxGates = 4096
)

// sink keeps the results of calls made only to be timed.
var sink int

func perLayer(m map[string]metric, inst *instance, win *window) error {
	traces, err := inst.traces()
	if err != nil {
		return err
	}
	byID := make(map[string]*obs.Trace, len(traces))
	for _, t := range traces {
		byID[t.ID] = t
	}
	stage := map[string]float64{}
	var rtt, handler, matched float64
	var iters, trained, covered, groups, answered, ref float64
	for _, s := range win.samples {
		if s.err != nil {
			continue
		}
		answered++
		ref += ms(s.ref)
		iters += float64(s.iters)
		trained += float64(s.trained)
		covered += float64(s.covered)
		groups += float64(s.groups)
		t := byID[s.id]
		if t == nil {
			continue // older than the flight recorder holds
		}
		matched++
		rtt += ms(s.latency)
		handler += t.DurationMs
		for _, sp := range t.Spans {
			stage[sp.Name] += sp.DurationUs / 1e3
		}
	}
	if matched == 0 {
		return errors.New("no request matched a server trace")
	}
	var named float64
	for _, name := range serverStages {
		named += stage[name]
	}
	perRequest := func(v float64) metric { return metric{v / matched, "ms"} }
	m["transport_ms"] = perRequest(rtt - handler)
	m["handler_other_ms"] = perRequest(handler - named)
	m["parse_ms"] = perRequest(stage["parse"])
	m["queue_ms"] = perRequest(stage["queue"])
	m["prepare_ms"] = perRequest(stage["prepare"])
	m["plan_ms"] = perRequest(stage["plan"])
	m["train_ms"] = perRequest(stage["train"])
	m["assemble_ms"] = perRequest(stage["assemble"])
	m["validate_ms"] = perRequest(stage["validate"])
	m["attributed_share"] = metric{named / rtt, "ratio"}
	m["grape_iters_per_req"] = metric{iters / answered, "count"}
	m["trainings_per_req"] = metric{trained / answered, "count"}
	m["hit_rate"] = metric{covered / groups, "ratio"}
	m["host_ref_ms"] = metric{ref / answered, "ms"}

	fe, err := frontEnd(inst, win)
	if err != nil {
		return err
	}
	for name, v := range fe {
		m[name] = metric{v, "ms"}
	}
	return nil
}

// frontEnd times, from the benchmark's own calls, the layers the server's
// handler and prepare spans lump together, on the requests whose answers
// were kept, and returns per-request means in milliseconds.
func frontEnd(inst *instance, win *window) (map[string]float64, error) {
	ns, err := inst.srv.Registry().Current("")
	if err != nil {
		return nil, err
	}
	if ns.Usage == nil {
		return nil, errors.New("the server keeps no usage ledger")
	}
	opts := ns.Comp.Options()
	entries := ns.Store.Snapshot().Entries
	sums := map[string]float64{}
	n := 0
	for _, s := range win.samples {
		if s.resp == nil || s.err != nil {
			continue
		}
		t, err := timeFrontEnd(s.prog.body, s.resp, opts, entries, ns.Usage)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.prog.name, err)
		}
		for name, v := range t {
			sums[name] += v
		}
		n++
	}
	if n == 0 {
		return nil, errors.New("no answer was kept for the front-end timings")
	}
	for name := range sums {
		sums[name] /= float64(n)
	}
	return sums, nil
}

// timeFrontEnd runs one request's unspanned work the way the server does —
// decode the body, parse the QASM, decompose Toffolis and map with A*
// (lowering swaps), divide into groups, count crosstalk, build canonical
// keys, file the unique keys with the usage ledger; then, for the answer,
// estimate the gate-based latency and the program fidelity, reference
// each unique pulse by its content hash, and encode the answer — and
// returns each layer's median time.
func timeFrontEnd(body []byte, cr *server.CircuitResponse, opts accqoc.Options, entries map[string]*precompile.Entry, ledger *usage.Ledger) (map[string]float64, error) {
	runs := map[string][]float64{}
	lap := func(name string, begin time.Time) {
		runs[name] = append(runs[name], ms(time.Since(begin)))
	}
	for r := 0; r < frontEndReps; r++ {
		begin := time.Now()
		var req server.CircuitRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		lap("decode_ms", begin)
		prog, err := qasm.ParseBudget(req.QASM, maxGates)
		if err != nil {
			return nil, err
		}
		begin = time.Now()
		mapped, err := mapping.Map(prog.DecomposeCCX(), opts.Device, opts.Mapping)
		if err != nil {
			return nil, err
		}
		phys := mapped.Mapped
		if opts.Policy.DecomposeSwap {
			if phys, err = mapping.DecomposeSwaps(phys, opts.Device); err != nil {
				return nil, err
			}
		}
		lap("map_ms", begin)
		begin = time.Now()
		gr, err := grouping.Divide(phys, opts.Policy)
		if err != nil {
			return nil, err
		}
		lap("group_ms", begin)
		begin = time.Now()
		sink += crosstalk.Metric(phys, opts.Device)
		lap("crosstalk_ms", begin)
		begin = time.Now()
		keys, err := precompile.Keys(gr)
		if err != nil {
			return nil, err
		}
		uniq := grouping.DeduplicateKeyed(gr.Groups, keys)
		lap("keys_ms", begin)
		if r == 0 {
			// Filed once per request, as the server does: a repeat would
			// find the request's pairs already in the ledger.
			begin = time.Now()
			filed := make([]string, len(uniq))
			for i, u := range uniq {
				filed[i] = u.Key
			}
			ledger.RecordRequest(filed)
			lap("ledger_ms", begin)
		}
		begin = time.Now()
		sink += int(gatepulse.Overall(phys, opts.Device.Calibration))
		sink += int(1e6 * crosstalk.ProgramFidelity(phys, opts.Device, cr.MakespanNs))
		lap("estimate_ms", begin)
		begin = time.Now()
		refs := map[string]string{}
		for _, k := range keys {
			if e := entries[k]; e != nil && e.Pulse != nil && refs[k] == "" {
				refs[k] = compilesvc.WaveformRef(e)
			}
		}
		lap("waveform_refs_ms", begin)
		if len(refs) != len(uniq) {
			return nil, fmt.Errorf("the library holds pulses for %d of %d groups", len(refs), len(uniq))
		}
		begin = time.Now()
		if err := json.NewEncoder(io.Discard).Encode(cr); err != nil {
			return nil, err
		}
		lap("encode_ms", begin)
	}
	out := make(map[string]float64, len(runs))
	for name, v := range runs {
		sort.Float64s(v)
		out[name] = v[len(v)/2]
	}
	return out, nil
}
