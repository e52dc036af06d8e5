package server

// The cost-and-usage surface: GET /v1/library/usage (per-device top-N
// cost report, co-occurrence pairs, eviction regret), GET /debug/costs
// (the full multi-device ledger dump next to /debug/requests), and the
// accqoc_usage_* metric families. All of it reads the per-device
// usage.Ledger owned by the device registry; nothing here feeds back into
// serving decisions.

import (
	"fmt"
	"net/http"
	"strconv"

	"accqoc/internal/compilesvc"
	"accqoc/internal/devreg"
	"accqoc/internal/libstore"
	"accqoc/internal/obs"
	"accqoc/internal/usage"
)

// usageDefaultTopN bounds the /v1/library/usage report when no ?n= is
// given; usageMaxTopN caps an explicit one.
const (
	usageDefaultTopN = 20
	usageMaxTopN     = 1000
)

// UsageResponse is the GET /v1/library/usage body: one device's cost
// report (top entries by iterations×hits, co-occurrence pairs, regret
// totals) stamped with the device it describes.
type UsageResponse struct {
	Device string `json:"device"`
	usage.Report
	// EvictPolicy reports the device's cost-aware eviction policy
	// counters; absent under the default LRU policy.
	EvictPolicy *libstore.PolicyStats `json:"evict_policy,omitempty"`
	// Prefetch reports the device's speculative-training counters; absent
	// unless prefetch is enabled.
	Prefetch *compilesvc.PrefetchStats `json:"prefetch,omitempty"`
}

// fillPolicy attaches the policy-half blocks (eviction counters,
// prefetch counters) for a device; both stay nil — and off the wire —
// under default flags.
func (s *Server) fillPolicy(resp *UsageResponse, device string) {
	if pol, _ := s.registry.EvictionPolicy(device); pol != nil {
		st := pol.Stats()
		resp.EvictPolicy = &st
	}
	if s.prefetcher != nil {
		st := s.prefetcher.StatsFor(resp.Device)
		resp.Prefetch = &st
	}
}

func (s *Server) handleUsage(w http.ResponseWriter, r *http.Request) {
	device := r.URL.Query().Get("device")
	n := usageDefaultTopN
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid n %q", raw))
			return
		}
		if v > usageMaxTopN {
			v = usageMaxTopN
		}
		n = v
	}
	ledger, err := s.registry.UsageLedger(device)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if device == "" {
		device = s.registry.DefaultName()
	}
	resp := UsageResponse{Device: device, Report: ledger.Report(n)}
	s.fillPolicy(&resp, device)
	writeJSON(w, http.StatusOK, resp)
}

// DebugCostsResponse is the GET /debug/costs body: every device's full
// ledger report, in registration order.
type DebugCostsResponse struct {
	Devices []UsageResponse `json:"devices"`
}

func (s *Server) handleDebugCosts(w http.ResponseWriter, r *http.Request) {
	out := DebugCostsResponse{Devices: []UsageResponse{}}
	for _, name := range s.registry.Names() {
		ledger, err := s.registry.UsageLedger(name)
		if err != nil {
			continue
		}
		resp := UsageResponse{Device: name, Report: ledger.Report(usageMaxTopN)}
		s.fillPolicy(&resp, name)
		out.Devices = append(out.Devices, resp)
	}
	writeJSON(w, http.StatusOK, out)
}

// registerUsageCollectors installs the accqoc_usage_* scrape-time
// families. Like the store collectors these read external counters only
// when /metrics is scraped; one ledger Stats() per device per family.
func (s *Server) registerUsageCollectors() {
	r := s.obs.reg
	dev := []string{"device"}
	perDevice := func(emit func(obs.Emit, string, usage.Stats)) func(obs.Emit) {
		return func(e obs.Emit) {
			for _, name := range s.registry.Names() {
				ledger, err := s.registry.UsageLedger(name)
				if err != nil {
					continue
				}
				emit(e, name, ledger.Stats())
			}
		}
	}
	counter := func(name, help string, get func(usage.Stats) float64) {
		r.CollectCounters(name, help, dev, perDevice(func(e obs.Emit, d string, st usage.Stats) {
			e(get(st), d)
		}))
	}
	gauge := func(name, help string, get func(usage.Stats) float64) {
		r.CollectGauges(name, help, dev, perDevice(func(e obs.Emit, d string, st usage.Stats) {
			e(get(st), d)
		}))
	}
	counter("accqoc_usage_requests_total", "Request/batch windows filed with the cost ledger, by device.",
		func(st usage.Stats) float64 { return float64(st.Requests) })
	gauge("accqoc_usage_tracked_keys", "Keys with accumulated cost history in the ledger, by device (epoch-stable).",
		func(st usage.Stats) float64 { return float64(st.TrackedKeys) })
	counter("accqoc_usage_training_iterations_total", "Observed GRAPE iterations accumulated by the cost ledger, by device.",
		func(st usage.Stats) float64 { return float64(st.Iterations) })
	counter("accqoc_usage_training_wall_seconds_total", "Observed training wall time accumulated by the cost ledger, by device.",
		func(st usage.Stats) float64 { return st.TrainWallSeconds })
	r.CollectCounters("accqoc_usage_trainings_total", "Trainings accounted by the cost ledger, by device and warm-start provenance.",
		[]string{"device", "seeded"}, perDevice(func(e obs.Emit, d string, st usage.Stats) {
			e(float64(st.Seeded), d, "true")
			e(float64(st.Cold), d, "false")
		}))
	counter("accqoc_usage_hits_total", "Per-entry lookup hits accumulated by the cost ledger, by device (snapshot-carried counts included).",
		func(st usage.Stats) float64 { return float64(st.Hits) })
	counter("accqoc_usage_regret_events_total", "Evicted entries requested again (one regret charge per eviction), by device.",
		func(st usage.Stats) float64 { return float64(st.RegretEvents) })
	counter("accqoc_usage_regret_iterations_total", "Training iterations whose product was evicted and then missed, by device.",
		func(st usage.Stats) float64 { return float64(st.RegretIterations) })
	counter("accqoc_usage_regret_wall_seconds_total", "Training wall time whose product was evicted and then missed, by device.",
		func(st usage.Stats) float64 { return st.RegretWallSecs })
	gauge("accqoc_usage_cooccurrence_pairs", "Distinct co-occurring key pairs tracked by the request-history miner, by device.",
		func(st usage.Stats) float64 { return float64(st.Pairs) })
	counter("accqoc_usage_cooccurrence_dropped_total", "Coldest pairs displaced at the pair-map cap (nonzero = pair counts are approximate), by device.",
		func(st usage.Stats) float64 { return float64(st.DroppedPairs) })
}

// registerPolicyCollectors installs the accqoc_evict_policy_* and
// accqoc_prefetch_* scrape-time families. Each family is registered only
// when its feature is on, so a default-flag /metrics exposition is
// byte-identical to the pre-policy server.
func (s *Server) registerPolicyCollectors() {
	r := s.obs.reg
	dev := []string{"device"}
	if s.cfg.CachePolicy == devreg.PolicyCostAware {
		perPolicy := func(emit func(obs.Emit, string, libstore.PolicyStats)) func(obs.Emit) {
			return func(e obs.Emit) {
				for _, name := range s.registry.Names() {
					pol, err := s.registry.EvictionPolicy(name)
					if err != nil || pol == nil {
						continue
					}
					emit(e, name, pol.Stats())
				}
			}
		}
		r.CollectCounters("accqoc_evict_policy_cost_picks_total", "Evictions where the cost-aware policy moved the victim off the LRU tail, by device.",
			dev, perPolicy(func(e obs.Emit, d string, st libstore.PolicyStats) {
				e(float64(st.CostPicks), d)
			}))
		r.CollectCounters("accqoc_evict_policy_lru_fallbacks_total", "Evictions where scores tied (or were zero) and the policy fell back to LRU order, by device.",
			dev, perPolicy(func(e obs.Emit, d string, st libstore.PolicyStats) {
				e(float64(st.LRUFallbacks), d)
			}))
	}
	if s.prefetcher != nil {
		perPrefetch := func(emit func(obs.Emit, string, compilesvc.PrefetchStats)) func(obs.Emit) {
			return func(e obs.Emit) {
				for _, name := range s.registry.Names() {
					emit(e, name, s.prefetcher.StatsFor(name))
				}
			}
		}
		pcounter := func(name, help string, get func(compilesvc.PrefetchStats) float64) {
			r.CollectCounters(name, help, dev, perPrefetch(func(e obs.Emit, d string, st compilesvc.PrefetchStats) {
				e(get(st), d)
			}))
		}
		pcounter("accqoc_prefetch_predicted_total", "Ranked predictions examined by the speculative-training driver, by device.",
			func(st compilesvc.PrefetchStats) float64 { return float64(st.Predicted) })
		pcounter("accqoc_prefetch_no_target_total", "Predicted misses skipped for lack of a retained training target, by device.",
			func(st compilesvc.PrefetchStats) float64 { return float64(st.NoTarget) })
		pcounter("accqoc_prefetch_trained_total", "Speculative trainings completed during idle cycles, by device.",
			func(st compilesvc.PrefetchStats) float64 { return float64(st.Trained) })
		pcounter("accqoc_prefetch_seeded_total", "Speculative trainings that warm-started from the seed index, by device.",
			func(st compilesvc.PrefetchStats) float64 { return float64(st.Seeded) })
		pcounter("accqoc_prefetch_iterations_total", "GRAPE iterations spent on speculative trainings, by device.",
			func(st compilesvc.PrefetchStats) float64 { return float64(st.Iterations) })
		pcounter("accqoc_prefetch_skipped_total", "Speculative items already covered by execution time, by device.",
			func(st compilesvc.PrefetchStats) float64 { return float64(st.Skipped) })
		pcounter("accqoc_prefetch_abandoned_total", "Speculative items yielded to request traffic, by device.",
			func(st compilesvc.PrefetchStats) float64 { return float64(st.Abandoned) })
		pcounter("accqoc_prefetch_failed_total", "Speculative trainings that did not converge, by device.",
			func(st compilesvc.PrefetchStats) float64 { return float64(st.Failed) })
	}
}
