package main

import (
	"encoding/json"
	"testing"
	"time"
)

func TestParseDeviceMix(t *testing.T) {
	mix, err := parseDeviceMix("melbourne:0.7,linear5:0.3")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 2 || mix[0].name != "melbourne" || mix[0].weight != 0.7 ||
		mix[1].name != "linear5" || mix[1].weight != 0.3 {
		t.Fatalf("mix = %+v", mix)
	}
	// Bare names weight 1; whitespace tolerated.
	mix, err = parseDeviceMix(" melbourne , linear5:2 ")
	if err != nil {
		t.Fatal(err)
	}
	if mix[0].weight != 1 || mix[1].weight != 2 {
		t.Fatalf("mix = %+v", mix)
	}
	// Empty spec means "no mix" (default device), not an error.
	if mix, err := parseDeviceMix(""); err != nil || mix != nil {
		t.Fatalf("empty spec: %v %v", mix, err)
	}
	for _, bad := range []string{":0.5", "dev:0", "dev:-1", "dev:x", ","} {
		if _, err := parseDeviceMix(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestPercentile(t *testing.T) {
	if got := percentile(nil, 50); got != 0 {
		t.Fatalf("empty slice: %v", got)
	}
	one := []time.Duration{7 * time.Millisecond}
	for _, p := range []float64{0, 50, 99, 100} {
		if got := percentile(one, p); got != 7*time.Millisecond {
			t.Fatalf("single sample p%g = %v", p, got)
		}
	}
	// 1..100 ms: the p-th percentile interpolates to (1 + 0.99p) ms.
	var ladder []time.Duration
	for i := 1; i <= 100; i++ {
		ladder = append(ladder, time.Duration(i)*time.Millisecond)
	}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{0, 1 * time.Millisecond},
		{50, 50*time.Millisecond + 500*time.Microsecond},
		{95, 95*time.Millisecond + 50*time.Microsecond},
		{99, 99*time.Millisecond + 10*time.Microsecond},
		{100, 100 * time.Millisecond},
	}
	for _, c := range cases {
		got := percentile(ladder, c.p)
		if diff := got - c.want; diff < -time.Microsecond || diff > time.Microsecond {
			t.Errorf("p%g = %v, want %v", c.p, got, c.want)
		}
	}
	// p50/p95/p99 must not collapse to min/max (the bug this replaced:
	// printing p0/p100 as if they were tail percentiles).
	if percentile(ladder, 95) == ladder[len(ladder)-1] {
		t.Error("p95 equals max")
	}
	if percentile(ladder, 50) == ladder[0] {
		t.Error("p50 equals min")
	}
}

func TestClientSummaryJSONShape(t *testing.T) {
	// The -json report is what BENCH_*.json capture scripts parse: pin the
	// field names so a rename is a conscious break.
	raw, err := json.Marshal(clientSummary{
		Devices:    []deviceSummary{{Device: "melbourne"}},
		GroupSizes: []groupSizeSummary{{Size: 3, Slots: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"endpoint", "requests", "concurrency",
		"cold_wall_ms", "cold_compile_ms", "cold_coverage", "groups_trained",
		"warm_requests", "warm_failed", "warm_served", "warm_elapsed_ms",
		"warm_p50_ms", "warm_p95_ms", "warm_p99_ms",
		"devices", "library", "server", "group_sizes",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("summary JSON missing %q", key)
		}
	}
}

func TestAssignDevicesProportionsAndInterleave(t *testing.T) {
	mix, err := parseDeviceMix("a:0.7,b:0.3")
	if err != nil {
		t.Fatal(err)
	}
	got := assignDevices(mix, 10)
	counts := map[string]int{}
	for _, d := range got {
		counts[d]++
	}
	if counts["a"] != 7 || counts["b"] != 3 {
		t.Fatalf("assignment %v (counts %v), want 7:3", got, counts)
	}
	// Smooth WRR interleaves instead of producing two monolithic blocks:
	// "b" must appear before the last "a".
	firstB, lastA := -1, -1
	for i, d := range got {
		if d == "b" && firstB < 0 {
			firstB = i
		}
		if d == "a" {
			lastA = i
		}
	}
	if firstB < 0 || firstB > lastA {
		t.Fatalf("mix not interleaved: %v", got)
	}
	// Deterministic: two calls agree.
	again := assignDevices(mix, 10)
	for i := range got {
		if got[i] != again[i] {
			t.Fatal("assignment not deterministic")
		}
	}
	// No mix: everything routes to the default (empty) device.
	for _, d := range assignDevices(nil, 3) {
		if d != "" {
			t.Fatalf("no-mix assignment %q", d)
		}
	}
}

func TestGroupSizeSummaryJSONShape(t *testing.T) {
	raw, err := json.Marshal(groupSizeSummary{Size: 3, Slots: 2, TotalDurationNs: 5000, MeanDurationNs: 2500, MakespanShare: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"size", "slots", "total_duration_ns", "mean_duration_ns", "makespan_share"} {
		if _, ok := m[key]; !ok {
			t.Errorf("group size JSON missing %q", key)
		}
	}
}
