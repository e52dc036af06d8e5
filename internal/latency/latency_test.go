package latency

import (
	"math"
	"testing"

	"accqoc/internal/circuit"
	"accqoc/internal/gate"
	"accqoc/internal/grouping"
)

func divide(t *testing.T, c *circuit.Circuit, maxLayers int) *grouping.Grouping {
	t.Helper()
	gr, err := grouping.Divide(c, grouping.Policy{Name: "t", MaxQubits: 2, MaxLayers: maxLayers})
	if err != nil {
		t.Fatal(err)
	}
	return gr
}

func TestOverallGroupsChain(t *testing.T) {
	// Three sequential chunks on one qubit: latencies add up.
	c := circuit.New(1)
	for i := 0; i < 6; i++ {
		c.MustAppend(gate.T, []int{0})
	}
	gr := divide(t, c, 2) // 3 chunks
	_, got, err := Schedule(gr, []float64{10, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if got != 30 {
		t.Fatalf("chain latency = %v, want 30", got)
	}
}

func TestOverallGroupsParallelBranches(t *testing.T) {
	// Independent work on two disjoint qubit pairs: latency is the max.
	c := circuit.New(4)
	c.MustAppend(gate.CX, []int{0, 1})
	c.MustAppend(gate.CX, []int{2, 3})
	gr := divide(t, c, 4)
	if len(gr.Groups) != 2 {
		t.Fatalf("expected 2 groups, got %d", len(gr.Groups))
	}
	lat := []float64{100, 250}
	_, got, err := Schedule(gr, lat)
	if err != nil {
		t.Fatal(err)
	}
	if got != 250 {
		t.Fatalf("parallel latency = %v, want 250", got)
	}
}

func TestOverallGroupsDiamond(t *testing.T) {
	// CX(0,1); then parallel single-qubit work on 0 and 1; then CX(0,1):
	// the middle groups overlap.
	c := circuit.New(2)
	c.MustAppend(gate.CX, []int{0, 1})
	// interleave a foreign wire to force group splits
	gr, err := grouping.Divide(c, grouping.Policy{Name: "t", MaxQubits: 2, MaxLayers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := Schedule(gr, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("single group latency = %v", got)
	}
}

func TestOverallGroupsErrorPropagation(t *testing.T) {
	c := circuit.New(1)
	c.MustAppend(gate.T, []int{0})
	gr := divide(t, c, 2)
	if _, _, err := Schedule(gr, []float64{-1}); err == nil {
		t.Fatal("negative latency accepted")
	}
}

func TestScheduleRejectsNegativeLatency(t *testing.T) {
	c := circuit.New(1)
	for i := 0; i < 4; i++ {
		c.MustAppend(gate.T, []int{0})
	}
	gr := divide(t, c, 2) // two chunks of 2 gates
	lat := []float64{7, -1}
	if _, _, err := Schedule(gr, lat); err == nil {
		t.Fatal("Schedule accepted a negative latency")
	}
}

func TestOverallGatesCriticalPath(t *testing.T) {
	// q0: A(10) → C(30) with q1: B(20) feeding C: critical path = 20+30.
	c := circuit.New(2)
	c.MustAppend(gate.X, []int{0})     // 10
	c.MustAppend(gate.X, []int{1})     // 20
	c.MustAppend(gate.CX, []int{0, 1}) // 30
	lat := []float64{10, 20, 30}
	got := OverallGates(circuit.BuildDAG(c), func(g int) float64 { return lat[g] })
	if got != 50 {
		t.Fatalf("critical path = %v, want 50", got)
	}
}

func TestScheduleStartTimes(t *testing.T) {
	c := circuit.New(1)
	for i := 0; i < 4; i++ {
		c.MustAppend(gate.T, []int{0})
	}
	gr := divide(t, c, 2) // two chunks of 2 gates
	starts, overall, err := Schedule(gr, []float64{7, 7})
	if err != nil {
		t.Fatal(err)
	}
	if overall != 14 {
		t.Fatalf("overall = %v", overall)
	}
	if math.Abs(starts[0]-0) > 1e-12 || math.Abs(starts[1]-7) > 1e-12 {
		t.Fatalf("starts = %v", starts)
	}
}

func TestEmptyGrouping(t *testing.T) {
	gr := divide(t, circuit.New(2), 2)
	_, got, err := Schedule(gr, nil)
	if err != nil || got != 0 {
		t.Fatalf("empty = %v, %v", got, err)
	}
}
