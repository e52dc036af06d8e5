package crosstalk

import (
	"math"
	"math/rand"
	"testing"

	"accqoc/internal/circuit"
	"accqoc/internal/gate"
	"accqoc/internal/topology"
)

func TestMetricCountsClosePairs(t *testing.T) {
	dev := topology.Linear(6)
	// Two CX in the same layer on adjacent couplings (0,1) and (2,3):
	// edge distance 1 → one close pair.
	c := circuit.New(6)
	c.MustAppend(gate.CX, []int{0, 1})
	c.MustAppend(gate.CX, []int{2, 3})
	if got := Metric(c, dev); got != 1 {
		t.Fatalf("Metric = %d, want 1", got)
	}
	// Far couplings (0,1) and (4,5): edge distance 3 → no close pair.
	far := circuit.New(6)
	far.MustAppend(gate.CX, []int{0, 1})
	far.MustAppend(gate.CX, []int{4, 5})
	if got := Metric(far, dev); got != 0 {
		t.Fatalf("Metric(far) = %d, want 0", got)
	}
}

func TestMetricRespectsLayers(t *testing.T) {
	dev := topology.Linear(4)
	// Sequential CXs on overlapping qubits are in different layers → no
	// concurrency → no crosstalk.
	c := circuit.New(4)
	c.MustAppend(gate.CX, []int{0, 1})
	c.MustAppend(gate.CX, []int{1, 2})
	if got := Metric(c, dev); got != 0 {
		t.Fatalf("sequential gates counted as concurrent: %d", got)
	}
}

func TestPerLayer(t *testing.T) {
	dev := topology.Linear(6)
	c := circuit.New(6)
	c.MustAppend(gate.CX, []int{0, 1}) // layer 0
	c.MustAppend(gate.CX, []int{2, 3}) // layer 0 (close to above)
	c.MustAppend(gate.CX, []int{0, 1}) // layer 1
	per := PerLayer(c, dev)
	if len(per) != 2 || per[0] != 1 || per[1] != 0 {
		t.Fatalf("PerLayer = %v", per)
	}
}

func TestSingleQubitGatesIgnored(t *testing.T) {
	dev := topology.Linear(4)
	c := circuit.New(4)
	c.MustAppend(gate.H, []int{0})
	c.MustAppend(gate.H, []int{1})
	c.MustAppend(gate.CX, []int{2, 3})
	if Metric(c, dev) != 0 {
		t.Fatal("single-qubit gates should not contribute")
	}
}

func TestPairErrorModelDeterministicAndInflated(t *testing.T) {
	dev := topology.Melbourne()
	m := NewPairErrorModel(dev)
	e1 := m.BaselineError(0, 1)
	e2 := m.BaselineError(1, 0)
	if e1 != e2 {
		t.Fatal("baseline error must be order-invariant")
	}
	if e1 != m.BaselineError(0, 1) {
		t.Fatal("baseline error must be deterministic")
	}
	if got := m.CrosstalkError(0, 1); math.Abs(got-e1*InflationFactor) > 1e-15 {
		t.Fatal("crosstalk error must be inflated by InflationFactor")
	}
	// Error rates stay in a plausible range around the calibrated mean.
	cal := dev.Calibration.CXError
	if e1 < 0.5*cal || e1 > 1.5*cal {
		t.Fatalf("baseline error %v implausible vs mean %v", e1, cal)
	}
}

func TestFigure5Rows(t *testing.T) {
	dev := topology.Melbourne()
	rows := Figure5(dev, 6)
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	var ratioSum float64
	for _, r := range rows {
		if r.Crosstalk <= r.Isolated {
			t.Fatalf("pair %v: crosstalk %v not above isolated %v", r.Pair, r.Crosstalk, r.Isolated)
		}
		ratioSum += r.Crosstalk / r.Isolated
	}
	avg := ratioSum / float64(len(rows))
	if math.Abs(avg-1.20) > 1e-9 {
		t.Fatalf("average inflation = %v, want 1.20 (paper: +20%%)", avg)
	}
}

func TestFigure5ClampsPairCount(t *testing.T) {
	dev := topology.Linear(3)
	rows := Figure5(dev, 99)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 (device has 2 couplings)", len(rows))
	}
}

func TestProgramFidelity(t *testing.T) {
	dev := topology.Melbourne()
	c := circuit.New(14)
	c.MustAppend(gate.CX, []int{0, 1})
	f1 := ProgramFidelity(c, dev, 1000)
	if f1 <= 0 || f1 >= 1 {
		t.Fatalf("fidelity %v out of range", f1)
	}
	// Adding a concurrent close CX must reduce fidelity more than its own
	// isolated error would (crosstalk inflation).
	c2 := circuit.New(14)
	c2.MustAppend(gate.CX, []int{0, 1})
	c2.MustAppend(gate.CX, []int{2, 3})
	f2 := ProgramFidelity(c2, dev, 1000)
	if f2 >= f1 {
		t.Fatal("two crosstalking CXs should have lower fidelity than one")
	}
	// Longer latency decays fidelity.
	f3 := ProgramFidelity(c, dev, 50000)
	if f3 >= f1 {
		t.Fatal("longer latency should reduce fidelity")
	}
}

// referenceFidelity is the reference model of ProgramFidelity: a fresh
// BaselineError for every two-qubit gate and a fresh CrosstalkError for
// every crosstalking one.
func referenceFidelity(c *circuit.Circuit, dev *topology.Device, latencyNs float64) float64 {
	cal := dev.Calibration
	m := NewPairErrorModel(dev)
	dag := circuit.BuildDAG(c)

	fidelity := 1.0
	for _, layer := range dag.Layers() {
		edges := layerCXEdges(nil, c, layer)
		for _, gi := range layer {
			g := c.Gates[gi]
			if len(g.Qubits) != 2 {
				fidelity *= 1 - cal.Gate1QError
				continue
			}
			self := topology.Edge{From: g.Qubits[0], To: g.Qubits[1]}
			err := m.BaselineError(self.From, self.To)
			for _, other := range edges {
				if other == self {
					continue
				}
				d := dev.EdgeDistance(self, other)
				if d >= 0 && d <= CloseDistance {
					err = m.CrosstalkError(self.From, self.To)
					break
				}
			}
			fidelity *= 1 - err
		}
	}
	decay := 1.0
	if cal.T1ns > 0 {
		decay = math.Exp(-latencyNs / cal.T1ns)
	}
	return fidelity * decay
}

// randomCircuit draws gates on any qubits of dev, coupled or not: single-
// qubit gates, CX and SWAP in both directions (so one coupling recurs in
// both orders), and CCX.
func randomCircuit(rng *rand.Rand, dev *topology.Device, gates int) *circuit.Circuit {
	n := dev.NumQubits
	c := circuit.New(n)
	edges := dev.UndirectedEdges()
	for i := 0; i < gates; i++ {
		switch r := rng.Intn(10); {
		case r < 3:
			c.MustAppend(gate.T, []int{rng.Intn(n)})
		case r < 8:
			e := edges[rng.Intn(len(edges))]
			if r == 7 {
				p := rng.Perm(n)
				e = topology.Edge{From: p[0], To: p[1]}
			}
			a, b := e.From, e.To
			if rng.Intn(2) == 0 {
				a, b = b, a
			}
			name := gate.CX
			if r == 6 {
				name = gate.Swap
			}
			c.MustAppend(name, []int{a, b})
		default:
			p := rng.Perm(n)
			c.MustAppend(gate.CCX, p[:3])
		}
	}
	return c
}

func TestProgramFidelityMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, dev := range []*topology.Device{topology.Melbourne(), topology.Grid(3, 3), topology.Linear(5)} {
		for trial := 0; trial < 200; trial++ {
			c := randomCircuit(rng, dev, 1+rng.Intn(300))
			latency := 1e5 * rng.Float64()
			got := ProgramFidelity(c, dev, latency)
			if want := referenceFidelity(c, dev, latency); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s trial %d: ProgramFidelity = %v, reference %v", dev.Name, trial, got, want)
			}
		}
	}
}

// BenchmarkProgramFidelity estimates the servebench pool's random-mix
// program mapped to Melbourne with swaps lowered, as the map2b4l serving
// path runs it.
func BenchmarkProgramFidelity(b *testing.B) {
	dev := topology.Melbourne()
	c := goldenPhysical(b, dev)["random_6_300_1/map"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ProgramFidelity(c, dev, 1e4)
	}
}
