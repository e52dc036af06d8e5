package topology

import "testing"

func TestMelbourneShape(t *testing.T) {
	d := Melbourne()
	if d.NumQubits != 14 {
		t.Fatalf("NumQubits = %d", d.NumQubits)
	}
	if len(d.Edges) != 18 {
		t.Fatalf("directed edge count = %d, want 18", len(d.Edges))
	}
	// Spot-check the published coupling map.
	if !d.CXDirected(1, 0) {
		t.Fatal("CX 1→0 should be native")
	}
	if d.CXDirected(0, 1) {
		t.Fatal("CX 0→1 is not native on Melbourne")
	}
	if !d.Connected(0, 1) || !d.Connected(13, 12) {
		t.Fatal("adjacency wrong")
	}
	if d.Connected(0, 7) {
		t.Fatal("0 and 7 are not coupled")
	}
}

func TestMelbourneConnectedAndDistances(t *testing.T) {
	d := Melbourne()
	for a := 0; a < 14; a++ {
		for b := 0; b < 14; b++ {
			dd := d.Distance(a, b)
			if dd < 0 {
				t.Fatalf("device disconnected between %d and %d", a, b)
			}
			if (dd == 0) != (a == b) {
				t.Fatalf("Distance(%d,%d) = %d", a, b, dd)
			}
			if dd != d.Distance(b, a) {
				t.Fatal("distance not symmetric")
			}
		}
	}
	// Qubit 0 to qubit 7: along the two rows. 0-1-13-12-11-10-9-8-7 or
	// 0-1-2-3-4-5-6-8-7; both length 8. Verify triangle inequality instead
	// of an exact value for robustness, plus a known short pair.
	if d.Distance(0, 2) != 2 {
		t.Fatalf("Distance(0,2) = %d, want 2", d.Distance(0, 2))
	}
	for a := 0; a < 14; a++ {
		for b := 0; b < 14; b++ {
			for c := 0; c < 14; c++ {
				if d.Distance(a, c) > d.Distance(a, b)+d.Distance(b, c) {
					t.Fatal("triangle inequality violated")
				}
			}
		}
	}
}

func TestLinearDevice(t *testing.T) {
	d := Linear(5)
	if d.Distance(0, 4) != 4 {
		t.Fatalf("chain distance = %d", d.Distance(0, 4))
	}
	if !d.CXDirected(1, 2) || d.CXDirected(2, 1) {
		t.Fatal("chain direction wrong")
	}
	nbrs := d.Neighbors(2)
	if len(nbrs) != 2 || nbrs[0] != 1 || nbrs[1] != 3 {
		t.Fatalf("Neighbors(2) = %v", nbrs)
	}
}

func TestGridDevice(t *testing.T) {
	d := Grid(2, 3)
	if d.NumQubits != 6 {
		t.Fatal("grid size wrong")
	}
	if !d.CXDirected(0, 1) || !d.CXDirected(1, 0) {
		t.Fatal("grid should be bidirectional")
	}
	if d.Distance(0, 5) != 3 {
		t.Fatalf("grid distance = %d, want 3", d.Distance(0, 5))
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("bad", 2, []Edge{{0, 5}}, Calibration{}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if _, err := New("bad", 2, []Edge{{1, 1}}, Calibration{}); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestUndirectedEdges(t *testing.T) {
	d := Grid(2, 2)
	ue := d.UndirectedEdges()
	if len(ue) != 4 {
		t.Fatalf("2x2 grid has %d undirected edges, want 4", len(ue))
	}
	for _, e := range ue {
		if e.From >= e.To {
			t.Fatal("undirected edges must be normalized From<To")
		}
	}
}

func TestEdgeDistance(t *testing.T) {
	d := Linear(6)
	if got := d.EdgeDistance(Edge{0, 1}, Edge{1, 2}); got != 0 {
		t.Fatalf("shared-qubit edges distance = %d, want 0", got)
	}
	if got := d.EdgeDistance(Edge{0, 1}, Edge{2, 3}); got != 1 {
		t.Fatalf("adjacent edges distance = %d, want 1", got)
	}
	if got := d.EdgeDistance(Edge{0, 1}, Edge{4, 5}); got != 3 {
		t.Fatalf("far edges distance = %d, want 3", got)
	}
}

func TestMelbourneCalibrationValues(t *testing.T) {
	c := MelbourneCalibration()
	if c.T1ns != 57350 || c.T2ns != 61820 {
		t.Fatal("decoherence times do not match the paper §II-E")
	}
	if c.CXLatencyNs != 974.9 || c.CXError != 2.46e-2 {
		t.Fatal("CX calibration does not match the paper §II-E")
	}
}

func TestCalibrationDrift(t *testing.T) {
	base := MelbourneCalibration()
	d := base.Drift(2)
	checks := []struct{ got, want float64 }{
		{d.T1ns, base.T1ns * 1.02},
		{d.T2ns, base.T2ns * 1.02},
		{d.CXLatencyNs, base.CXLatencyNs * 1.02},
		{d.Gate1QLatencyNs, base.Gate1QLatencyNs * 1.02},
		{d.FrameLatencyNs, base.FrameLatencyNs * 1.02},
		{d.CXError, base.CXError * 1.02},
		{d.Gate1QError, base.Gate1QError * 1.02},
	}
	for i, c := range checks {
		if c.got != c.want {
			t.Errorf("field %d: drifted %v, want %v", i, c.got, c.want)
		}
	}
	// Negative drift speeds the device up; zero is identity.
	if Drifted := base.Drift(-2); Drifted.CXLatencyNs >= base.CXLatencyNs {
		t.Fatal("negative drift did not reduce the CX latency")
	}
	if base.Drift(0) != base {
		t.Fatal("zero drift changed the calibration")
	}
}

func TestWithCalibrationSharesTopology(t *testing.T) {
	d := Melbourne()
	cal := d.Calibration.Drift(5)
	nd := d.WithCalibration(cal)
	if nd == d {
		t.Fatal("WithCalibration returned the receiver")
	}
	if nd.Calibration != cal || d.Calibration == cal {
		t.Fatal("calibration not applied copy-on-write")
	}
	// Topology (and precomputed tables) are shared and identical.
	if nd.NumQubits != d.NumQubits || len(nd.Edges) != len(d.Edges) {
		t.Fatal("topology changed")
	}
	for q := 0; q < d.NumQubits; q++ {
		for p := 0; p < d.NumQubits; p++ {
			if nd.Distance(q, p) != d.Distance(q, p) {
				t.Fatal("distance table changed")
			}
		}
	}
}

func TestDisconnectedDistance(t *testing.T) {
	d, err := New("two-islands", 4, []Edge{{0, 1}, {2, 3}}, Calibration{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Distance(0, 3) != -1 {
		t.Fatal("expected -1 for disconnected qubits")
	}
	if d.EdgeDistance(Edge{0, 1}, Edge{2, 3}) != -1 {
		t.Fatal("expected -1 for disconnected edges")
	}
}

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		spec   string
		qubits int // 0: the spec is rejected
	}{
		{"melbourne", 14},
		{"linear5", 5},
		{"linear2", 2},
		{"grid2x3", 6},
		{"grid1x1", 1},
		{"linear5x", 0},
		{"grid2x3abc", 0},
		{"grid2x3x4", 0},
		{"linear1", 0},
		{"linear", 0},
		{"linear+5", 0},
		{"linear 5", 0},
		{"grid0x3", 0},
		{"grid2x", 0},
		{"grid2", 0},
		{"melbourne2", 0},
		{"Melbourne", 0},
		{"", 0},
	} {
		d, err := Parse(tc.spec)
		switch {
		case tc.qubits == 0 && err == nil:
			t.Errorf("Parse(%q) = %s, want an error", tc.spec, d.Name)
		case tc.qubits > 0 && err != nil:
			t.Errorf("Parse(%q): %v", tc.spec, err)
		case tc.qubits > 0 && d.NumQubits != tc.qubits:
			t.Errorf("Parse(%q) has %d qubits, want %d", tc.spec, d.NumQubits, tc.qubits)
		}
	}
}

// TestCloseMatchesReference compares Close with the predicate it replaced,
// an EdgeDistance in {0, 1}, over every ordered pair of ordered qubit
// pairs of each device: Melbourne, a grid, a chain, a device with two
// isolated qubits (an edge between them is at distance -1 from every
// edge that avoids them) and a grid of more than 64 qubits.
func TestCloseMatchesReference(t *testing.T) {
	isolated, err := New("isolated-qubits", 6, []Edge{{0, 1}, {1, 2}, {2, 3}}, MelbourneCalibration())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Device{Melbourne(), Grid(3, 3), Linear(5), isolated, Grid(5, 13)} {
		var pairs []Edge
		for a := 0; a < d.NumQubits; a++ {
			for b := 0; b < d.NumQubits; b++ {
				if a != b {
					pairs = append(pairs, Edge{a, b})
				}
			}
		}
		seen := map[bool]bool{}
		disconnected := false
		for _, e1 := range pairs {
			for _, e2 := range pairs {
				dd := d.EdgeDistance(e1, e2)
				want := dd >= 0 && dd <= 1
				if got := d.Close(e1, e2); got != want {
					t.Fatalf("%s: Close(%v, %v) = %v, EdgeDistance %d", d.Name, e1, e2, got, dd)
				}
				seen[want] = true
				disconnected = disconnected || dd < 0
			}
		}
		if !seen[true] || !seen[false] {
			t.Fatalf("%s: Close answered only %v", d.Name, seen)
		}
		if disconnected != (d == isolated) {
			t.Fatalf("%s: distance -1 seen = %v", d.Name, disconnected)
		}
	}
}
