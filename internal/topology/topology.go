// Package topology models quantum hardware: coupling graphs with directed
// two-qubit gates, BFS distance matrices, and device calibration data
// (decoherence times, gate latencies, gate errors). The shipped devices
// include the IBM Q Melbourne 14-qubit chip the paper evaluates on
// (its Figure 10), plus linear and grid devices for tests.
package topology

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Edge is a directed coupling: a CX with control From and target To is
// natively executable.
type Edge struct {
	From, To int
}

// Device is a quantum chip model: qubit count, directed coupling list and
// calibration. All latency values are in nanoseconds, error rates are
// probabilities per gate.
type Device struct {
	Name      string
	NumQubits int
	Edges     []Edge

	Calibration Calibration

	adj  [][]int // undirected adjacency lists, sorted
	dist [][]int // undirected BFS distances; -1 when disconnected
	// near[a*NumQubits+b] reports dist[a][b] ∈ {0, 1}: a and b are one
	// qubit or coupled. Close reads it.
	near []bool
}

// Calibration holds the device's timing and error model. Values default to
// the Melbourne-era numbers quoted in the paper (§II-E). The JSON tags are
// the wire format of the calibration-epoch admin API (POST
// /v1/devices/{name}/calibrate) and the -calibration-file hot-reload path.
type Calibration struct {
	T1ns            float64 `json:"t1_ns"`             // relaxation time
	T2ns            float64 `json:"t2_ns"`             // dephasing time
	CXLatencyNs     float64 `json:"cx_latency_ns"`     // two-qubit gate duration
	Gate1QLatencyNs float64 `json:"gate1q_latency_ns"` // pulse-backed single-qubit gate duration
	FrameLatencyNs  float64 `json:"frame_latency_ns"`  // frame-change gates (rz/u1/z/s/t family)
	CXError         float64 `json:"cx_error"`          // average CX gate error
	Gate1QError     float64 `json:"gate1q_error"`      // average single-qubit gate error
}

// Validate rejects physically meaningless calibrations. Decoherence
// times and pulse-backed gate latencies must be positive (fidelity
// estimates divide by T1/T2; zero-latency gates would be free); frame
// latency and error rates must be non-negative, errors at most 1. Guards
// the calibration-update API, where a partial JSON body would otherwise
// silently zero every unspecified field.
func (c Calibration) Validate() error {
	switch {
	case c.T1ns <= 0 || c.T2ns <= 0:
		return fmt.Errorf("topology: non-positive decoherence times T1=%v T2=%v", c.T1ns, c.T2ns)
	case c.CXLatencyNs <= 0 || c.Gate1QLatencyNs <= 0:
		return fmt.Errorf("topology: non-positive gate latencies cx=%v 1q=%v", c.CXLatencyNs, c.Gate1QLatencyNs)
	case c.FrameLatencyNs < 0:
		return fmt.Errorf("topology: negative frame latency %v", c.FrameLatencyNs)
	case c.CXError < 0 || c.CXError > 1 || c.Gate1QError < 0 || c.Gate1QError > 1:
		return fmt.Errorf("topology: error rates outside [0,1]: cx=%v 1q=%v", c.CXError, c.Gate1QError)
	}
	return nil
}

// Drift returns the calibration scaled by (1 + pct/100) on every timing
// and error figure — the generic "hardware recalibrated, everything moved
// a little" perturbation used to model a calibration epoch. Positive pct
// slows the device down, negative speeds it up.
func (c Calibration) Drift(pct float64) Calibration {
	f := 1 + pct/100
	return Calibration{
		T1ns:            c.T1ns * f,
		T2ns:            c.T2ns * f,
		CXLatencyNs:     c.CXLatencyNs * f,
		Gate1QLatencyNs: c.Gate1QLatencyNs * f,
		FrameLatencyNs:  c.FrameLatencyNs * f,
		CXError:         c.CXError * f,
		Gate1QError:     c.Gate1QError * f,
	}
}

// MelbourneCalibration returns the calibration quoted in the paper:
// T1 = 57.35 µs, T2 = 61.82 µs, CX ≈ 974.9 ns, CX error 2.46e-2.
func MelbourneCalibration() Calibration {
	return Calibration{
		T1ns:            57350,
		T2ns:            61820,
		CXLatencyNs:     974.9,
		Gate1QLatencyNs: 100,
		FrameLatencyNs:  0,
		CXError:         2.46e-2,
		Gate1QError:     1.0e-3,
	}
}

// New builds a device from a directed edge list and computes adjacency and
// distance tables. Edges must reference qubits in [0, n).
func New(name string, n int, edges []Edge, cal Calibration) (*Device, error) {
	d := &Device{Name: name, NumQubits: n, Edges: append([]Edge(nil), edges...), Calibration: cal}
	adjSet := make([]map[int]bool, n)
	for i := range adjSet {
		adjSet[i] = map[int]bool{}
	}
	for _, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n || e.From == e.To {
			return nil, fmt.Errorf("topology: invalid edge %v on %d qubits", e, n)
		}
		adjSet[e.From][e.To] = true
		adjSet[e.To][e.From] = true
	}
	d.adj = make([][]int, n)
	for i, s := range adjSet {
		for q := range s {
			d.adj[i] = append(d.adj[i], q)
		}
		sort.Ints(d.adj[i])
	}
	d.dist = make([][]int, n)
	for src := 0; src < n; src++ {
		row := make([]int, n)
		for i := range row {
			row[i] = -1
		}
		row[src] = 0
		queue := []int{src}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range d.adj[cur] {
				if row[nb] < 0 {
					row[nb] = row[cur] + 1
					queue = append(queue, nb)
				}
			}
		}
		d.dist[src] = row
	}
	d.near = make([]bool, n*n)
	for a, row := range d.dist {
		for b, dd := range row {
			d.near[a*n+b] = dd == 0 || dd == 1
		}
	}
	return d, nil
}

// Melbourne returns the 14-qubit IBM Q Melbourne device with the directed
// coupling map of the paper's Figure 10 and the §II-E calibration.
func Melbourne() *Device {
	edges := []Edge{
		{1, 0}, {1, 2}, {2, 3}, {4, 3}, {4, 10}, {5, 4}, {5, 6}, {5, 9},
		{6, 8}, {7, 8}, {9, 8}, {9, 10}, {11, 3}, {11, 10}, {11, 12},
		{12, 2}, {13, 1}, {13, 12},
	}
	d, err := New("ibmq-melbourne", 14, edges, MelbourneCalibration())
	if err != nil {
		panic(err) // static data, cannot fail
	}
	return d
}

// Linear returns an n-qubit chain with CX allowed low→high only, useful in
// tests that need swap insertion and direction fixing.
func Linear(n int) *Device {
	edges := make([]Edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, Edge{i, i + 1})
	}
	d, err := New(fmt.Sprintf("linear-%d", n), n, edges, MelbourneCalibration())
	if err != nil {
		panic(err)
	}
	return d
}

// Grid returns a rows×cols lattice with bidirectional CX on every lattice
// edge.
func Grid(rows, cols int) *Device {
	var edges []Edge
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, Edge{id(r, c), id(r, c+1)}, Edge{id(r, c+1), id(r, c)})
			}
			if r+1 < rows {
				edges = append(edges, Edge{id(r, c), id(r+1, c)}, Edge{id(r+1, c), id(r, c)})
			}
		}
	}
	d, err := New(fmt.Sprintf("grid-%dx%d", rows, cols), rows*cols, edges, MelbourneCalibration())
	if err != nil {
		panic(err)
	}
	return d
}

// Parse builds a device from its command-line spec: melbourne,
// linear<N> (N ≥ 2) or grid<R>x<C> (R, C ≥ 1). The whole spec must
// parse: "linear5x" and "grid2x3abc" are errors, not devices.
func Parse(spec string) (*Device, error) {
	if spec == "melbourne" {
		return Melbourne(), nil
	}
	if s, ok := strings.CutPrefix(spec, "linear"); ok {
		if n, ok := dimension(s); ok && n > 1 {
			return Linear(n), nil
		}
	}
	if s, ok := strings.CutPrefix(spec, "grid"); ok {
		rs, cs, _ := strings.Cut(s, "x")
		r, rok := dimension(rs)
		c, cok := dimension(cs)
		if rok && cok && r > 0 && c > 0 {
			return Grid(r, c), nil
		}
	}
	return nil, fmt.Errorf("unknown device %q", spec)
}

// dimension parses a device dimension: decimal digits only, no sign.
func dimension(s string) (int, bool) {
	n, err := strconv.ParseUint(s, 10, 16)
	return int(n), err == nil
}

// WithCalibration returns a copy of the device carrying cal — the same
// topology under a new calibration epoch. The adjacency, distance and
// closeness tables are shared (they are immutable once built).
func (d *Device) WithCalibration(cal Calibration) *Device {
	nd := *d
	nd.Calibration = cal
	return &nd
}

// Distance returns the undirected coupling distance between physical qubits
// a and b (-1 if disconnected).
func (d *Device) Distance(a, b int) int { return d.dist[a][b] }

// Neighbors returns the sorted undirected neighbor list of a physical qubit.
func (d *Device) Neighbors(q int) []int { return d.adj[q] }

// Connected reports whether a and b share a coupling (either direction).
func (d *Device) Connected(a, b int) bool { return d.dist[a][b] == 1 }

// CXDirected reports whether a CX with control c and target t is natively
// available (the edge exists in that direction).
func (d *Device) CXDirected(c, t int) bool {
	for _, e := range d.Edges {
		if e.From == c && e.To == t {
			return true
		}
	}
	return false
}

// UndirectedEdges returns each coupling once with From < To, sorted.
func (d *Device) UndirectedEdges() []Edge {
	seen := map[[2]int]bool{}
	var out []Edge
	for _, e := range d.Edges {
		a, b := e.From, e.To
		if a > b {
			a, b = b, a
		}
		if !seen[[2]int{a, b}] {
			seen[[2]int{a, b}] = true
			out = append(out, Edge{a, b})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Close reports whether two undirected edges are within coupling distance
// 1 of each other — they share a qubit or some of their endpoints are
// coupled — the closeness behind the paper's crosstalk indicator
// I(gm, gn). It is EdgeDistance(e1, e2) ∈ {0, 1}, read from a table built
// once per device.
func (d *Device) Close(e1, e2 Edge) bool {
	n, near := d.NumQubits, d.near
	return near[e1.From*n+e2.From] || near[e1.From*n+e2.To] ||
		near[e1.To*n+e2.From] || near[e1.To*n+e2.To]
}

// EdgeDistance returns the minimum coupling distance between the endpoint
// sets of two undirected edges: 0 if they share a qubit, 1 if some endpoints
// are adjacent, etc.; -1 if no endpoint of one reaches the other. Close is
// its distance-≤1 test.
func (d *Device) EdgeDistance(e1, e2 Edge) int {
	from, to := d.dist[e1.From], d.dist[e1.To]
	best := -1
	for _, dd := range [4]int{from[e2.From], from[e2.To], to[e2.From], to[e2.To]} {
		if dd >= 0 && (best < 0 || dd < best) {
			best = dd
		}
	}
	return best
}
