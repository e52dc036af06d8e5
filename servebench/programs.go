package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"accqoc/internal/circuit"
	"accqoc/internal/gate"
	"accqoc/internal/qasm"
	"accqoc/internal/server"
	"accqoc/internal/workload"
)

// program is one request input.
type program struct {
	name string
	// qubits and gates are what the server must echo for the program.
	qubits, gates int
	// body is the marshalled POST /v1/circuits/compile request: the
	// program as OpenQASM 2.0, as a client sends it.
	body []byte
}

func newProgram(name string, c *circuit.Circuit) *program {
	body, err := json.Marshal(server.CircuitRequest{CompileRequest: server.CompileRequest{QASM: qasm.Print(c)}})
	if err != nil {
		panic(err) // a struct of strings always marshals
	}
	return &program{name: name, qubits: c.NumQubits, gates: c.GateCount(), body: body}
}

// poolSpecs are the programs the warm traffic replays, as the workload
// specs cmd/accqoc's load generator accepts: two Table II programs of the
// paper's §VI-A suite (the RevLib-style 4gt4-v0 and the exact 10-qubit
// QFT) and one program of the suite's randomly sampled part, drawn with
// the Table II "all" instruction mix. They are fixed, not drawn from the
// seed, so that one trained library serves every run of a build.
var poolSpecs = []string{"named:4gt4-v0", "named:qft_10", "random:6:300:1"}

// The cold traffic is a variational loop over the ansatz of
// examples/variational: every optimizer step moves θ, which turns both of
// the ansatz's groups into matrices the library has not seen. The loop
// starts from baseTheta, whose groups the library holds, and each step
// moves θ up by a step size drawn from [minStep, maxStep), so no two steps
// share a group and the closest trained groups are the previous step's,
// which the server warm-starts from.
const (
	baseTheta = 0.5
	minStep   = 0.02
	maxStep   = 0.06
)

// ansatz is one iteration of the variational circuit: an entangler with
// parameterized rotations (the group family of the paper's Fig. 4a/4b).
func ansatz(theta float64) *circuit.Circuit {
	c := circuit.New(2)
	c.MustAppend(gate.RY, []int{0}, theta)
	c.MustAppend(gate.RY, []int{1}, theta/2)
	c.MustAppend(gate.CX, []int{0, 1})
	c.MustAppend(gate.RZ, []int{1}, theta)
	return c
}

func ansatzProgram(theta float64) *program {
	return newProgram(fmt.Sprintf("ansatz-theta%.5f", theta), ansatz(theta))
}

// poolPrograms builds the warm pool from poolSpecs.
func poolPrograms() ([]*program, error) {
	var pool []*program
	for _, spec := range poolSpecs {
		p, err := workload.FromSpec(spec)
		if err != nil {
			return nil, err
		}
		pool = append(pool, newProgram(p.Name, p.Circuit))
	}
	return pool, nil
}

// stream is the client's request sequence, drawn from the run's seed:
// variational steps for a cold client, pool replays for a warm one.
type stream struct {
	pool  []*program
	rng   *rand.Rand
	cold  bool
	theta float64
	// cycle is the warm client's current pass over the pool.
	cycle []*program
}

func newStream(pool []*program, seed int64, cold bool) *stream {
	return &stream{pool: pool, rng: rand.New(rand.NewSource(seed)), cold: cold, theta: baseTheta}
}

// next returns the stream's next program and whether it is a variational
// step, a program the library has not seen. A warm client replays the
// pool in passes, each pass in an order drawn from the seed, so that every
// seed requests each program equally often.
func (s *stream) next() (*program, bool) {
	if s.cold {
		s.theta += minStep + (maxStep-minStep)*s.rng.Float64()
		return ansatzProgram(s.theta), true
	}
	if len(s.cycle) == 0 {
		s.cycle = make([]*program, len(s.pool))
		for i, j := range s.rng.Perm(len(s.pool)) {
			s.cycle[i] = s.pool[j]
		}
	}
	p := s.cycle[0]
	s.cycle = s.cycle[1:]
	return p, false
}
