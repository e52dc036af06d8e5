package gate

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// newInstanceRef is NewInstance as it was with a set per call; the
// nested scan that replaced it must agree on every result and error.
func newInstanceRef(n Name, qubits []int, params []float64) (Instance, error) {
	spec, ok := specs[n]
	if !ok {
		return Instance{}, fmt.Errorf("gate: unknown gate %q", n)
	}
	if len(qubits) != spec.Qubits {
		return Instance{}, fmt.Errorf("gate: %s takes %d qubit(s), got %d", n, spec.Qubits, len(qubits))
	}
	if len(params) != spec.Params {
		return Instance{}, fmt.Errorf("gate: %s takes %d parameter(s), got %d", n, spec.Params, len(params))
	}
	seen := map[int]bool{}
	for _, q := range qubits {
		if q < 0 {
			return Instance{}, fmt.Errorf("gate: negative qubit %d", q)
		}
		if seen[q] {
			return Instance{}, fmt.Errorf("gate: repeated qubit %d in %s", q, n)
		}
		seen[q] = true
	}
	return Instance{Name: n, Qubits: append([]int(nil), qubits...), Params: append([]float64(nil), params...)}, nil
}

// TestNewInstanceMatchesReference draws thousands of operand lists over
// a small qubit range, so repeats and negative operands are common, with
// right and wrong operand and parameter counts and unknown names.
func TestNewInstanceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	names := []Name{H, RZ, U3, CX, Swap, CCX, "bogus"}
	errs := map[string]int{}
	for trial := 0; trial < 20000; trial++ {
		n := names[rng.Intn(len(names))]
		spec, ok := specs[n]
		nq, np := spec.Qubits, spec.Params
		if !ok || rng.Intn(8) == 0 {
			nq = rng.Intn(4)
		}
		if rng.Intn(8) == 0 {
			np = rng.Intn(4)
		}
		qubits := make([]int, nq)
		for i := range qubits {
			qubits[i] = rng.Intn(5) - 1
		}
		params := make([]float64, np)
		for i := range params {
			params[i] = rng.Float64()
		}
		got, err := NewInstance(n, qubits, params)
		want, werr := newInstanceRef(n, qubits, params)
		if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("NewInstance(%s, %v, %v) = %v, %v; want %v, %v", n, qubits, params, got, err, want, werr)
		}
		if werr != nil {
			errs[werr.Error()[:12]]++
		}
	}
	for _, kind := range []string{"gate: negati", "gate: repeat", "gate: unknow"} {
		if errs[kind] == 0 {
			t.Errorf("no %q error drawn", kind)
		}
	}
}
