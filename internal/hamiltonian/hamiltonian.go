// Package hamiltonian builds the control systems GRAPE optimizes over: the
// paper's two-level spin qubit model (ω/2π = 3.9 GHz, §IV-D) expressed in
// the rotating frame, with σx/σy drive controls per qubit and an always-on
// σz⊗σz exchange coupling between qubit pairs.
//
// Units: time in nanoseconds, Hamiltonians in rad/ns (ħ = 1). A control
// amplitude u applied for time t rotates the Bloch vector by 2·u·t radians
// about its axis.
package hamiltonian

import (
	"fmt"

	"accqoc/internal/cmat"
)

// Physical constants of the model, chosen so that gate-speed ratios against
// the IBM-calibrated gate-based latencies land in the regime the paper
// reports (see DESIGN.md "Substitutions").
const (
	// QubitFrequencyGHz is the paper's spin qubit frequency ω/2π. It sets
	// the lab frame; the rotating-frame dynamics below are independent of
	// it, but it is recorded for documentation and serialization.
	QubitFrequencyGHz = 3.9

	// DefaultMaxAmp is the drive amplitude bound in rad/ns
	// (2π × 10 MHz): a π rotation takes 25 ns at full drive.
	DefaultMaxAmp = 0.06283185307179587

	// DefaultCoupling is the σz⊗σz exchange strength J in rad/ns
	// (2π × 0.4 MHz): the π/4 entangling evolution of a CNOT takes
	// ≈ 312 ns, putting time-optimal CX pulses near 1/3 of the
	// IBM-calibrated 974.9 ns.
	DefaultCoupling = 0.002513274122871834

	// DefaultDetuning is the rotating-frame drift detuning (rad/ns).
	DefaultDetuning = 0.0
)

// System is a bilinear control system H(u) = Drift + Σ u_c·Controls[c].
type System struct {
	// Name describes the model, e.g. "spin-1q" or "spin-2q".
	Name string
	// Dim is the Hilbert-space dimension.
	Dim int
	// Drift is the constant part of the Hamiltonian (rad/ns).
	Drift *cmat.Matrix
	// Controls are the drive operators multiplied by the time-dependent
	// amplitudes.
	Controls []*cmat.Matrix
	// ControlNames label the controls for pulse serialization.
	ControlNames []string
	// MaxAmp is the drive amplitude bound (rad/ns), symmetric about zero.
	MaxAmp float64
}

// Config tunes the model constants; the zero value selects the defaults.
// The JSON tags are the wire format of the calibration-epoch admin API,
// where a recalibration ships perturbed Hamiltonian parameters.
type Config struct {
	MaxAmp   float64 `json:"max_amp,omitempty"`  // drive bound, rad/ns
	Coupling float64 `json:"coupling,omitempty"` // ZZ exchange J, rad/ns
	Detuning float64 `json:"detuning,omitempty"` // rotating-frame detuning, rad/ns
}

func (c Config) withDefaults() Config {
	if c.MaxAmp == 0 {
		c.MaxAmp = DefaultMaxAmp
	}
	if c.Coupling == 0 {
		c.Coupling = DefaultCoupling
	}
	return c
}

// Normalize resolves the zero-value defaults into explicit numbers, so two
// configs that describe the same physics compare (and fingerprint) equal.
func (c Config) Normalize() Config { return c.withDefaults() }

// Drift returns the config perturbed by pct percent — the
// calibration-epoch model: after a recalibration the same hardware comes
// back with slightly moved control parameters, invalidating every
// compiled pulse while keeping each one a near-perfect warm start for its
// successor. The drive bound and exchange strength scale by (1 + pct/100);
// the qubit frequency also moves, which in the serving rotating frame is a
// detuning shift of (pct/100)·MaxAmp — without it a single-qubit system
// (whose on-resonance drift term is zero) would see no physical change at
// all, and old pulses would stay exactly valid. Defaults are resolved
// first so drifting a zero-value config does not silently re-select the
// defaults (0 × f = 0) on the other side.
func (c Config) Drift(pct float64) Config {
	c = c.withDefaults()
	f := 1 + pct/100
	c.MaxAmp *= f
	c.Coupling *= f
	c.Detuning = c.Detuning*f + (pct/100)*c.MaxAmp
	return c
}

// Pauli matrices.
func pauliX() *cmat.Matrix { return cmat.FromRows([][]complex128{{0, 1}, {1, 0}}) }
func pauliY() *cmat.Matrix { return cmat.FromRows([][]complex128{{0, -1i}, {1i, 0}}) }
func pauliZ() *cmat.Matrix { return cmat.FromRows([][]complex128{{1, 0}, {0, -1}}) }

// OneQubit returns the single-qubit spin system: drift ½Δ·σz (zero at the
// default on-resonance detuning), controls σx and σy.
func OneQubit(cfg Config) *System {
	cfg = cfg.withDefaults()
	return &System{
		Name:         "spin-1q",
		Dim:          2,
		Drift:        cmat.Scale(complex(cfg.Detuning/2, 0), pauliZ()),
		Controls:     []*cmat.Matrix{pauliX(), pauliY()},
		ControlNames: []string{"x", "y"},
		MaxAmp:       cfg.MaxAmp,
	}
}

// TwoQubit returns the coupled pair: drift ½Δ(σz⊗I + I⊗σz) + J·σz⊗σz,
// controls σx/σy on each qubit. The always-on exchange term plus local
// drives is the standard NMR-style universal control set.
func TwoQubit(cfg Config) *System {
	cfg = cfg.withDefaults()
	id := cmat.Identity(2)
	drift := cmat.Scale(complex(cfg.Coupling, 0), cmat.Kron(pauliZ(), pauliZ()))
	if cfg.Detuning != 0 {
		cmat.AccumScaled(drift, complex(cfg.Detuning/2, 0), cmat.Kron(pauliZ(), id))
		cmat.AccumScaled(drift, complex(cfg.Detuning/2, 0), cmat.Kron(id, pauliZ()))
	}
	return &System{
		Name:  "spin-2q",
		Dim:   4,
		Drift: drift,
		Controls: []*cmat.Matrix{
			cmat.Kron(pauliX(), id), cmat.Kron(pauliY(), id),
			cmat.Kron(id, pauliX()), cmat.Kron(id, pauliY()),
		},
		ControlNames: []string{"x0", "y0", "x1", "y1"},
		MaxAmp:       cfg.MaxAmp,
	}
}

// Chain returns an n-qubit spin chain: nearest-neighbor σz⊗σz exchange
// plus σx/σy drives on every qubit. Used by the brute-force QOC baseline,
// whose groups exceed two qubits. The Hilbert space is 2^n-dimensional, so
// n is capped at 5 — per-group GRAPE beyond that is exactly the
// intractability the paper is attacking.
func Chain(n int, cfg Config) (*System, error) {
	if n < 1 || n > 5 {
		return nil, fmt.Errorf("hamiltonian: chain size %d out of range [1,5]", n)
	}
	cfg = cfg.withDefaults()
	dim := 1 << n
	drift := cmat.New(dim, dim)
	embed := func(op *cmat.Matrix, q int) *cmat.Matrix {
		m := cmat.Identity(1)
		for i := 0; i < n; i++ {
			if i == q {
				m = cmat.Kron(m, op)
			} else {
				m = cmat.Kron(m, cmat.Identity(2))
			}
		}
		return m
	}
	embed2 := func(op *cmat.Matrix, q int) *cmat.Matrix { // op on qubits q, q+1
		m := cmat.Identity(1)
		i := 0
		for i < n {
			if i == q {
				m = cmat.Kron(m, op)
				i += 2
				continue
			}
			m = cmat.Kron(m, cmat.Identity(2))
			i++
		}
		return m
	}
	zz := cmat.Kron(pauliZ(), pauliZ())
	for q := 0; q+1 < n; q++ {
		cmat.AccumScaled(drift, complex(cfg.Coupling, 0), embed2(zz, q))
	}
	if cfg.Detuning != 0 {
		for q := 0; q < n; q++ {
			cmat.AccumScaled(drift, complex(cfg.Detuning/2, 0), embed(pauliZ(), q))
		}
	}
	sys := &System{
		Name:   fmt.Sprintf("spin-%dq-chain", n),
		Dim:    dim,
		Drift:  drift,
		MaxAmp: cfg.MaxAmp,
	}
	for q := 0; q < n; q++ {
		sys.Controls = append(sys.Controls, embed(pauliX(), q), embed(pauliY(), q))
		sys.ControlNames = append(sys.ControlNames, fmt.Sprintf("x%d", q), fmt.Sprintf("y%d", q))
	}
	return sys, nil
}

// ForQubits returns the system matching a group's qubit count: the 1- and
// 2-qubit spin models for policy-sized groups, the spin chain above that.
func ForQubits(n int, cfg Config) (*System, error) {
	switch n {
	case 1:
		return OneQubit(cfg), nil
	case 2:
		return TwoQubit(cfg), nil
	default:
		return Chain(n, cfg)
	}
}

// Assemble returns Drift + Σ amps[c]·Controls[c].
func (s *System) Assemble(amps []float64) *cmat.Matrix {
	h := cmat.New(s.Dim, s.Dim)
	s.AssembleInto(h, amps)
	return h
}

// AssembleInto writes Drift + Σ amps[c]·Controls[c] into dst without
// allocating. dst must be Dim×Dim; it is overwritten. The result is
// numerically identical to Assemble's.
func (s *System) AssembleInto(dst *cmat.Matrix, amps []float64) {
	if len(amps) != len(s.Controls) {
		panic(fmt.Sprintf("hamiltonian: %d amplitudes for %d controls", len(amps), len(s.Controls)))
	}
	dst.CopyFrom(s.Drift)
	for c, a := range amps {
		if a != 0 {
			cmat.AccumScaled(dst, complex(a, 0), s.Controls[c])
		}
	}
}

// Validate checks the structural invariants: Hermitian drift and controls
// of matching dimension, positive amplitude bound.
func (s *System) Validate() error {
	if s.Dim <= 0 {
		return fmt.Errorf("hamiltonian: non-positive dimension %d", s.Dim)
	}
	if s.MaxAmp <= 0 {
		return fmt.Errorf("hamiltonian: non-positive MaxAmp %v", s.MaxAmp)
	}
	if s.Drift.Rows != s.Dim || s.Drift.Cols != s.Dim {
		return fmt.Errorf("hamiltonian: drift shape %dx%d vs dim %d", s.Drift.Rows, s.Drift.Cols, s.Dim)
	}
	if !cmat.IsHermitian(s.Drift, 1e-12) {
		return fmt.Errorf("hamiltonian: drift is not Hermitian")
	}
	if len(s.Controls) != len(s.ControlNames) {
		return fmt.Errorf("hamiltonian: %d controls vs %d names", len(s.Controls), len(s.ControlNames))
	}
	for i, c := range s.Controls {
		if c.Rows != s.Dim || c.Cols != s.Dim {
			return fmt.Errorf("hamiltonian: control %d shape %dx%d vs dim %d", i, c.Rows, c.Cols, s.Dim)
		}
		if !cmat.IsHermitian(c, 1e-12) {
			return fmt.Errorf("hamiltonian: control %d is not Hermitian", i)
		}
	}
	return nil
}
