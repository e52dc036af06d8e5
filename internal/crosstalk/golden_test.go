package crosstalk

import (
	"math"
	"runtime"
	"testing"

	"accqoc/internal/circuit"
	"accqoc/internal/gatepulse"
	"accqoc/internal/mapping"
	"accqoc/internal/topology"
	"accqoc/internal/workload"
)

// Golden bit-identity pins for the response estimates of a mapped
// program: the gate-based baseline latency and the program fidelity with
// and without decoherence. The values were recorded with the per-gate
// BaselineError/CrosstalkError loop that referenceFidelity keeps as the
// reference model, on amd64; other architectures may fuse multiply-adds
// and legitimately differ in the last bits.

// goldenPhysical maps the §VI-A suite programs that fit Melbourne (qft_16
// does not) plus the servebench pool's random-mix program the way
// accqoc.Compiler.Prepare does, and returns each physical circuit with
// swaps lowered to CX (the map policies) and kept native (the swap
// policies).
func goldenPhysical(t testing.TB, dev *topology.Device) map[string]*circuit.Circuit {
	t.Helper()
	var progs []*workload.Program
	for _, p := range workload.NamedSuite() {
		if p.Circuit.NumQubits <= dev.NumQubits {
			progs = append(progs, p)
		}
	}
	p, err := workload.FromSpec("random:6:300:1")
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, p)
	out := map[string]*circuit.Circuit{}
	for _, p := range progs {
		mapped, err := mapping.Map(p.Circuit.DecomposeCCX(), dev, mapping.Options{CrosstalkAware: true})
		if err != nil {
			t.Fatal(err)
		}
		lowered, err := mapping.DecomposeSwaps(mapped.Mapped, dev)
		if err != nil {
			t.Fatal(err)
		}
		out[p.Name+"/map"] = lowered
		out[p.Name+"/swap"] = mapped.Mapped
	}
	return out
}

func TestGoldenProgramFidelity(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	dev := topology.Melbourne()
	phys := goldenPhysical(t, dev)
	// Per program: gatepulse.Overall, then ProgramFidelity at latency 0
	// (gate and crosstalk errors only) and at the gate-based latency.
	want := map[string][3]uint64{
		"4gt4-v0/map":         {0x4113520533333336, 0x3f0133631f9f09c4, 0x3e81a5c37499d1d1},
		"4gt4-v0/swap":        {0x41122f653333333b, 0x3f71f0832dc87f9b, 0x3ef974df57f22c5a},
		"cm152a/map":          {0x4139289cffffff66, 0x3837300835659a17, 0x35a0a89688813ee7},
		"cm152a/swap":         {0x41371a70ffffffbb, 0x3c7ebf312a0d021c, 0x3a1cea6e61039c06},
		"ex2/map":             {0x413320b67ffffff8, 0x3b59c27afa41dae0, 0x3961c8de0d257bec},
		"ex2/swap":            {0x41319ade7fffffe4, 0x3df76e3e9d651b43, 0x3c270b9f9eb71d57},
		"f2/map":              {0x4138da4d333332a2, 0x398c139574228cbf, 0x36fc9c87cb69100f},
		"f2/swap":             {0x4136e4bd333332e9, 0x3ce2c3a77dca5e02, 0x3a866d5832fc2db2},
		"qft_10/map":          {0x4101ca44ccccccc0, 0x3f3c6136fcfdcd3b, 0x3f01e2736485022f},
		"qft_10/swap":         {0x41009e44ccccccc8, 0x3f8e34837d283130, 0x3f5680e0ed9fede6},
		"random_6_300_1/map":  {0x411e4a5acccccd13, 0x3e41674db5ddba9d, 0x3d78e15e3a5240ab},
		"random_6_300_1/swap": {0x411c1e1acccccce7, 0x3f25e8419f7a3bb0, 0x3e6d21b41863549c},
	}
	if len(phys) != len(want) {
		t.Errorf("%d physical programs, want %d", len(phys), len(want))
	}
	for name, c := range phys {
		overall := gatepulse.Overall(c, dev.Calibration)
		got := [3]uint64{
			math.Float64bits(overall),
			math.Float64bits(ProgramFidelity(c, dev, 0)),
			math.Float64bits(ProgramFidelity(c, dev, overall)),
		}
		if got != want[name] {
			t.Errorf("%s: bits %#x, want %#x", name, got, want[name])
		}
	}
}
