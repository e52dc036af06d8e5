package grouping

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"accqoc/internal/circuit"
	"accqoc/internal/mapping"
	"accqoc/internal/topology"
	"accqoc/internal/workload"
)

// Golden byte-identity pins for the canonical group keys. A key is the
// library's content address: snapshots, the usage ledger and dedup counts
// all store its text, so a change to CanonicalOrientation that claims to
// compute the same keys must reproduce these digests exactly. The digests
// were recorded on amd64 with the fmt renderer and the S·U·S swap that
// canonicalOrientationRef keeps as the reference model; other
// architectures may fuse multiply-adds while building group unitaries.

// goldenPrograms are the §VI-A suite programs that fit Melbourne (qft_16
// does not) plus the servebench pool's random-mix program; the pool's two
// named programs, 4gt4-v0 and qft_10, are suite members already.
func goldenPrograms(t testing.TB, dev *topology.Device) []*workload.Program {
	t.Helper()
	var out []*workload.Program
	for _, p := range workload.NamedSuite() {
		if p.Circuit.NumQubits <= dev.NumQubits {
			out = append(out, p)
		}
	}
	p, err := workload.FromSpec("random:6:300:1")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, p)
}

// physical runs the compiler front end's mapping step the way
// accqoc.Compiler.Prepare does: Toffoli decomposition, crosstalk-aware A*
// routing, and swap lowering when the policy asks for it.
func physical(t testing.TB, c *circuit.Circuit, dev *topology.Device, pol Policy) *circuit.Circuit {
	t.Helper()
	mapped, err := mapping.Map(c.DecomposeCCX(), dev, mapping.Options{CrosstalkAware: true})
	if err != nil {
		t.Fatal(err)
	}
	phys := mapped.Mapped
	if pol.DecomposeSwap {
		if phys, err = mapping.DecomposeSwaps(phys, dev); err != nil {
			t.Fatal(err)
		}
	}
	return phys
}

func TestGoldenCanonicalKeys(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden keys are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	dev := topology.Melbourne()
	progs := goldenPrograms(t, dev)
	want := []struct {
		pol         Policy
		occurrences int
		digest      string
	}{
		{Map2b4l, 6123, "b216cf9d8880b747abbbcd42274af63611cb64af23b9bdcb96c0a57caee63797"},
		{Swap2b4l, 3696, "dba372ebf81b196bbbf64508f75768b5a95591d6964d53c03f9de61a3e6a866d"},
		{Policy{Name: "map3b2l", MaxQubits: 3, MaxLayers: 2, DecomposeSwap: true}, 9751, "1676c07ff5fe9202aa9f0f51dc95c550be327bf65e72e8fcf2382df48ae16d8b"},
	}
	for _, w := range want {
		h := sha256.New()
		n := 0
		for _, p := range progs {
			gr, err := Divide(physical(t, p.Circuit, dev, w.pol), w.pol)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range gr.Groups {
				u, err := g.Unitary()
				if err != nil {
					t.Fatal(err)
				}
				key, swapped := CanonicalOrientation(u)
				h.Write([]byte(key))
				if swapped {
					h.Write([]byte{1})
				} else {
					h.Write([]byte{0})
				}
				n++
			}
		}
		got := hex.EncodeToString(h.Sum(nil))
		if n != w.occurrences || got != w.digest {
			t.Errorf("%s: %d occurrences, digest %s; want %d, %s", w.pol.Name, n, got, w.occurrences, w.digest)
		}
	}
}
