package grouping

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"

	"accqoc/internal/cmat"
	"accqoc/internal/gate"
	"accqoc/internal/topology"
	"accqoc/internal/workload"
)

// canonicalOrientationRef is the reference model of CanonicalOrientation:
// every entry printed with fmt, and the swapped orientation multiplied out
// as S·U·S.
func canonicalOrientationRef(u *cmat.Matrix) (string, bool) {
	best := phaseCanonicalString(u)
	if u.Rows == 4 {
		if s := phaseCanonicalString(permuteQubits2(u)); s < best {
			return s, true
		}
	}
	return best, false
}

// permuteQubits2 returns S·U·S for the 4×4 SWAP S — the same operation with
// the two qubits relabeled.
func permuteQubits2(u *cmat.Matrix) *cmat.Matrix {
	s, err := gate.Unitary(gate.Swap, nil)
	if err != nil {
		panic(err) // static gate, cannot fail
	}
	return cmat.MulChain(s, u, s)
}

// phaseCanonicalString fixes the global phase so the largest-magnitude
// entry is real positive, then prints entries quantized to 1e-5.
func phaseCanonicalString(u *cmat.Matrix) string {
	var ref complex128
	var refAbs float64
	for _, v := range u.Data {
		if a := cmplx.Abs(v); a > refAbs+1e-12 {
			refAbs, ref = a, v
		}
	}
	phase := complex(1, 0)
	if refAbs > 0 {
		phase = cmplx.Conj(ref) / complex(refAbs, 0)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%dx%d:", u.Rows, u.Cols)
	for _, v := range u.Data {
		w := v * phase
		fmt.Fprintf(&b, "%.5f,%.5f;", quant(real(w)), quant(imag(w)))
	}
	return b.String()
}

func quant(x float64) float64 {
	q := float64(int64(x*1e5+copysignHalf(x))) / 1e5
	if q == 0 {
		return 0 // normalize −0
	}
	return q
}

// boundary returns a value whose scaled form x·1e5 sits on or within two
// ulps of a rounding boundary k ± 0.5, with |k| < 1e5. One in four has
// |k| ≤ 1, where adding the half itself rounds (0.49999999999999994 + 0.5
// is 1), so the quantizer must keep its exact expression.
func boundary(rng *rand.Rand) float64 {
	k := float64(rng.Intn(200000) - 100000)
	if rng.Intn(4) == 0 {
		k = float64(rng.Intn(3) - 1)
	}
	x := (k + 0.5) / 1e5
	if rng.Intn(2) == 0 {
		x = (k - 0.5) / 1e5
	}
	dir := math.Inf(1 - 2*rng.Intn(2))
	for n := rng.Intn(3); n > 0; n-- {
		x = math.Nextafter(x, dir)
	}
	return x
}

// hardMatrix draws a dim×dim matrix mixing the cases the key renderer must
// reproduce bit for bit: ordinary entries, exact zeros and −0 parts,
// entries whose magnitudes tie within 1e-12 (the phase reference is then
// the first in scan order, which differs between orientations), parts on
// the quantizer's rounding boundary, and swap-symmetric 4×4 matrices. For the boundary parts to reach
// the renderer unchanged, the phase reference is an exact ±1 or ±i of the
// largest magnitude.
func hardMatrix(rng *rand.Rand, dim int) *cmat.Matrix {
	m := cmat.New(dim, dim)
	part := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2, 3:
			return boundary(rng)
		case 4:
			return rng.Float64()*1e-5 - 0.5e-5 // rounds to ±0
		default:
			return 2*rng.Float64() - 1
		}
	}
	for i := range m.Data {
		m.Data[i] = complex(part(), part())
	}
	scale := 1.0
	switch rng.Intn(4) {
	case 0:
		// Magnitude ties: copy one entry's modulus onto others, rotated
		// exactly or nudged below 1e-12.
		v := m.Data[rng.Intn(len(m.Data))]
		for n := 1 + rng.Intn(4); n > 0; n-- {
			w := v
			switch rng.Intn(4) {
			case 0:
				w = complex(imag(v), -real(v))
			case 1:
				w = -v
			case 2:
				w = v * complex(1+float64(rng.Intn(9))*1e-13, 0)
			}
			m.Data[rng.Intn(len(m.Data))] = w
		}
	case 1:
		// An exact reference of the largest magnitude keeps the boundary
		// parts exact.
		refs := []complex128{1, -1, 1i, -1i}
		m.Data[rng.Intn(len(m.Data))] = refs[rng.Intn(len(refs))] * 2
	case 2:
		scale = math.Pow(10, float64(rng.Intn(5)))
	case 3:
		// Swap-symmetric (S·U·S = U): both orientations render the same
		// key, and the unswapped one must win.
		if dim == 4 {
			for t, s := range swap2 {
				if s > t {
					m.Data[s] = m.Data[t]
				}
			}
		}
	}
	if scale != 1 {
		for i := range m.Data {
			m.Data[i] *= complex(scale, 0)
		}
	}
	return m
}

func TestCanonicalOrientationMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const perDim = 20000
	swapped := 0
	for _, dim := range []int{2, 4, 8} {
		for n := 0; n < perDim; n++ {
			var u *cmat.Matrix
			if n%4 == 0 {
				u = cmat.RandomUnitary(rng, dim)
			} else {
				u = hardMatrix(rng, dim)
			}
			key, sw := CanonicalOrientation(u)
			wantKey, wantSw := canonicalOrientationRef(u)
			if key != wantKey || sw != wantSw {
				t.Fatalf("dim %d matrix %d %v:\n got %q swapped=%v\nwant %q swapped=%v", dim, n, u.Data, key, sw, wantKey, wantSw)
			}
			if sw {
				swapped++
			}
		}
	}
	// Both orientations must win often enough for the comparison to be
	// exercised.
	if swapped < perDim/10 {
		t.Fatalf("swapped orientation won %d of %d 4×4 draws", swapped, perDim)
	}
}

// BenchmarkCanonicalOrientation keys the group unitaries of the
// servebench pool programs under map2b4l on Melbourne, one call per op.
func BenchmarkCanonicalOrientation(b *testing.B) {
	dev := topology.Melbourne()
	var us []*cmat.Matrix
	for _, spec := range []string{"named:4gt4-v0", "named:qft_10", "random:6:300:1"} {
		p, err := workload.FromSpec(spec)
		if err != nil {
			b.Fatal(err)
		}
		gr, err := Divide(physical(b, p.Circuit, dev, Map2b4l), Map2b4l)
		if err != nil {
			b.Fatal(err)
		}
		for _, g := range gr.Groups {
			u, err := g.Unitary()
			if err != nil {
				b.Fatal(err)
			}
			us = append(us, u)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CanonicalOrientation(us[i%len(us)])
	}
}
