// Package similarity implements the paper's five group-similarity functions
// (§V-B, Fig. 8/13). Every function is exposed as a *distance*: lower means
// more similar, so minimum-spanning-tree construction directly minimizes
// the summed dissimilarity of consecutive compilations.
//
//	d1  — entry-wise L1 difference            Σ|aij−bij|
//	d2  — entry-wise L2 (Frobenius) difference √Σ(aij−bij)²
//	d3  — "fidelity1": trace-overlap distance  1 − |Tr(A†B)|/d
//	d4  — "fidelity2": Uhlmann-style fidelity  1 − |Tr√(√(A†)·B·√(A†))|²/d²
//	d5  — "inverse":  the inversion of d4, the paper's negative control —
//	      it *rewards* dissimilarity and is expected to hurt training.
//
// The paper writes d4 with the density-matrix Uhlmann formula
// (tr√(√A·B·√A))²; applied verbatim to unitaries it peaks at B = A⁻¹
// rather than B = A, so we conjugate the first argument — the natural
// transcription that makes it a similarity measure on unitaries. When the
// principal square root does not exist (eigenvalue pair straddling the
// branch cut), d4 falls back to d3 — both are fidelity-flavored and the
// fallback keeps MST construction total.
package similarity

import (
	"fmt"
	"math"
	"math/cmplx"

	"accqoc/internal/cmat"
)

// Func names a similarity (distance) function.
type Func string

// The paper's five functions in Figure 8/13 order.
const (
	L1         Func = "d1-l1"
	L2         Func = "d2-l2"
	TraceFid   Func = "fidelity1"
	UhlmannFid Func = "fidelity2"
	InverseFid Func = "inverse"
)

// All lists the five functions in the paper's plotting order.
var All = []Func{L1, L2, TraceFid, UhlmannFid, InverseFid}

// Distance returns the dissimilarity of two equally-sized unitaries under
// the chosen function. Lower is more similar. The result is ≥ 0 for all
// functions except InverseFid, whose ordering is intentionally reversed.
func Distance(f Func, a, b *cmat.Matrix) (float64, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return 0, fmt.Errorf("similarity: size mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if !a.IsSquare() {
		return 0, fmt.Errorf("similarity: non-square input %dx%d", a.Rows, a.Cols)
	}
	switch f {
	case L1:
		return cmat.L1Norm(cmat.Sub(a, b)), nil
	case L2:
		return cmat.FrobeniusNorm(cmat.Sub(a, b)), nil
	case TraceFid:
		return traceDistance(a, b), nil
	case UhlmannFid:
		return uhlmannDistance(a, b), nil
	case InverseFid:
		// The negative control: similar pairs get LARGE weights.
		return 1 - uhlmannDistance(a, b), nil
	default:
		return 0, fmt.Errorf("similarity: unknown function %q", f)
	}
}

func traceDistance(a, b *cmat.Matrix) float64 {
	d := float64(a.Rows)
	ov := cmplx.Abs(cmat.Trace(cmat.Mul(cmat.Dagger(a), b))) / d
	if ov > 1 {
		ov = 1 // numerical guard
	}
	return 1 - ov
}

func uhlmannDistance(a, b *cmat.Matrix) float64 {
	sa, err := cmat.Sqrtm(cmat.Dagger(a))
	if err != nil {
		return traceDistance(a, b)
	}
	m := cmat.MulChain(sa, b, sa)
	sm, err := cmat.Sqrtm(m)
	if err != nil {
		return traceDistance(a, b)
	}
	d := float64(a.Rows)
	f := cmplx.Abs(cmat.Trace(sm))
	fid := (f * f) / (d * d)
	if fid > 1 {
		fid = 1
	}
	return 1 - fid
}

// WarmThreshold returns the distance below which a warm start from a
// neighbor is expected to help rather than hurt GRAPE ("if no group is
// similar enough, the compilation will start from the pulse of identity
// matrix" — §V-C). Thresholds are per function because the five measures
// live on different scales; dim is the unitary dimension. InverseFid has
// no threshold (+Inf): it is the paper's negative control and is supposed
// to pick bad seeds.
func WarmThreshold(f Func, dim int) float64 {
	d := float64(dim)
	switch f {
	case L1:
		// Entry-wise L1 between unitaries tops out near 2d^1.5 (2d²
		// entries of magnitude ~1/√d); admit the closest quarter or so.
		return 0.5 * d
	case L2:
		// Frobenius distance between unitaries tops out at 2√d.
		return 0.5 * math.Sqrt(d)
	case TraceFid, UhlmannFid:
		return 0.3
	case InverseFid:
		return math.Inf(1)
	default:
		return 0.3
	}
}
