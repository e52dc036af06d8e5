package optimize

import (
	"math/rand"
	"testing"
)

// BenchmarkBFGSUpdate prices one dense inverse-Hessian update at GRAPE's
// two-qubit size: 32 segments × 4 controls = 128 variables. Together with
// grape's Evaluate/Gradient benches it attributes an optimizer iteration.
func BenchmarkBFGSUpdate(b *testing.B) {
	const n = 128
	r := rand.New(rand.NewSource(1))
	hInv := make([]float64, n*n)
	for i := 0; i < n; i++ {
		hInv[i*n+i] = 1
	}
	s, y, hy := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range s {
		s[i] = r.NormFloat64()
		y[i] = s[i] + 0.1*r.NormFloat64()
	}
	sy := dot(s, y)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		updateInverseHessian(hInv, s, y, hy, sy, n)
	}
}
