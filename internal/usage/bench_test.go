package usage

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkRecordRequestAtCap files request windows shaped like the warm
// serving pool's three programs — 60, 57 and 69 unique groups, so 1770 +
// 1596 + 2346 = 5712 pairs against the default PairCap of 4096 — with a
// ledger already at its cap, so requests keep displacing pairs
// (displaced/op reports how many). Keys are one-qubit canonical keys
// (~70 bytes, "2x2:" and four quantized complex entries).
func BenchmarkRecordRequestAtCap(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var windows [3][]string
	for w, n := range []int{60, 57, 69} {
		for i := 0; i < n; i++ {
			key := "2x2:"
			for e := 0; e < 4; e++ {
				key += fmt.Sprintf("%.5f,%.5f;", 2*rng.Float64()-1, 2*rng.Float64()-1)
			}
			windows[w] = append(windows[w], key)
		}
	}
	l := NewLedger(Options{})
	for _, w := range windows {
		l.RecordRequest(w)
	}
	dropped := l.Stats().DroppedPairs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.RecordRequest(windows[i%3])
	}
	b.StopTimer()
	b.ReportMetric(float64(l.Stats().DroppedPairs-dropped)/float64(b.N), "displaced/op")
}
