package circuit_test

import (
	"testing"

	"accqoc/internal/circuit"
	"accqoc/internal/mapping"
	"accqoc/internal/topology"
	"accqoc/internal/workload"
)

// BenchmarkBuildDAG builds the DAG of the servebench pool's random-mix
// program mapped to Melbourne with swaps lowered, as the map2b4l serving
// path runs it.
func BenchmarkBuildDAG(b *testing.B) {
	dev := topology.Melbourne()
	p, err := workload.FromSpec("random:6:300:1")
	if err != nil {
		b.Fatal(err)
	}
	mapped, err := mapping.Map(p.Circuit.DecomposeCCX(), dev, mapping.Options{CrosstalkAware: true})
	if err != nil {
		b.Fatal(err)
	}
	phys, err := mapping.DecomposeSwaps(mapped.Mapped, dev)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		circuit.BuildDAG(phys)
	}
}
