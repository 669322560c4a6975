package prep

import (
	"sync"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
)

// benchGraph is RMAT-18, the graph of the benchmark gate's RMAT workloads,
// whose weights are all 1; benchGraphWeighted is it with random weights.
var (
	benchGraph         = sync.OnceValue(func() *graph.Graph { return gen.RMAT(gen.RMATOptions{Scale: 18, Seed: 1}) })
	benchGraphWeighted = sync.OnceValue(func() *graph.Graph { return gen.RMAT(gen.RMATOptions{Scale: 18, Seed: 1, Weighted: true}) })
)

// benchBuild reports a build's cost in ns per edge slot filled (the in+out
// build fills every slot twice).
func benchBuild(b *testing.B, src *graph.Graph, dir Direction, method Method) {
	slots := src.NumEdges()
	if dir == InOut {
		slots *= 2
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := &graph.Graph{EdgeArray: src.EdgeArray, Directed: true}
		if err := BuildAdjacency(g, dir, Options{Method: method}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(slots), "ns/edge")
}

func BenchmarkBuildAdjacencyRadixIn(b *testing.B) { benchBuild(b, benchGraph(), In, RadixSort) }
func BenchmarkBuildAdjacencyRadixInWeighted(b *testing.B) {
	benchBuild(b, benchGraphWeighted(), In, RadixSort)
}
func BenchmarkBuildAdjacencyRadixInOut(b *testing.B) { benchBuild(b, benchGraph(), InOut, RadixSort) }
func BenchmarkBuildAdjacencyCountSort(b *testing.B)  { benchBuild(b, benchGraph(), In, CountSort) }
