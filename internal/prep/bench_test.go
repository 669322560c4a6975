package prep

import (
	"sync"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
)

// benchGraph is RMAT-18, the graph of the benchmark gate's RMAT workloads,
// whose weights are all 1; benchGraphWeighted is it with random weights.
// benchRoad is a weighted 512x512 road lattice with 5% shortcuts, one of the
// undirected inputs of the gate's SSSP workload.
var (
	benchGraph         = sync.OnceValue(func() *graph.Graph { return gen.RMAT(gen.RMATOptions{Scale: 18, Seed: 1}) })
	benchGraphWeighted = sync.OnceValue(func() *graph.Graph { return gen.RMAT(gen.RMATOptions{Scale: 18, Seed: 1, Weighted: true}) })
	benchRoad          = sync.OnceValue(func() *graph.Graph {
		return gen.Road(gen.RoadOptions{Width: 512, Height: 512, ShortcutFraction: 0.05, Seed: 1, Weighted: true})
	})
)

// benchBuild reports a build's cost in ns per edge slot filled: the in+out
// build fills every edge's slot twice, and so does an undirected build
// every edge's but a self-loop's.
func benchBuild(b *testing.B, src *graph.Graph, dir Direction, opt Options) {
	var g *graph.Graph
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g = &graph.Graph{EdgeArray: src.EdgeArray, Directed: !opt.Undirected}
		if err := BuildAdjacency(g, dir, opt); err != nil {
			b.Fatal(err)
		}
	}
	slots := 0
	for _, adj := range []*graph.Adjacency{g.Out, g.In} {
		if adj != nil {
			slots += adj.NumEdges()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(slots), "ns/edge")
}

func BenchmarkBuildAdjacencyRadixIn(b *testing.B) { benchBuild(b, benchGraph(), In, Options{}) }
func BenchmarkBuildAdjacencyRadixInWeighted(b *testing.B) {
	benchBuild(b, benchGraphWeighted(), In, Options{})
}
func BenchmarkBuildAdjacencyRadixInOut(b *testing.B) { benchBuild(b, benchGraph(), InOut, Options{}) }
func BenchmarkBuildAdjacencyRadixUndirected(b *testing.B) {
	benchBuild(b, benchRoad(), Out, Options{Undirected: true})
}
func BenchmarkBuildAdjacencyCountSort(b *testing.B) {
	benchBuild(b, benchGraph(), In, Options{Method: CountSort})
}
