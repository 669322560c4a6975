package core

import (
	"fmt"
	"sync"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/prep"
	"github.com/epfl-repro/everythinggraph/internal/trace"
)

// benchGraph lazily builds the RMAT-scale-16 benchmark graph (65536
// vertices, ~1M edges) with out+in adjacency, shared by every benchmark in
// this file. Generation and pre-processing are excluded from timing.
var (
	benchGraphOnce sync.Once
	benchGraphVal  *graph.Graph
)

func rmat16(b *testing.B) *graph.Graph {
	b.Helper()
	benchGraphOnce.Do(func() {
		g := gen.RMAT(gen.RMATOptions{Scale: 16, EdgeFactor: 16, Seed: 42})
		if err := prep.BuildAdjacency(g, prep.InOut, prep.Options{Method: prep.RadixSort}); err != nil {
			panic(err)
		}
		benchGraphVal = g
	})
	return benchGraphVal
}

// BenchmarkPageRankRMAT16 measures a full 10-iteration PageRank run on
// adjacency lists in push mode with atomic destination updates — the
// configuration named by the zero-allocation acceptance criterion.
func BenchmarkPageRankRMAT16(b *testing.B) {
	g := rmat16(b)
	cfg := Config{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, algorithms.NewPageRank(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageRankIterRMAT16 measures the steady-state cost of ONE PageRank
// iteration: the run executes b.N iterations, so ns/op and allocs/op are
// per-iteration figures with setup amortized away. allocs/op must stay ~0.
func BenchmarkPageRankIterRMAT16(b *testing.B) {
	g := rmat16(b)
	cfg := Config{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics}
	pr := algorithms.NewPageRank()
	pr.Iterations = b.N
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := Run(g, pr, cfg); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPageRankTracedIterRMAT16 is BenchmarkPageRankIterRMAT16 with a
// run recorder attached: the enabled recording path — an iteration span per
// engine iteration into the preallocated ring — must not break the
// zero-allocation steady-state contract, and its ns/op overhead against the
// untraced case bounds the per-iteration tracing cost.
func BenchmarkPageRankTracedIterRMAT16(b *testing.B) {
	g := rmat16(b)
	cfg := Config{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics, Trace: trace.NewRecorder(0)}
	pr := algorithms.NewPageRank()
	pr.Iterations = b.N
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := Run(g, pr, cfg); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPageRankPullIterRMAT16 is the pull-mode (lock-free) counterpart
// of BenchmarkPageRankIterRMAT16.
func BenchmarkPageRankPullIterRMAT16(b *testing.B) {
	g := rmat16(b)
	cfg := Config{Layout: graph.LayoutAdjacency, Flow: Pull, Sync: SyncPartitionFree}
	pr := algorithms.NewPageRank()
	pr.Iterations = b.N
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := Run(g, pr, cfg); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBFSRMAT16 measures a full BFS traversal (adjacency, push,
// atomics) per op, exercising the tracked-frontier path end to end.
func BenchmarkBFSRMAT16(b *testing.B) {
	g := rmat16(b)
	cfg := Config{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, algorithms.NewBFS(0), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBFSPushPullRMAT16 measures direction-optimizing BFS, which
// exercises the densify/sparsify transitions of the reusable frontiers.
func BenchmarkBFSPushPullRMAT16(b *testing.B) {
	g := rmat16(b)
	cfg := Config{Layout: graph.LayoutAdjacency, Flow: PushPull, Sync: SyncAtomics}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, algorithms.NewBFS(0), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBFSAutoRMAT16 measures BFS under the adaptive execution planner
// (-flow auto): the acceptance bar is ns/op within 10% of
// BenchmarkBFSPushPullRMAT16, the best fixed configuration.
func BenchmarkBFSAutoRMAT16(b *testing.B) {
	g := rmat16(b)
	cfg := Config{Flow: Auto}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, algorithms.NewBFS(0), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageRankAutoIterRMAT16 measures one adaptive PageRank iteration;
// the planner freezes on the pull/partition-free plan, so ns/op and the
// zero-allocation contract must match BenchmarkPageRankPullIterRMAT16.
func BenchmarkPageRankAutoIterRMAT16(b *testing.B) {
	g := rmat16(b)
	cfg := Config{Flow: Auto}
	pr := algorithms.NewPageRank()
	pr.Iterations = b.N
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := Run(g, pr, cfg); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMultiBFS64RMAT16 measures the k=64 multi-source batch: one
// MultiBFS sweep answering 64 roots per op (adjacency, push, atomics),
// reported as ns per (source × edge) so it compares directly with
// BenchmarkBFSRMAT16's ns/op divided by the edge count; "iter" runs b.N
// fixed sweeps in one run, so its allocs/op is run setup divided by b.N and
// falls toward 0 as b.N grows.
func BenchmarkMultiBFS64RMAT16(b *testing.B) {
	g := rmat16(b)
	cfg := Config{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics}
	roots := make([]graph.VertexID, graph.MaxMultiWidth)
	for i := range roots {
		roots[i] = graph.VertexID((i*2654435761 + 1) % g.NumVertices())
	}
	b.Run("sweep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Run(g, algorithms.NewMultiBFS(roots), cfg); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(roots))/float64(g.NumEdges()), "ns/source-edge")
	})
	b.Run("iter", func(b *testing.B) {
		mb := algorithms.NewMultiBFS(roots)
		mb.Sweeps = b.N
		b.ReportAllocs()
		if _, err := Run(g, mb, cfg); err != nil {
			b.Fatal(err)
		}
	})
}

// Span-versus-adapter pairs: each benchmark runs b.N PageRank iterations
// under one configuration twice — through the algorithm's span kernels and
// through the per-edge adapter (the pre-span engine's cost: one dynamic call
// per edge) — and reports ns/edge, so a kernel regression shows as the
// "span" case closing on the "adapter" case.
func benchSpanPair(b *testing.B, g *graph.Graph, cfg Config) {
	paths := []struct {
		name string
		wrap func(Algorithm) Algorithm
	}{
		{"span", func(a Algorithm) Algorithm { return a }},
		{"adapter", func(a Algorithm) Algorithm { return perEdgeOnly{a} }},
	}
	for _, p := range paths {
		b.Run(p.name, func(b *testing.B) {
			pr := algorithms.NewPageRank()
			pr.Iterations = b.N
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := Run(g, p.wrap(pr), cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.NumEdges()), "ns/edge")
		})
	}
}

// rmat16Grid is the benchmark graph with only a grid attached (sharing the
// edge array), so the adjacency benchmarks' planner candidates stay as they
// were.
var rmat16Grid = sync.OnceValue(func() *graph.Graph {
	g := &graph.Graph{EdgeArray: benchGraphVal.EdgeArray, Directed: true}
	if err := prep.BuildGrid(g, 0, prep.Options{Method: prep.RadixSort}); err != nil {
		panic(err)
	}
	return g
})

func BenchmarkSpanCSRPull(b *testing.B) {
	benchSpanPair(b, rmat16(b), Config{Layout: graph.LayoutAdjacency, Flow: Pull, Sync: SyncPartitionFree})
}

func BenchmarkSpanCSRPushAtomics(b *testing.B) {
	benchSpanPair(b, rmat16(b), Config{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics})
}

func BenchmarkSpanGridCellPull(b *testing.B) {
	rmat16(b)
	benchSpanPair(b, rmat16Grid(), Config{Layout: graph.LayoutGrid, Flow: Pull, Sync: SyncPartitionFree})
}

func BenchmarkSpanEdgeArrayPush(b *testing.B) {
	benchSpanPair(b, rmat16(b), Config{Layout: graph.LayoutEdgeArray, Flow: Push, Sync: SyncAtomics})
}

// road512 is one of the gate's warm.sssp.road inputs: a weighted 512x512
// road lattice, its edges doubled into one out-adjacency.
var road512 = sync.OnceValue(func() *graph.Graph {
	g := gen.Road(gen.RoadOptions{Width: 512, Height: 512, ShortcutFraction: 0.05, Seed: 4, Weighted: true})
	if err := prep.BuildAdjacency(g, prep.Out, prep.Options{Method: prep.RadixSort, Undirected: true}); err != nil {
		panic(err)
	}
	return g
})

// BenchmarkSSSPRoad512 is the sparse-push scaling curve: one bucketed
// frontier SSSP per op (adjacency/push/atomics, iters/run iterations of a
// few hundred active vertices) at 1 and 2 workers. us/iter is what one
// sparse iteration costs; a traced run after the timed ones reports how
// often a pool worker parked and how many loops it joined, per gang loop.
func BenchmarkSSSPRoad512(b *testing.B) {
	g := road512()
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := Config{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics, Workers: workers}
			iters := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(g, algorithms.NewSSSP(0), cfg)
				if err != nil {
					b.Fatal(err)
				}
				iters += res.Iterations
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(iters), "us/iter")
			b.ReportMetric(float64(iters)/float64(b.N), "iters/run")
			cfg.Trace = trace.NewRecorder(0)
			res, err := Run(g, algorithms.NewSSSP(0), cfg)
			if err != nil {
				b.Fatal(err)
			}
			if loops, _ := res.Metrics.Get("sched.gang_loops"); loops > 0 {
				parks, _ := res.Metrics.Get("sched.parks")
				joins, _ := res.Metrics.Get("sched.gang_joins")
				b.ReportMetric(float64(parks)/float64(loops), "parks/loop")
				b.ReportMetric(float64(joins)/float64(loops), "joins/loop")
			}
		})
	}
}
