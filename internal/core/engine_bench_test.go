package core

import (
	"fmt"
	"sync"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/prep"
	"github.com/epfl-repro/everythinggraph/internal/sched"
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

var (
	benchUndirectedOnce sync.Once
	benchUndirectedVal  *graph.Graph
)

// rmat16Undirected is rmat16's edge list read as an undirected graph, the
// input WCC needs: one mirrored adjacency serves push and pull.
func rmat16Undirected(b *testing.B) *graph.Graph {
	b.Helper()
	benchUndirectedOnce.Do(func() {
		g := gen.RMAT(gen.RMATOptions{Scale: 16, EdgeFactor: 16, Seed: 42})
		g.Directed = false
		if err := prep.BuildAdjacency(g, prep.Out, prep.Options{Method: prep.RadixSort, Undirected: true}); err != nil {
			panic(err)
		}
		benchUndirectedVal = g
	})
	return benchUndirectedVal
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
// of BenchmarkPageRankIterRMAT16: the dense pull kernel plus the one vertex
// sweep that ends each iteration, in ns/edge.
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
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.NumEdges()), "ns/edge")
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
// (-flow auto), which pulls on the dense middle levels and keeps pulling
// while its pulls keep halving. BenchmarkBFSPushPullRMAT16's static
// |E|/alpha threshold pushes the tail instead: on 2 CPUs, five runs each,
// Auto took 0.78–1.00 ms per op and push-pull 1.02–1.34 ms.
func BenchmarkBFSAutoRMAT16(b *testing.B) {
	benchAuto(b, rmat16(b), func() Algorithm { return algorithms.NewBFS(0) })
}

// BenchmarkWCCAutoRMAT16 measures WCC under the adaptive planner on RMAT-16
// read as undirected: two dense pulls, then pushes. Its pulls rescan every
// row, so they never halve, and the planner must not keep it in pull.
func BenchmarkWCCAutoRMAT16(b *testing.B) {
	benchAuto(b, rmat16Undirected(b), func() Algorithm { return algorithms.NewWCC() })
}

// BenchmarkSSSPAutoRMAT16 measures SSSP from vertex 0 under the adaptive
// planner on RMAT-16 (unit weights).
func BenchmarkSSSPAutoRMAT16(b *testing.B) {
	benchAuto(b, rmat16(b), func() Algorithm { return algorithms.NewSSSP(0) })
}

// benchAuto times one full adaptive run of a fresh algorithm per op.
func benchAuto(b *testing.B, g *graph.Graph, alg func() Algorithm) {
	cfg := Config{Flow: Auto}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, alg(), cfg); err != nil {
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

// BenchmarkBatch64 answers 64 single-source queries per op through Batch,
// one sub-benchmark per case: adaptive BFS and push-only BFS on RMAT-16,
// and push-only SSSP on a weighted 256x256 road lattice. Each case runs
// twice: "lanes" is Batch's own dispatch (side by side, one-worker leases
// once there are as many sources as workers), "sequential" the same runs
// one after another on a caller-held lease of every worker. The pair is the
// measurement behind that dispatch.
func BenchmarkBatch64(b *testing.B) {
	push := Config{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics}
	road := func(b *testing.B) *graph.Graph {
		g := gen.Road(gen.RoadOptions{Width: 256, Height: 256, ShortcutFraction: 0.05, Seed: 4, Weighted: true})
		if err := prep.BuildAdjacency(g, prep.Out, prep.Options{Method: prep.RadixSort}); err != nil {
			b.Fatal(err)
		}
		return g
	}
	cases := []struct {
		name  string
		graph func(*testing.B) *graph.Graph
		kind  BatchKind
		cfg   Config
	}{
		{"bfs-auto-rmat16", rmat16, BatchBFS, Config{Flow: Auto}},
		{"sssp-push-road256", road, BatchSSSP, push},
		{"bfs-push-rmat16", rmat16, BatchBFS, push},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			g := c.graph(b)
			roots := make([]graph.VertexID, 64)
			for i := range roots {
				roots[i] = graph.VertexID((i*2654435761 + 1) % g.NumVertices())
			}
			for _, sequential := range []bool{false, true} {
				name := "lanes"
				if sequential {
					name = "sequential"
				}
				b.Run(name, func(b *testing.B) {
					cfg := c.cfg
					if sequential {
						lease := sched.DefaultPool().Lease(sched.MaxWorkers())
						defer lease.Release()
						cfg.Lease = lease
					}
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := Batch(g, c.kind, roots, cfg); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// Span benchmarks: each runs b.N PageRank iterations under one
// configuration through the algorithm's span kernels ("span") and reports
// ns/edge. Given a locks twin, it runs the same layout and flow under
// SyncLocks as well ("locks": one PushEdge call per edge inside the
// destination's stripe lock), so what the locks cost per edge shows beside
// the kernel.
func benchSpan(b *testing.B, g *graph.Graph, cfg Config, locksTwin bool) {
	run := func(name string, sync SyncMode) {
		b.Run(name, func(b *testing.B) {
			cfg := cfg
			cfg.Sync = sync
			pr := algorithms.NewPageRank()
			pr.Iterations = b.N
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := Run(g, pr, cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.NumEdges()), "ns/edge")
		})
	}
	run("span", cfg.Sync)
	if locksTwin {
		run("locks", SyncLocks)
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

// BenchmarkSpanCSRPull has no locks twin: pull rows own their destinations
// under every sync mode, so SyncLocks runs the same kernel.
func BenchmarkSpanCSRPull(b *testing.B) {
	benchSpan(b, rmat16(b), Config{Layout: graph.LayoutAdjacency, Flow: Pull, Sync: SyncPartitionFree}, false)
}

func BenchmarkSpanCSRPushAtomics(b *testing.B) {
	benchSpan(b, rmat16(b), Config{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics}, true)
}

// BenchmarkSpanGridCellPull's locks twin runs the grid's cells in parallel,
// each as locked pushes, where the span case owns whole columns.
func BenchmarkSpanGridCellPull(b *testing.B) {
	rmat16(b)
	benchSpan(b, rmat16Grid(), Config{Layout: graph.LayoutGrid, Flow: Pull, Sync: SyncPartitionFree}, true)
}

func BenchmarkSpanEdgeArrayPush(b *testing.B) {
	benchSpan(b, rmat16(b), Config{Layout: graph.LayoutEdgeArray, Flow: Push, Sync: SyncAtomics}, true)
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
// sparse iteration costs; a traced run after the timed ones reports the
// share of iterations handed to the gang (loops/iter — iterations below
// callerPushEdges run on the caller) and, per gang loop, how often a pool
// worker parked and how many loops it joined.
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
			loops, _ := res.Metrics.Get("sched.gang_loops")
			b.ReportMetric(float64(loops)/float64(res.Iterations), "loops/iter")
			if loops > 0 {
				parks, _ := res.Metrics.Get("sched.parks")
				joins, _ := res.Metrics.Get("sched.gang_joins")
				b.ReportMetric(float64(parks)/float64(loops), "parks/loop")
				b.ReportMetric(float64(joins)/float64(loops), "joins/loop")
			}
		})
	}
}
