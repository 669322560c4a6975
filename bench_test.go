package everythinggraph

// One testing.B benchmark per figure/table of the paper's evaluation, except
// the NUMA study of Section 7 (Figures 9 and 10), which needs a multi-socket
// host, and Table 3's loading from an SSD and an HDD, which needs those
// devices; neither is reproduced. Each benchmark delegates to the corresponding
// experiment driver in internal/bench at a reduced scale (so `go test
// -bench=.` completes in minutes rather than hours); cmd/benchrunner runs the
// same drivers at the full default scale (README, "Benchmarks").
//
// The benchmarks intentionally measure one full experiment per iteration —
// including workload generation and pre-processing — because the paper's
// subject is precisely the end-to-end cost, not the steady-state algorithm
// throughput.

import (
	"io"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/bench"
)

// benchScale is the workload scale used by the testing.B benchmarks: larger
// than the unit-test Quick scale so layout effects are visible, smaller than
// the benchrunner Default scale so the whole suite stays tractable.
var benchScale = bench.Scale{
	RMATScale:          16,
	RMATEdgeFactor:     16,
	TwitterScale:       16,
	RoadWidth:          384,
	RoadHeight:         384,
	BipartiteUsers:     20000,
	BipartiteItems:     2000,
	BipartiteRatings:   24,
	PagerankIterations: 10,
	Seed:               42,
	CacheTraceEdges:    1 << 20,
}

// runExperiment executes one experiment driver b.N times.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(benchScale, io.Discard); err != nil {
			b.Fatalf("experiment %s: %v", id, err)
		}
	}
}

// BenchmarkFig1PushPullTradeoff reproduces Figure 1: BFS push-pull vs push
// on the Twitter-profile graph, end to end.
func BenchmarkFig1PushPullTradeoff(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkTable2AdjacencyBuild reproduces Table 2: adjacency-list creation
// cost with dynamic building, count sort and radix sort, plus LLC miss
// ratios.
func BenchmarkTable2AdjacencyBuild(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig2PrepScaling reproduces Figure 2: pre-processing time vs RMAT
// graph size for the three construction methods.
func BenchmarkFig2PrepScaling(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFig3LayoutTraversal reproduces Figure 3: BFS, PageRank and SpMV
// on adjacency lists vs the edge array.
func BenchmarkFig3LayoutTraversal(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkTable4CacheMiss reproduces Table 4: LLC miss ratios of the four
// data layouts under BFS-like and PageRank-like metadata footprints.
func BenchmarkTable4CacheMiss(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkFig5CacheLayouts reproduces Figure 5: end-to-end impact of the
// cache-locality layouts (sorted/unsorted adjacency, edge array, grid).
func BenchmarkFig5CacheLayouts(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6PushPullPerIter reproduces Figure 6: per-iteration push vs
// pull times for BFS.
func BenchmarkFig6PushPullPerIter(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7BFSFlow reproduces Figure 7: BFS with push-pull, push (locks)
// and pull (no lock) on adjacency lists.
func BenchmarkFig7BFSFlow(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8PagerankSync reproduces Figure 8: PageRank with and without
// locks on adjacency lists and the grid.
func BenchmarkFig8PagerankSync(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkTable5Best reproduces Table 5: best end-to-end approaches for BFS
// and PageRank on the Twitter-profile and road graphs.
func BenchmarkTable5Best(b *testing.B) { runExperiment(b, "table5") }

// BenchmarkTable6Best reproduces Table 6: best end-to-end approaches for
// WCC, SpMV, SSSP and ALS.
func BenchmarkTable6Best(b *testing.B) { runExperiment(b, "table6") }

// BenchmarkTable1Datasets reports the generated dataset sizes (Table 1).
func BenchmarkTable1Datasets(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkAblationGrid sweeps the grid dimension (the paper's 256x256
// choice, Section 5.1).
func BenchmarkAblationGrid(b *testing.B) { runExperiment(b, "ablation-grid") }

// BenchmarkAblationAlpha sweeps the push-pull switch threshold (the |E|/20
// heuristic of Section 6).
func BenchmarkAblationAlpha(b *testing.B) { runExperiment(b, "ablation-alpha") }

// BenchmarkAblationPrep reports the construction-method x direction matrix
// on RMAT (complements Table 2).
func BenchmarkAblationPrep(b *testing.B) { runExperiment(b, "ablation-prep") }

// BenchmarkAblationWorkers scales the worker count for PageRank with and
// without locks (Section 6.1.2).
func BenchmarkAblationWorkers(b *testing.B) { runExperiment(b, "ablation-workers") }
