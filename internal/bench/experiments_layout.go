package bench

import (
	"fmt"
	"io"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/core"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/metrics"
	"github.com/epfl-repro/everythinggraph/internal/prep"
)

func init() {
	register(Experiment{
		ID:    "fig3",
		Title: "Figure 3: data layout vs traversal model (BFS, PageRank, SpMV on adjacency lists vs edge array)",
		Run:   runFig3,
	})
	register(Experiment{
		ID:    "fig5",
		Title: "Figure 5: cache-related optimizations, end-to-end (unsorted/sorted adjacency, edge array, grid)",
		Run:   runFig5,
	})
}

// runFig3 compares vertex-centric computation on adjacency lists against
// edge-centric computation on the raw edge array for three algorithms with
// very different algorithm-time profiles.
func runFig3(s Scale, w io.Writer) error {
	base := rmatGraph(s)
	tbl := metrics.NewTable(
		fmt.Sprintf("Figure 3: layout vs traversal on RMAT%d (%d edges)", s.RMATScale, base.NumEdges()),
		"preprocess", "algorithm", "total")

	type algoCase struct {
		name string
		alg  func() core.Algorithm
	}
	cases := []algoCase{
		{"bfs", func() core.Algorithm { return algorithms.NewBFS(0) }},
		{"pagerank", func() core.Algorithm {
			pr := algorithms.NewPageRank()
			pr.Iterations = s.PagerankIterations
			return pr
		}},
		{"spmv", func() core.Algorithm { return algorithms.NewSpMV() }},
	}

	for _, c := range cases {
		// Vertex-centric on adjacency lists (radix-built, outgoing only).
		g := freshCopy(base)
		prepTime, err := buildAdjacencyTimed(g, prep.Out, prep.Options{Method: prep.RadixSort, Workers: s.Workers})
		if err != nil {
			return err
		}
		res, err := runAlgorithm(g, c.alg(), core.Config{
			Layout: graph.LayoutAdjacency, Flow: core.Push, Sync: core.SyncAtomics, Workers: s.Workers,
		})
		if err != nil {
			return err
		}
		tbl.AddRow(c.name+" / adj. list", breakdownRow(metrics.Breakdown{Preprocess: prepTime, Algorithm: res.AlgorithmTime}))

		// Edge-centric on the raw edge array (zero pre-processing).
		ge := freshCopy(base)
		resE, err := runAlgorithm(ge, c.alg(), core.Config{
			Layout: graph.LayoutEdgeArray, Flow: core.Push, Sync: core.SyncAtomics, Workers: s.Workers,
		})
		if err != nil {
			return err
		}
		tbl.AddRow(c.name+" / edge array", breakdownRow(metrics.Breakdown{Algorithm: resE.AlgorithmTime}))
	}
	return writeTable(w, tbl)
}

// runFig5 measures the end-to-end impact of the cache-locality layouts:
// unsorted adjacency, destination-sorted adjacency, raw edge array and the
// grid, for BFS and PageRank.
func runFig5(s Scale, w io.Writer) error {
	base := rmatGraph(s)
	tbl := metrics.NewTable(
		fmt.Sprintf("Figure 5: cache optimizations end-to-end on RMAT%d (%d edges)", s.RMATScale, base.NumEdges()),
		"preprocess", "algorithm", "total")

	type algoCase struct {
		name string
		alg  func() core.Algorithm
	}
	cases := []algoCase{
		{"bfs", func() core.Algorithm { return algorithms.NewBFS(0) }},
		{"pagerank", func() core.Algorithm {
			pr := algorithms.NewPageRank()
			pr.Iterations = s.PagerankIterations
			return pr
		}},
	}

	for _, c := range cases {
		// Unsorted adjacency list.
		{
			g := freshCopy(base)
			prepTime, err := buildAdjacencyTimed(g, prep.Out, prep.Options{Method: prep.RadixSort, Workers: s.Workers})
			if err != nil {
				return err
			}
			res, err := runAlgorithm(g, c.alg(), core.Config{Layout: graph.LayoutAdjacency, Flow: core.Push, Sync: core.SyncAtomics, Workers: s.Workers})
			if err != nil {
				return err
			}
			tbl.AddRow(c.name+" / adj. unsorted", breakdownRow(metrics.Breakdown{Preprocess: prepTime, Algorithm: res.AlgorithmTime}))
		}
		// Sorted adjacency list.
		{
			g := freshCopy(base)
			prepTime, err := buildAdjacencyTimed(g, prep.Out, prep.Options{Method: prep.RadixSort, Workers: s.Workers, SortNeighbors: true})
			if err != nil {
				return err
			}
			res, err := runAlgorithm(g, c.alg(), core.Config{Layout: graph.LayoutAdjacencySorted, Flow: core.Push, Sync: core.SyncAtomics, Workers: s.Workers})
			if err != nil {
				return err
			}
			tbl.AddRow(c.name+" / adj. sorted", breakdownRow(metrics.Breakdown{Preprocess: prepTime, Algorithm: res.AlgorithmTime}))
		}
		// Edge array.
		{
			g := freshCopy(base)
			res, err := runAlgorithm(g, c.alg(), core.Config{Layout: graph.LayoutEdgeArray, Flow: core.Push, Sync: core.SyncAtomics, Workers: s.Workers})
			if err != nil {
				return err
			}
			tbl.AddRow(c.name+" / edge array", breakdownRow(metrics.Breakdown{Algorithm: res.AlgorithmTime}))
		}
		// Grid.
		{
			g := freshCopy(base)
			prepTime, err := buildGridTimed(g, s.GridP, prep.Options{Method: prep.RadixSort, Workers: s.Workers})
			if err != nil {
				return err
			}
			res, err := runAlgorithm(g, c.alg(), core.Config{Layout: graph.LayoutGrid, Flow: core.Push, Sync: core.SyncPartitionFree, Workers: s.Workers})
			if err != nil {
				return err
			}
			tbl.AddRow(c.name+" / grid", breakdownRow(metrics.Breakdown{Preprocess: prepTime, Algorithm: res.AlgorithmTime}))
		}
	}
	return writeTable(w, tbl)
}
