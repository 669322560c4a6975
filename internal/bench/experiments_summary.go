package bench

import (
	"fmt"
	"strconv"

	eg "github.com/epfl-repro/everythinggraph"
	"github.com/epfl-repro/everythinggraph/internal/graph"
)

func init() {
	// Table 1 reports the generated datasets' sizes at the scale, beside the
	// originals the paper used. Its cells prepare the edge array, which costs
	// nothing, and run nothing.
	register(Experiment{
		ID:      "table1",
		Title:   "Table 1: datasets used in the evaluation (generator presets at the configured scale)",
		heading: constHeading("Table 1: datasets (generated stand-ins; paper originals in parentheses)"),
		columns: []string{"vertices", "edges", "paper original"},
		cells: func(s Scale) []cell {
			return []cell{
				{row: fmt.Sprintf("RMAT%d", s.RMATScale), data: rmat},
				{row: "Twitter-profile", data: twitter},
				{row: "US-Road-profile", data: road},
				{row: "Netflix-profile", data: netflix},
			}
		},
		format: func(t table, c cell, g *eg.Graph, _ *eg.Result) {
			t.set(c.row, map[string]string{
				"vertices":       strconv.Itoa(g.NumVertices()),
				"edges":          strconv.Itoa(g.NumEdges()),
				"paper original": c.data.paper,
			})
		},
	})
	// Tables 5 and 6 run each algorithm on each dataset under the
	// configuration the paper found best end-to-end.
	register(Experiment{
		ID:      "table5",
		Title:   "Table 5: best end-to-end approaches for BFS and PageRank on the Twitter-profile and road graphs",
		heading: constHeading("Table 5: best approaches for BFS and PageRank"),
		columns: breakdownColumns,
		cells: func(s Scale) []cell {
			return []cell{
				{row: "bfs / twitter / adj. list / push", data: twitter, cfg: adjPush, alg: bfs},
				{row: "bfs / us-road / adj. list / push", data: road, cfg: adjPush, alg: bfs},
				{row: "pagerank / twitter / grid / pull (no lock)", data: twitter,
					cfg: eg.Config{Layout: eg.LayoutGrid, Flow: eg.FlowPull, Sync: eg.SyncPartitionFree}, alg: pagerank(s)},
				{row: "pagerank / us-road / edge array / pull", data: road,
					cfg: eg.Config{Layout: eg.LayoutEdgeArray, Flow: eg.FlowPull, Sync: eg.SyncAtomics}, alg: pagerank(s)},
			}
		},
	})
	register(Experiment{
		ID:      "table6",
		Title:   "Table 6: best end-to-end approaches for WCC, SpMV, SSSP and ALS",
		heading: constHeading("Table 6: best approaches for WCC, SpMV, SSSP and ALS"),
		columns: breakdownColumns,
		cells: func(s Scale) []cell {
			// WCC runs on the undirected view: edge arrays win on
			// low-diameter graphs (no undirected doubling cost), adjacency
			// lists on the high-diameter road graph.
			wccEdges, wccAdj := edgePush, adjPush
			wccEdges.Undirected, wccAdj.Undirected = &undirected, &undirected
			return []cell{
				{row: "wcc / rmat / edge array / push", data: rmat, cfg: wccEdges, alg: wcc},
				{row: "wcc / twitter / edge array / push", data: twitter, cfg: wccEdges, alg: wcc},
				{row: "wcc / us-road / adj. list / push", data: road, cfg: wccAdj, alg: wcc},
				// SpMV is a single pass: the edge array always.
				{row: "spmv / rmat / edge array / push", data: rmat, cfg: edgePush, alg: spmv},
				{row: "spmv / twitter / edge array / push", data: twitter, cfg: edgePush, alg: spmv},
				{row: "spmv / us-road / edge array / push", data: road, cfg: edgePush, alg: spmv},
				// SSSP: like BFS, adjacency lists with push.
				{row: "sssp / rmat / adj. list / push", data: rmat, cfg: adjPush, alg: sssp},
				{row: "sssp / twitter / adj. list / push", data: twitter, cfg: adjPush, alg: sssp},
				{row: "sssp / us-road / adj. list / push", data: road, cfg: adjPush, alg: sssp},
				// ALS on the bipartite rating graph: adjacency lists, pull, no lock.
				{row: "als / netflix / adj. list / pull (no lock)", data: netflix,
					cfg: eg.Config{Layout: eg.LayoutAdjacency, Flow: eg.FlowPull, Sync: eg.SyncPartitionFree},
					alg: func() eg.Algorithm {
						als := eg.ALS(s.BipartiteUsers)
						als.Sweeps = 3
						return als
					}},
			}
		},
	})
}

// undirected is the Config.Undirected WCC runs under on directed inputs.
var undirected = true

var (
	adjPush  = eg.Config{Layout: eg.LayoutAdjacency, Flow: eg.FlowPush, Sync: eg.SyncAtomics}
	edgePush = eg.Config{Layout: eg.LayoutEdgeArray, Flow: eg.FlowPush, Sync: eg.SyncAtomics}
)

// constHeading is the heading of a table whose title does not depend on the
// scale.
func constHeading(title string) func(Scale, *graph.Graph) string {
	return func(Scale, *graph.Graph) string { return title }
}
