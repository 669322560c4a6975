package bench

import (
	"fmt"

	eg "github.com/epfl-repro/everythinggraph"
	"github.com/epfl-repro/everythinggraph/internal/graph"
)

func init() {
	// Figure 3 compares vertex-centric computation on (radix-built,
	// outgoing) adjacency lists against edge-centric computation on the raw
	// edge array, which needs no pre-processing, for three algorithms with
	// very different algorithm-time profiles.
	register(Experiment{
		ID:    "fig3",
		Title: "Figure 3: data layout vs traversal model (BFS, PageRank, SpMV on adjacency lists vs edge array)",
		data:  rmat,
		heading: func(s Scale, g *graph.Graph) string {
			return fmt.Sprintf("Figure 3: layout vs traversal on RMAT%d (%d edges)", s.RMATScale, g.NumEdges())
		},
		columns: breakdownColumns,
		cells: func(s Scale) []cell {
			return layoutCells(s, []string{"bfs", "pagerank", "spmv"}, []layoutCase{
				{"adj. list", eg.LayoutAdjacency, eg.SyncAtomics},
				{"edge array", eg.LayoutEdgeArray, eg.SyncAtomics},
			})
		},
	})
	// Figure 5 measures the end-to-end impact of the cache-locality layouts
	// for BFS and PageRank, all pushing.
	register(Experiment{
		ID:    "fig5",
		Title: "Figure 5: cache-related optimizations, end-to-end (unsorted/sorted adjacency, edge array, grid)",
		data:  rmat,
		heading: func(s Scale, g *graph.Graph) string {
			return fmt.Sprintf("Figure 5: cache optimizations end-to-end on RMAT%d (%d edges)", s.RMATScale, g.NumEdges())
		},
		columns: breakdownColumns,
		cells: func(s Scale) []cell {
			return layoutCells(s, []string{"bfs", "pagerank"}, []layoutCase{
				{"adj. unsorted", eg.LayoutAdjacency, eg.SyncAtomics},
				{"adj. sorted", eg.LayoutAdjacencySorted, eg.SyncAtomics},
				{"edge array", eg.LayoutEdgeArray, eg.SyncAtomics},
				{"grid", eg.LayoutGrid, eg.SyncPartitionFree},
			})
		},
	})
}

// breakdownColumns are the columns writeTimes fills for a cell without one.
var breakdownColumns = []string{"preprocess", "algorithm", "total"}

// layoutCase is one pushing layout of Figures 3 and 5.
type layoutCase struct {
	name   string
	layout eg.Layout
	sync   eg.Sync
}

// layoutCells crosses algorithms with layouts, one "alg / layout" row each.
func layoutCells(s Scale, algs []string, layouts []layoutCase) []cell {
	ctor := map[string]func() eg.Algorithm{"bfs": bfs, "pagerank": pagerank(s), "spmv": spmv}
	var cells []cell
	for _, a := range algs {
		for _, l := range layouts {
			cells = append(cells, cell{
				row: a + " / " + l.name,
				cfg: eg.Config{Layout: l.layout, Flow: eg.FlowPush, Sync: l.sync},
				alg: ctor[a],
			})
		}
	}
	return cells
}
