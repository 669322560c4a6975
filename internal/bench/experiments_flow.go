package bench

import (
	"fmt"
	"strconv"

	eg "github.com/epfl-repro/everythinggraph"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/metrics"
)

func init() {
	// Figure 6 runs BFS in pure push mode and in pure pull mode and reports
	// the per-iteration algorithm time of each, showing the crossover in the
	// dense middle iterations that motivates the push-pull switch.
	register(Experiment{
		ID:    "fig6",
		Title: "Figure 6: per-iteration algorithm time, push vs pull, BFS on RMAT",
		data:  rmat,
		heading: func(s Scale, _ *graph.Graph) string {
			return fmt.Sprintf("Figure 6: per-iteration push vs pull, BFS on RMAT%d", s.RMATScale)
		},
		columns: []string{"active", "push", "pull"},
		cells: func(Scale) []cell {
			return []cell{
				{col: "push", cfg: eg.Config{Layout: eg.LayoutAdjacency, Flow: eg.FlowPush, Sync: eg.SyncAtomics}, alg: bfs},
				{col: "pull", cfg: eg.Config{Layout: eg.LayoutAdjacency, Flow: eg.FlowPull, Sync: eg.SyncPartitionFree}, alg: bfs},
			}
		},
		format: func(t table, c cell, _ *eg.Graph, r *eg.Result) {
			for i, it := range r.Run.PerIteration {
				v := map[string]string{c.col: metrics.FormatSeconds(it.Duration)}
				if c.col == "push" {
					v["active"] = strconv.Itoa(it.ActiveVertices)
				}
				t.set(fmt.Sprintf("iteration %d", i+1), v)
			}
		},
	})
	// Figure 7 compares BFS end-to-end on a directed graph under the three
	// flows: push-pull needs in and out lists, push (locks) out lists and
	// pull (no lock) in lists.
	register(Experiment{
		ID:    "fig7",
		Title: "Figure 7: BFS end-to-end with push-pull, push (locks) and pull (no lock) on adjacency lists",
		data:  rmat,
		heading: func(s Scale, _ *graph.Graph) string {
			return fmt.Sprintf("Figure 7: BFS flow configurations on RMAT%d (directed)", s.RMATScale)
		},
		columns: breakdownColumns,
		cells: func(Scale) []cell {
			return []cell{
				{row: "adj. push-pull", cfg: eg.Config{Layout: eg.LayoutAdjacency, Flow: eg.FlowPushPull, Sync: eg.SyncAtomics}, alg: bfs},
				{row: "adj. push (locks)", cfg: eg.Config{Layout: eg.LayoutAdjacency, Flow: eg.FlowPush, Sync: eg.SyncLocks}, alg: bfs},
				{row: "adj. pull (no lock)", cfg: eg.Config{Layout: eg.LayoutAdjacency, Flow: eg.FlowPull, Sync: eg.SyncPartitionFree}, alg: bfs},
			}
		},
	})
	// Figure 8 compares PageRank with and without locks on adjacency lists
	// and on the grid: pull-mode adjacency and column-owned grid execution
	// need no locks, which is where the gains come from. Grid push with
	// locks is the one grid executor's column-owned walk with each update
	// inside its destination's stripe lock, so the row prices the locks and
	// nothing else (its ranks are bit-identical to grid pull's).
	register(Experiment{
		ID:    "fig8",
		Title: "Figure 8: PageRank with and without locks on adjacency lists and grid",
		data:  rmat,
		heading: func(s Scale, _ *graph.Graph) string {
			return fmt.Sprintf("Figure 8: PageRank synchronization on RMAT%d (%d iterations)", s.RMATScale, s.PagerankIterations)
		},
		columns: breakdownColumns,
		cells: func(s Scale) []cell {
			pr := pagerank(s)
			return []cell{
				{row: "adj. push (locks)", cfg: eg.Config{Layout: eg.LayoutAdjacency, Flow: eg.FlowPush, Sync: eg.SyncLocks}, alg: pr},
				{row: "adj. pull (no lock)", cfg: eg.Config{Layout: eg.LayoutAdjacency, Flow: eg.FlowPull, Sync: eg.SyncPartitionFree}, alg: pr},
				{row: "grid (locks)", cfg: eg.Config{Layout: eg.LayoutGrid, Flow: eg.FlowPush, Sync: eg.SyncLocks}, alg: pr},
				{row: "grid (no lock)", cfg: eg.Config{Layout: eg.LayoutGrid, Flow: eg.FlowPull, Sync: eg.SyncPartitionFree}, alg: pr},
			}
		},
	})
}
