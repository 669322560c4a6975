package bench

import (
	"fmt"
	"strconv"

	eg "github.com/epfl-repro/everythinggraph"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/sched"
)

// The ablation experiments are not figures of the paper; they probe the
// design constants the paper states without showing the sweep: the 256x256
// grid ("we experimentally find that a grid of 256x256 cells performs
// best"), the |E|/20 direction-switch threshold inherited from
// Beamer/Ligra, and the thread scaling of the two propagation modes.
func init() {
	// Too few grid cells lose the cache benefit, too many pay construction
	// and scheduling overhead. A row names the requested P; its cells column
	// counts the grid Prepare built.
	register(Experiment{
		ID:    "ablation-grid",
		Title: "Ablation: grid dimension sweep for PageRank (the paper's 256x256 choice)",
		data:  rmat,
		heading: func(s Scale, _ *graph.Graph) string {
			return fmt.Sprintf("Ablation: grid dimension on RMAT%d (PageRank, %d iterations)", s.RMATScale, s.PagerankIterations)
		},
		columns: []string{"cells", "preprocess", "algorithm", "total"},
		cells: func(s Scale) []cell {
			var cells []cell
			for _, p := range []int{16, 32, 64, 128, 256} {
				cells = append(cells, cell{
					row: fmt.Sprintf("P=%d", p),
					cfg: eg.Config{Layout: eg.LayoutGrid, Flow: eg.FlowPull, Sync: eg.SyncPartitionFree, GridP: p},
					alg: pagerank(s),
				})
			}
			return cells
		},
		format: func(t table, c cell, g *eg.Graph, r *eg.Result) {
			writeTimes(t, c, g, r)
			t.set(c.row, map[string]string{"cells": strconv.Itoa(g.Internal().Grid.NumCells())})
		},
	})
	// alpha=1 effectively always pushes, a very large alpha pulls as soon as
	// the frontier has any volume; the sweep shows why the Ligra-style |E|/20
	// sits in the flat minimum.
	register(Experiment{
		ID:    "ablation-alpha",
		Title: "Ablation: push-pull switch threshold sweep for BFS (the |E|/20 heuristic)",
		data:  rmat,
		heading: func(s Scale, _ *graph.Graph) string {
			return fmt.Sprintf("Ablation: push-pull threshold |E|/alpha on RMAT%d (BFS)", s.RMATScale)
		},
		columns: []string{"pull-iterations", "algorithm"},
		cells: func(Scale) []cell {
			var cells []cell
			for _, alpha := range []int{1, 5, 20, 100, 1000} {
				cells = append(cells, cell{
					row: fmt.Sprintf("alpha=%d", alpha),
					cfg: eg.Config{Layout: eg.LayoutAdjacency, Flow: eg.FlowPushPull, Sync: eg.SyncAtomics, PushPullAlpha: alpha},
					alg: bfs,
				})
			}
			return cells
		},
		format: func(t table, c cell, g *eg.Graph, r *eg.Result) {
			pulls := 0
			for _, it := range r.Run.PerIteration {
				if it.Plan.Flow == eg.FlowPull {
					pulls++
				}
			}
			writeTimes(t, c, g, r)
			t.set(c.row, map[string]string{"pull-iterations": strconv.Itoa(pulls)})
		},
	})
	// The full construction-method x direction matrix on RMAT: Table 2 uses
	// the Twitter-profile graph, this confirms the ordering is not
	// dataset-specific.
	register(Experiment{
		ID:    "ablation-prep",
		Title: "Ablation: pre-processing method x direction matrix on RMAT",
		data:  rmat,
		heading: func(s Scale, _ *graph.Graph) string {
			return fmt.Sprintf("Ablation: construction method x direction on RMAT%d", s.RMATScale)
		},
		columns: []string{"out", "in", "in-out"},
		cells: func(Scale) []cell {
			var cells []cell
			for _, m := range methods {
				for _, dir := range []string{"out", "in", "in-out"} {
					cells = append(cells, cell{row: m.method.String(), col: dir, cfg: prepConfig(dir, m.method)})
				}
			}
			return cells
		},
	})
	// Lock removal is a scalability optimization, so its benefit grows with
	// the worker count (on the paper's 32-core machine, 40% of PageRank's
	// time was spent in locked sections). Each row's worker count also
	// builds its lists.
	register(Experiment{
		ID:    "ablation-workers",
		Title: "Ablation: worker scaling of push (locks) vs pull (no lock) PageRank",
		data:  rmat,
		heading: func(s Scale, _ *graph.Graph) string {
			return fmt.Sprintf("Ablation: worker scaling on RMAT%d (PageRank, %d iterations)", s.RMATScale, s.PagerankIterations)
		},
		columns: []string{"push-locks", "pull-no-lock"},
		cells: func(s Scale) []cell {
			maxW := sched.MaxWorkers()
			var counts []int
			for w := 1; w < maxW; w *= 2 {
				counts = append(counts, w)
			}
			var cells []cell
			for _, w := range append(counts, maxW) {
				row := fmt.Sprintf("workers=%d", w)
				cells = append(cells,
					cell{row: row, col: "push-locks", cfg: eg.Config{Layout: eg.LayoutAdjacency, Flow: eg.FlowPush, Sync: eg.SyncLocks, Workers: w}, alg: pagerank(s)},
					cell{row: row, col: "pull-no-lock", cfg: eg.Config{Layout: eg.LayoutAdjacency, Flow: eg.FlowPull, Sync: eg.SyncPartitionFree, Workers: w}, alg: pagerank(s)})
			}
			return cells
		},
	})
}
