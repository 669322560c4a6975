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
		ID:    "fig6",
		Title: "Figure 6: per-iteration algorithm time, push vs pull, BFS on RMAT",
		Run:   runFig6,
	})
	register(Experiment{
		ID:    "fig7",
		Title: "Figure 7: BFS end-to-end with push-pull, push (locks) and pull (no lock) on adjacency lists",
		Run:   runFig7,
	})
	register(Experiment{
		ID:    "fig8",
		Title: "Figure 8: PageRank with and without locks on adjacency lists and grid",
		Run:   runFig8,
	})
}

// runFig6 runs BFS twice — once in pure push mode and once in pure pull
// mode — and reports the per-iteration algorithm time of each, showing the
// crossover in the dense middle iterations that motivates the push-pull
// switch.
func runFig6(s Scale, w io.Writer) error {
	base := rmatGraph(s)
	g := freshCopy(base)
	if err := prep.BuildAdjacency(g, prep.InOut, prep.Options{Method: prep.RadixSort, Workers: s.Workers}); err != nil {
		return err
	}

	bfsPush := algorithms.NewBFS(0)
	resPush, err := runAlgorithm(g, bfsPush, core.Config{
		Layout: graph.LayoutAdjacency, Flow: core.Push, Sync: core.SyncAtomics, Workers: s.Workers,
	})
	if err != nil {
		return err
	}
	bfsPull := algorithms.NewBFS(0)
	resPull, err := runAlgorithm(g, bfsPull, core.Config{
		Layout: graph.LayoutAdjacency, Flow: core.Pull, Sync: core.SyncPartitionFree, Workers: s.Workers,
	})
	if err != nil {
		return err
	}

	tbl := metrics.NewTable(
		fmt.Sprintf("Figure 6: per-iteration push vs pull, BFS on RMAT%d", s.RMATScale),
		"active", "push", "pull")
	iters := len(resPush.PerIteration)
	if len(resPull.PerIteration) > iters {
		iters = len(resPull.PerIteration)
	}
	for i := 0; i < iters; i++ {
		row := map[string]string{"active": "-", "push": "-", "pull": "-"}
		if i < len(resPush.PerIteration) {
			row["active"] = fmtCount(resPush.PerIteration[i].ActiveVertices)
			row["push"] = fmtDuration(resPush.PerIteration[i].Duration)
		}
		if i < len(resPull.PerIteration) {
			row["pull"] = fmtDuration(resPull.PerIteration[i].Duration)
		}
		tbl.AddRow(fmt.Sprintf("iteration %d", i+1), row)
	}
	return writeTable(w, tbl)
}

// runFig7 compares BFS end-to-end on a directed graph with the three flow
// configurations: push-pull (needs in+out lists), push with locks (out
// lists) and pull without locks (in lists).
func runFig7(s Scale, w io.Writer) error {
	base := rmatGraph(s)
	tbl := metrics.NewTable(
		fmt.Sprintf("Figure 7: BFS flow configurations on RMAT%d (directed)", s.RMATScale),
		"preprocess", "algorithm", "total")

	// Push-pull.
	{
		g := freshCopy(base)
		prepTime, err := buildAdjacencyTimed(g, prep.InOut, prep.Options{Method: prep.RadixSort, Workers: s.Workers})
		if err != nil {
			return err
		}
		res, err := runAlgorithm(g, algorithms.NewBFS(0), core.Config{
			Layout: graph.LayoutAdjacency, Flow: core.PushPull, Sync: core.SyncAtomics, Workers: s.Workers,
		})
		if err != nil {
			return err
		}
		tbl.AddRow("adj. push-pull", breakdownRow(metrics.Breakdown{Preprocess: prepTime, Algorithm: res.AlgorithmTime}))
	}
	// Push with locks.
	{
		g := freshCopy(base)
		prepTime, err := buildAdjacencyTimed(g, prep.Out, prep.Options{Method: prep.RadixSort, Workers: s.Workers})
		if err != nil {
			return err
		}
		res, err := runAlgorithm(g, algorithms.NewBFS(0), core.Config{
			Layout: graph.LayoutAdjacency, Flow: core.Push, Sync: core.SyncLocks, Workers: s.Workers,
		})
		if err != nil {
			return err
		}
		tbl.AddRow("adj. push (locks)", breakdownRow(metrics.Breakdown{Preprocess: prepTime, Algorithm: res.AlgorithmTime}))
	}
	// Pull without locks.
	{
		g := freshCopy(base)
		prepTime, err := buildAdjacencyTimed(g, prep.In, prep.Options{Method: prep.RadixSort, Workers: s.Workers})
		if err != nil {
			return err
		}
		res, err := runAlgorithm(g, algorithms.NewBFS(0), core.Config{
			Layout: graph.LayoutAdjacency, Flow: core.Pull, Sync: core.SyncPartitionFree, Workers: s.Workers,
		})
		if err != nil {
			return err
		}
		tbl.AddRow("adj. pull (no lock)", breakdownRow(metrics.Breakdown{Preprocess: prepTime, Algorithm: res.AlgorithmTime}))
	}
	return writeTable(w, tbl)
}

// runFig8 compares PageRank with and without locks on adjacency lists and on
// the grid: pull-mode adjacency and column-owned grid execution need no
// locks, which is where the gains come from.
func runFig8(s Scale, w io.Writer) error {
	base := rmatGraph(s)
	tbl := metrics.NewTable(
		fmt.Sprintf("Figure 8: PageRank synchronization on RMAT%d (%d iterations)", s.RMATScale, s.PagerankIterations),
		"preprocess", "algorithm", "total")

	newPR := func() *algorithms.PageRank {
		pr := algorithms.NewPageRank()
		pr.Iterations = s.PagerankIterations
		return pr
	}

	// Adjacency push with locks (out lists).
	{
		g := freshCopy(base)
		prepTime, err := buildAdjacencyTimed(g, prep.Out, prep.Options{Method: prep.RadixSort, Workers: s.Workers})
		if err != nil {
			return err
		}
		res, err := runAlgorithm(g, newPR(), core.Config{
			Layout: graph.LayoutAdjacency, Flow: core.Push, Sync: core.SyncLocks, Workers: s.Workers,
		})
		if err != nil {
			return err
		}
		tbl.AddRow("adj. push (locks)", breakdownRow(metrics.Breakdown{Preprocess: prepTime, Algorithm: res.AlgorithmTime}))
	}
	// Adjacency pull without locks (in lists).
	{
		g := freshCopy(base)
		prepTime, err := buildAdjacencyTimed(g, prep.In, prep.Options{Method: prep.RadixSort, Workers: s.Workers})
		if err != nil {
			return err
		}
		res, err := runAlgorithm(g, newPR(), core.Config{
			Layout: graph.LayoutAdjacency, Flow: core.Pull, Sync: core.SyncPartitionFree, Workers: s.Workers,
		})
		if err != nil {
			return err
		}
		tbl.AddRow("adj. pull (no lock)", breakdownRow(metrics.Breakdown{Preprocess: prepTime, Algorithm: res.AlgorithmTime}))
	}
	// Grid push with locks: the one grid executor's column-owned walk, each
	// update inside its destination's stripe lock, so the row prices the
	// locks and nothing else (its ranks are bit-identical to grid pull's).
	{
		g := freshCopy(base)
		prepTime, err := buildGridTimed(g, s.GridP, prep.Options{Method: prep.RadixSort, Workers: s.Workers})
		if err != nil {
			return err
		}
		res, err := runAlgorithm(g, newPR(), core.Config{
			Layout: graph.LayoutGrid, Flow: core.Push, Sync: core.SyncLocks, Workers: s.Workers,
		})
		if err != nil {
			return err
		}
		tbl.AddRow("grid (locks)", breakdownRow(metrics.Breakdown{Preprocess: prepTime, Algorithm: res.AlgorithmTime}))
	}
	// Grid pull without locks (column ownership).
	{
		g := freshCopy(base)
		prepTime, err := buildGridTimed(g, s.GridP, prep.Options{Method: prep.RadixSort, Workers: s.Workers})
		if err != nil {
			return err
		}
		res, err := runAlgorithm(g, newPR(), core.Config{
			Layout: graph.LayoutGrid, Flow: core.Pull, Sync: core.SyncPartitionFree, Workers: s.Workers,
		})
		if err != nil {
			return err
		}
		tbl.AddRow("grid (no lock)", breakdownRow(metrics.Breakdown{Preprocess: prepTime, Algorithm: res.AlgorithmTime}))
	}
	return writeTable(w, tbl)
}
