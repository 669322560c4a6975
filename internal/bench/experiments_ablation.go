package bench

import (
	"fmt"
	"io"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/core"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/metrics"
	"github.com/epfl-repro/everythinggraph/internal/prep"
	"github.com/epfl-repro/everythinggraph/internal/sched"
)

// The ablation experiments are not figures of the paper; they probe the
// design constants the paper states without showing the sweep: the 256x256
// grid ("we experimentally find that a grid of 256x256 cells performs
// best"), the |E|/20 direction-switch threshold inherited from
// Beamer/Ligra, the chunked work distribution ("large enough chunks to
// reduce the work distribution overheads"), and the thread scaling of the
// two propagation modes.
func init() {
	register(Experiment{
		ID:    "ablation-grid",
		Title: "Ablation: grid dimension sweep for PageRank (the paper's 256x256 choice)",
		Run:   runAblationGrid,
	})
	register(Experiment{
		ID:    "ablation-alpha",
		Title: "Ablation: push-pull switch threshold sweep for BFS (the |E|/20 heuristic)",
		Run:   runAblationAlpha,
	})
	register(Experiment{
		ID:    "ablation-prep",
		Title: "Ablation: pre-processing method x direction matrix on RMAT",
		Run:   runAblationPrep,
	})
	register(Experiment{
		ID:    "ablation-workers",
		Title: "Ablation: worker scaling of push (locks) vs pull (no lock) PageRank",
		Run:   runAblationWorkers,
	})
}

// runAblationGrid sweeps the grid dimension P and reports construction and
// PageRank execution time for each: too few cells lose the cache benefit,
// too many cells pay construction and scheduling overhead.
func runAblationGrid(s Scale, w io.Writer) error {
	base := rmatGraph(s)
	tbl := metrics.NewTable(
		fmt.Sprintf("Ablation: grid dimension on RMAT%d (PageRank, %d iterations)", s.RMATScale, s.PagerankIterations),
		"cells", "preprocess", "algorithm", "total")

	for _, p := range []int{16, 32, 64, 128, 256} {
		g := freshCopy(base)
		prepTime, err := buildGridTimed(g, p, prep.Options{Method: prep.RadixSort, Workers: s.Workers})
		if err != nil {
			return err
		}
		pr := algorithms.NewPageRank()
		pr.Iterations = s.PagerankIterations
		res, err := runAlgorithm(g, pr, core.Config{
			Layout: graph.LayoutGrid, Flow: core.Pull, Sync: core.SyncPartitionFree, Workers: s.Workers,
		})
		if err != nil {
			return err
		}
		b := metrics.Breakdown{Preprocess: prepTime, Algorithm: res.AlgorithmTime}
		tbl.AddRow(fmt.Sprintf("P=%d", g.Grid.P), map[string]string{
			"cells":      fmtCount(g.Grid.NumCells()),
			"preprocess": fmtDuration(b.Preprocess),
			"algorithm":  fmtDuration(b.Algorithm),
			"total":      fmtDuration(b.Total()),
		})
	}
	return writeTable(w, tbl)
}

// runAblationAlpha sweeps the direction-optimizing threshold denominator:
// alpha=1 effectively always pushes, very large alpha pulls as soon as the
// frontier has any volume. The sweep shows why the Ligra-style |E|/20 sits
// in the flat minimum.
func runAblationAlpha(s Scale, w io.Writer) error {
	base := rmatGraph(s)
	g := freshCopy(base)
	if err := prep.BuildAdjacency(g, prep.InOut, prep.Options{Method: prep.RadixSort, Workers: s.Workers}); err != nil {
		return err
	}
	tbl := metrics.NewTable(
		fmt.Sprintf("Ablation: push-pull threshold |E|/alpha on RMAT%d (BFS)", s.RMATScale),
		"pull-iterations", "algorithm")

	for _, alpha := range []int{1, 5, 20, 100, 1000} {
		bfs := algorithms.NewBFS(0)
		res, err := runAlgorithm(g, bfs, core.Config{
			Layout: graph.LayoutAdjacency, Flow: core.PushPull, Sync: core.SyncAtomics,
			Workers: s.Workers, PushPullAlpha: alpha,
		})
		if err != nil {
			return err
		}
		pulls := 0
		for _, it := range res.PerIteration {
			if it.Plan.Flow == core.Pull {
				pulls++
			}
		}
		tbl.AddRow(fmt.Sprintf("alpha=%d", alpha), map[string]string{
			"pull-iterations": fmtCount(pulls),
			"algorithm":       fmtDuration(res.AlgorithmTime),
		})
	}
	return writeTable(w, tbl)
}

// runAblationPrep reports the full construction-method x direction matrix on
// the RMAT graph (Table 2 uses the Twitter-profile graph; this ablation
// confirms the ordering is not dataset-specific).
func runAblationPrep(s Scale, w io.Writer) error {
	base := rmatGraph(s)
	tbl := metrics.NewTable(
		fmt.Sprintf("Ablation: construction method x direction on RMAT%d", s.RMATScale),
		"out", "in", "in-out")

	for _, m := range []prep.Method{prep.Dynamic, prep.CountSort, prep.RadixSort} {
		row := map[string]string{}
		for _, d := range []struct {
			col string
			dir prep.Direction
		}{
			{"out", prep.Out}, {"in", prep.In}, {"in-out", prep.InOut},
		} {
			g := freshCopy(base)
			dur, err := buildAdjacencyTimed(g, d.dir, prep.Options{Method: m, Workers: s.Workers})
			if err != nil {
				return err
			}
			row[d.col] = fmtDuration(dur)
		}
		tbl.AddRow(m.String(), row)
	}
	return writeTable(w, tbl)
}

// runAblationWorkers scales the worker count for PageRank in the two
// synchronization regimes. Lock removal is precisely a scalability
// optimization, so its benefit grows with the worker count (on the paper's
// 32-core machine, 40% of PageRank's time was spent in locked sections).
func runAblationWorkers(s Scale, w io.Writer) error {
	base := rmatGraph(s)
	gPush := freshCopy(base)
	if err := prep.BuildAdjacency(gPush, prep.Out, prep.Options{Method: prep.RadixSort, Workers: s.Workers}); err != nil {
		return err
	}
	gPull := freshCopy(base)
	if err := prep.BuildAdjacency(gPull, prep.In, prep.Options{Method: prep.RadixSort, Workers: s.Workers}); err != nil {
		return err
	}

	tbl := metrics.NewTable(
		fmt.Sprintf("Ablation: worker scaling on RMAT%d (PageRank, %d iterations)", s.RMATScale, s.PagerankIterations),
		"push-locks", "pull-no-lock")

	maxW := sched.MaxWorkers()
	var workerCounts []int
	for w := 1; w < maxW; w *= 2 {
		workerCounts = append(workerCounts, w)
	}
	workerCounts = append(workerCounts, maxW)
	for _, workers := range workerCounts {
		prPush := algorithms.NewPageRank()
		prPush.Iterations = s.PagerankIterations
		resPush, err := runAlgorithm(gPush, prPush, core.Config{
			Layout: graph.LayoutAdjacency, Flow: core.Push, Sync: core.SyncLocks, Workers: workers,
		})
		if err != nil {
			return err
		}
		prPull := algorithms.NewPageRank()
		prPull.Iterations = s.PagerankIterations
		resPull, err := runAlgorithm(gPull, prPull, core.Config{
			Layout: graph.LayoutAdjacency, Flow: core.Pull, Sync: core.SyncPartitionFree, Workers: workers,
		})
		if err != nil {
			return err
		}
		tbl.AddRow(fmt.Sprintf("workers=%d", workers), map[string]string{
			"push-locks":   fmtDuration(resPush.AlgorithmTime),
			"pull-no-lock": fmtDuration(resPull.AlgorithmTime),
		})
	}
	return writeTable(w, tbl)
}
