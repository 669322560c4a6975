package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/core"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/metrics"
	"github.com/epfl-repro/everythinggraph/internal/numa"
	"github.com/epfl-repro/everythinggraph/internal/prep"
)

func init() {
	register(Experiment{
		ID:    "fig9",
		Title: "Figure 9: NUMA-aware partitioning vs interleaving on machines A and B (BFS and PageRank on RMAT)",
		Run:   runFig9,
	})
	register(Experiment{
		ID:    "fig10",
		Title: "Figure 10: NUMA-aware BFS on the high-diameter road graph (memory contention pathologies)",
		Run:   runFig10,
	})
}

// numaCase runs one algorithm on one graph and produces the four rows of a
// NUMA comparison: {machine A, machine B} x {interleaved, NUMA-aware}. The
// algorithm is executed once per machine row pair (the interleaved
// measurement); the NUMA-aware algorithm time is modeled from the measured
// run, the partition's locality and the frontier concentration profile
// (README, "Benchmarks", NUMA). The partitioning cost itself is
// real work: the per-node subgraphs are actually built and timed.
func numaCase(tbl *metrics.Table, label string, g *graph.Graph, prepTime time.Duration,
	alg func() core.Algorithm, cfg core.Config, s Scale) error {
	cfg.RecordFrontiers = true
	cfg.Workers = s.Workers

	outDeg := g.EdgeArray.OutDegrees()

	for _, machine := range []numa.Machine{numa.MachineA, numa.MachineB} {
		// Interleaved run: this is the measured execution.
		res, err := runAlgorithm(g, alg(), cfg)
		if err != nil {
			return err
		}
		tbl.AddRow(fmt.Sprintf("%s / machine %s / interleaved", label, machine.Name),
			breakdownRow(metrics.Breakdown{Preprocess: prepTime, Algorithm: res.AlgorithmTime}))

		// NUMA-aware: partition (timed, real work), then model the
		// algorithm time from the measured run.
		var part *numa.Partition
		var sub *numa.NodeSubgraphs
		partTime := timed(func() {
			var perr error
			part, perr = numa.PartitionGemini(g, machine.Nodes)
			if perr != nil {
				panic(perr)
			}
			sub = numa.BuildNodeSubgraphs(g, part, s.Workers)
		})
		_ = sub

		prof := numa.ProfileFrontiers(part, res.FrontierHistory, outDeg)
		in := numa.ModelInput{
			Measured:      res.AlgorithmTime,
			LocalFraction: numa.AccessLocalFraction(g, part),
			Profile:       prof,
		}
		modeled := machine.ModelAlgorithmTime(in, numa.PlacementNUMAAware)
		tbl.AddRow(fmt.Sprintf("%s / machine %s / numa-aware", label, machine.Name),
			breakdownRow(metrics.Breakdown{Preprocess: prepTime, Partition: partTime, Algorithm: modeled}))
	}
	return nil
}

// runFig9 reproduces the machine A / machine B comparison for BFS
// (direction-optimizing, the best algorithm-time configuration) and
// PageRank (pull without locks).
func runFig9(s Scale, w io.Writer) error {
	base := rmatGraph(s)
	tbl := metrics.NewTable(
		fmt.Sprintf("Figure 9: NUMA placement on RMAT%d", s.RMATScale),
		"preprocess", "partition", "algorithm", "total")

	// BFS: push-pull needs both adjacency directions.
	{
		g := freshCopy(base)
		prepTime, err := buildAdjacencyTimed(g, prep.InOut, prep.Options{Method: prep.RadixSort, Workers: s.Workers})
		if err != nil {
			return err
		}
		err = numaCase(tbl, "bfs", g, prepTime,
			func() core.Algorithm { return algorithms.NewBFS(0) },
			core.Config{Layout: graph.LayoutAdjacency, Flow: core.PushPull, Sync: core.SyncAtomics}, s)
		if err != nil {
			return err
		}
	}
	// PageRank: pull without locks on incoming lists.
	{
		g := freshCopy(base)
		prepTime, err := buildAdjacencyTimed(g, prep.In, prep.Options{Method: prep.RadixSort, Workers: s.Workers})
		if err != nil {
			return err
		}
		err = numaCase(tbl, "pagerank", g, prepTime,
			func() core.Algorithm {
				pr := algorithms.NewPageRank()
				pr.Iterations = s.PagerankIterations
				return pr
			},
			core.Config{Layout: graph.LayoutAdjacency, Flow: core.Pull, Sync: core.SyncPartitionFree}, s)
		if err != nil {
			return err
		}
	}
	return writeTable(w, tbl)
}

// runFig10 runs BFS on the high-diameter road graph on machine B: the tiny,
// spatially clustered frontiers make NUMA-aware placement both pay a large
// partitioning cost and suffer memory contention, so it loses badly to
// interleaving.
func runFig10(s Scale, w io.Writer) error {
	base := roadGraph(s)
	tbl := metrics.NewTable(
		fmt.Sprintf("Figure 10: BFS on road graph (%dx%d lattice), machine B", s.RoadWidth, s.RoadHeight),
		"preprocess", "partition", "algorithm", "total")

	g := freshCopy(base)
	prepTime, err := buildAdjacencyTimed(g, prep.Out,
		prep.Options{Method: prep.RadixSort, Workers: s.Workers, Undirected: true})
	if err != nil {
		return err
	}

	cfg := core.Config{
		Layout: graph.LayoutAdjacency, Flow: core.Push, Sync: core.SyncAtomics,
		Workers: s.Workers, RecordFrontiers: true,
	}
	machine := numa.MachineB
	outDeg := g.EdgeArray.OutDegrees()

	res, err := runAlgorithm(g, algorithms.NewBFS(0), cfg)
	if err != nil {
		return err
	}
	tbl.AddRow("bfs / machine B / interleaved",
		breakdownRow(metrics.Breakdown{Preprocess: prepTime, Algorithm: res.AlgorithmTime}))

	var part *numa.Partition
	partTime := timed(func() {
		var perr error
		part, perr = numa.PartitionGemini(g, machine.Nodes)
		if perr != nil {
			panic(perr)
		}
		numa.BuildNodeSubgraphs(g, part, s.Workers)
	})
	prof := numa.ProfileFrontiers(part, res.FrontierHistory, outDeg)
	modeled := machine.ModelAlgorithmTime(numa.ModelInput{
		Measured:      res.AlgorithmTime,
		LocalFraction: numa.AccessLocalFraction(g, part),
		Profile:       prof,
	}, numa.PlacementNUMAAware)
	tbl.AddRow("bfs / machine B / numa-aware",
		breakdownRow(metrics.Breakdown{Preprocess: prepTime, Partition: partTime, Algorithm: modeled}))

	return writeTable(w, tbl)
}
