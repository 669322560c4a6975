package bench

import (
	"fmt"
	"io"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/core"
	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/metrics"
	"github.com/epfl-repro/everythinggraph/internal/prep"
)

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Figure 1: BFS push-pull vs push on the Twitter-profile graph (pre-processing vs algorithm trade-off)",
		Run:   runFig1,
	})
	register(Experiment{
		ID:    "table2",
		Title: "Table 2: adjacency-list creation cost (dynamic, count sort, radix sort)",
		Run:   runTable2,
	})
	register(Experiment{
		ID:    "fig2",
		Title: "Figure 2: scaling of pre-processing methods with RMAT graph size",
		Run:   runFig2,
	})
}

// runFig1 reproduces the paper's motivating example: push-pull BFS has a
// much lower algorithm execution time, but building both the incoming and
// outgoing adjacency lists roughly doubles pre-processing, making push-pull
// worse end-to-end on a directed graph.
func runFig1(s Scale, w io.Writer) error {
	base := twitterGraph(s)
	tbl := metrics.NewTable(
		fmt.Sprintf("Figure 1: BFS on Twitter-profile (scale %d, %d edges)", s.TwitterScale, base.NumEdges()),
		"preprocess", "algorithm", "total")

	// Push-pull: needs both directions.
	{
		g := freshCopy(base)
		prepTime, err := buildAdjacencyTimed(g, prep.InOut, prep.Options{Method: prep.RadixSort, Workers: s.Workers})
		if err != nil {
			return err
		}
		bfs := algorithms.NewBFS(0)
		res, err := runAlgorithm(g, bfs, core.Config{
			Layout: graph.LayoutAdjacency, Flow: core.PushPull, Sync: core.SyncAtomics, Workers: s.Workers,
		})
		if err != nil {
			return err
		}
		tbl.AddRow("bfs push-pull", breakdownRow(metrics.Breakdown{Preprocess: prepTime, Algorithm: res.AlgorithmTime}))
	}

	// Push only: outgoing lists suffice.
	{
		g := freshCopy(base)
		prepTime, err := buildAdjacencyTimed(g, prep.Out, prep.Options{Method: prep.RadixSort, Workers: s.Workers})
		if err != nil {
			return err
		}
		bfs := algorithms.NewBFS(0)
		res, err := runAlgorithm(g, bfs, core.Config{
			Layout: graph.LayoutAdjacency, Flow: core.Push, Sync: core.SyncAtomics, Workers: s.Workers,
		})
		if err != nil {
			return err
		}
		tbl.AddRow("bfs push", breakdownRow(metrics.Breakdown{Preprocess: prepTime, Algorithm: res.AlgorithmTime}))
	}
	return writeTable(w, tbl)
}

// breakdownRow formats a Breakdown for a three-column table.
func breakdownRow(b metrics.Breakdown) map[string]string {
	return map[string]string{
		"preprocess": fmtDuration(b.Preprocess),
		"algorithm":  fmtDuration(b.Algorithm),
		"total":      fmtDuration(b.Total()),
	}
}

// runTable2 measures the cost of building adjacency lists with the three
// construction methods (outgoing only, and incoming+outgoing).
func runTable2(s Scale, w io.Writer) error {
	base := twitterGraph(s)
	tbl := metrics.NewTable(
		fmt.Sprintf("Table 2: adjacency-list creation on Twitter-profile (scale %d, %d edges)", s.TwitterScale, base.NumEdges()),
		"out", "in-out")

	methods := []struct {
		name   string
		method prep.Method
	}{
		{"dynamic", prep.Dynamic},
		{"count sort", prep.CountSort},
		{"radix sort", prep.RadixSort},
	}
	for _, m := range methods {
		gOut := freshCopy(base)
		outTime, err := buildAdjacencyTimed(gOut, prep.Out, prep.Options{Method: m.method, Workers: s.Workers})
		if err != nil {
			return err
		}
		gBoth := freshCopy(base)
		bothTime, err := buildAdjacencyTimed(gBoth, prep.InOut, prep.Options{Method: m.method, Workers: s.Workers})
		if err != nil {
			return err
		}
		tbl.AddRow(m.name, map[string]string{
			"out":    fmtDuration(outTime),
			"in-out": fmtDuration(bothTime),
		})
	}
	return writeTable(w, tbl)
}

// runFig2 sweeps the RMAT scale and reports the out-adjacency build time of
// each method, showing that all methods scale linearly with the graph size
// and that radix sort stays fastest.
func runFig2(s Scale, w io.Writer) error {
	lowest := s.RMATScale - 3
	if lowest < 8 {
		lowest = 8
	}
	tbl := metrics.NewTable(
		fmt.Sprintf("Figure 2: pre-processing scaling, RMAT%d..RMAT%d (edge factor %d)", lowest, s.RMATScale, s.RMATEdgeFactor),
		"radix sort", "dynamic", "count sort")

	for scale := lowest; scale <= s.RMATScale; scale++ {
		g := gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: s.RMATEdgeFactor, Seed: s.Seed, Workers: s.Workers})
		row := map[string]string{}
		for _, m := range []struct {
			col    string
			method prep.Method
		}{
			{"radix sort", prep.RadixSort},
			{"dynamic", prep.Dynamic},
			{"count sort", prep.CountSort},
		} {
			gm := freshCopy(g)
			d, err := buildAdjacencyTimed(gm, prep.Out, prep.Options{Method: m.method, Workers: s.Workers})
			if err != nil {
				return err
			}
			row[m.col] = fmtDuration(d)
		}
		tbl.AddRow(fmt.Sprintf("RMAT%d", scale), row)
	}
	return writeTable(w, tbl)
}
