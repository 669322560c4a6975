package bench

import (
	"fmt"

	eg "github.com/epfl-repro/everythinggraph"
	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
)

func init() {
	// Figure 1 is the paper's motivating example: push-pull BFS has a much
	// lower algorithm time, but building both the incoming and outgoing
	// adjacency lists roughly doubles pre-processing, making push-pull worse
	// end-to-end on a directed graph.
	register(Experiment{
		ID:    "fig1",
		Title: "Figure 1: BFS push-pull vs push on the Twitter-profile graph (pre-processing vs algorithm trade-off)",
		data:  twitter,
		heading: func(s Scale, g *graph.Graph) string {
			return fmt.Sprintf("Figure 1: BFS on Twitter-profile (scale %d, %d edges)", s.TwitterScale, g.NumEdges())
		},
		columns: breakdownColumns,
		cells: func(Scale) []cell {
			return []cell{
				{row: "bfs push-pull", cfg: eg.Config{Layout: eg.LayoutAdjacency, Flow: eg.FlowPushPull, Sync: eg.SyncAtomics}, alg: bfs},
				{row: "bfs push", cfg: eg.Config{Layout: eg.LayoutAdjacency, Flow: eg.FlowPush, Sync: eg.SyncAtomics}, alg: bfs},
			}
		},
	})
	// Table 2 measures the cost of building adjacency lists with the three
	// construction methods, outgoing only and incoming+outgoing.
	register(Experiment{
		ID:    "table2",
		Title: "Table 2: adjacency-list creation cost (dynamic, count sort, radix sort)",
		data:  twitter,
		heading: func(s Scale, g *graph.Graph) string {
			return fmt.Sprintf("Table 2: adjacency-list creation on Twitter-profile (scale %d, %d edges)", s.TwitterScale, g.NumEdges())
		},
		columns: []string{"out", "in-out"},
		cells: func(Scale) []cell {
			var cells []cell
			for _, m := range methods {
				for _, dir := range []string{"out", "in-out"} {
					cells = append(cells, cell{row: m.name, col: dir, cfg: prepConfig(dir, m.method)})
				}
			}
			return cells
		},
	})
	// Figure 2 sweeps the RMAT scale and reports each method's out-adjacency
	// build time: every method scales linearly with the graph size and radix
	// sort stays fastest.
	register(Experiment{
		ID:    "fig2",
		Title: "Figure 2: scaling of pre-processing methods with RMAT graph size",
		heading: func(s Scale, _ *graph.Graph) string {
			return fmt.Sprintf("Figure 2: pre-processing scaling, RMAT%d..RMAT%d (edge factor %d)", fig2Lowest(s), s.RMATScale, s.RMATEdgeFactor)
		},
		columns: []string{"radix sort", "dynamic", "count sort"},
		cells: func(s Scale) []cell {
			var cells []cell
			for scale := fig2Lowest(s); scale <= s.RMATScale; scale++ {
				d := &dataset{make: func(s Scale) *graph.Graph {
					return gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: s.RMATEdgeFactor, Seed: s.Seed, Workers: s.Workers})
				}}
				for _, m := range methods {
					cells = append(cells, cell{row: fmt.Sprintf("RMAT%d", scale), col: m.name, data: d, cfg: prepConfig("out", m.method)})
				}
			}
			return cells
		},
	})
}

// methods are the three adjacency construction methods of Section 3.
var methods = []struct {
	name   string
	method eg.PrepMethod
}{
	{"dynamic", eg.PrepDynamic},
	{"count sort", eg.PrepCountSort},
	{"radix sort", eg.PrepRadixSort},
}

// prepConfig is the configuration whose Prepare builds the adjacency lists
// of a direction column with method m: out lists serve push, in lists pull,
// both push-pull.
func prepConfig(direction string, m eg.PrepMethod) eg.Config {
	flow := map[string]eg.Flow{"out": eg.FlowPush, "in": eg.FlowPull, "in-out": eg.FlowPushPull}[direction]
	return eg.Config{Layout: eg.LayoutAdjacency, Flow: flow, Prep: m}
}

// fig2Lowest is the smallest RMAT scale of Figure 2's sweep.
func fig2Lowest(s Scale) int { return max(s.RMATScale-3, 8) }
