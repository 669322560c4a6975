// Adaptive: demonstrates the per-iteration execution planner behind
// FlowAuto — the paper's synthesis turned into an online policy. No single
// (layout, flow, sync) combination wins every algorithm, graph and
// iteration; instead of asking the caller to pick one, the planner chooses
// per iteration using frontier density, active-out-edge thresholds and
// measured per-edge costs. The example runs BFS under every fixed flow and
// under the planner, shows that the adaptive run matches the best fixed
// configuration's result while tracking its time, and prints the plan
// trace so the switching is visible. It then repeats the exercise for
// PageRank, where the planner freezes on the pull/partition-free plan and
// the ranks come out bit-identical to that fixed configuration.
package main

import (
	"fmt"
	"log"
	"math"

	everythinggraph "github.com/epfl-repro/everythinggraph"
)

func main() {
	const scale = 16
	g := everythinggraph.GenerateRMAT(scale, 16, 7)
	fmt.Printf("dataset: RMAT-%d, %d vertices, %d edges\n\n", scale, g.NumVertices(), g.NumEdges())

	// BFS under the three fixed flows on adjacency lists.
	fmt.Println("BFS, fixed configurations:")
	type fixed struct {
		label string
		cfg   everythinggraph.Config
	}
	ref := make(map[string][]int32)
	for _, fc := range []fixed{
		{"adjacency/push/atomics", everythinggraph.Config{
			Layout: everythinggraph.LayoutAdjacency, Flow: everythinggraph.FlowPush, Sync: everythinggraph.SyncAtomics}},
		{"adjacency/pull/no-lock", everythinggraph.Config{
			Layout: everythinggraph.LayoutAdjacency, Flow: everythinggraph.FlowPull, Sync: everythinggraph.SyncPartitionFree}},
		{"adjacency/push-pull", everythinggraph.Config{
			Layout: everythinggraph.LayoutAdjacency, Flow: everythinggraph.FlowPushPull, Sync: everythinggraph.SyncAtomics}},
	} {
		bfs := everythinggraph.BFS(0)
		res, err := g.Run(bfs, fc.cfg)
		if err != nil {
			log.Fatal(err)
		}
		ref[fc.label] = append([]int32(nil), bfs.Level...)
		fmt.Printf("  %-24s algorithm=%v (%d iterations)\n", fc.label, res.Breakdown.Algorithm, res.Run.Iterations)
	}

	// The same traversal under the planner: one entry point, no technique
	// knobs, per-iteration plans chosen online. A trace recorder rides
	// along so the planner's reasoning can be inspected afterwards.
	rec := everythinggraph.NewTraceRecorder(0)
	autoBFS := everythinggraph.BFS(0)
	autoRes, err := g.Run(autoBFS, everythinggraph.Config{Flow: everythinggraph.FlowAuto, Trace: rec})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-24s algorithm=%v (%d iterations)\n\n", "auto (planner)", autoRes.Breakdown.Algorithm, autoRes.Run.Iterations)

	fmt.Println("adaptive BFS plan trace:")
	for _, it := range autoRes.Run.PerIteration {
		fmt.Printf("  iteration %2d: active=%7d plan=%s\n", it.Iteration, it.ActiveVertices, it.Plan)
	}
	for label, levels := range ref {
		for v := range levels {
			if autoBFS.Level[v] != levels[v] {
				log.Fatalf("adaptive BFS diverged from %s at vertex %d", label, v)
			}
		}
	}
	fmt.Println("  -> levels identical to every fixed configuration")

	// The recorder kept every planner decision: the full candidate set
	// each choice was made from, with the predicted (prior) and measured
	// per-edge costs. Print one decision as an excerpt — the same data the
	// Chrome trace export (egraph -trace) attaches to its decision events.
	if decisions := rec.Decisions(); len(decisions) > 0 {
		d := decisions[len(decisions)/2]
		fmt.Printf("\nplanner decision at iteration %d (1 of %d recorded):\n", d.Iteration, len(decisions))
		for _, c := range d.Candidates {
			marker := " "
			if c.Chosen {
				marker = "*"
			}
			fmt.Printf("  %s %-34s predicted=%6.2f ns/edge  measured=%6.2f ns/edge\n",
				marker, c.Plan, c.PredictedNsPerEdge, c.MeasuredNsPerEdge)
		}
		fmt.Println("  -> * marks the plan the engine executed that iteration")
	}

	// PageRank: dense algorithms are planned once and frozen, so the
	// adaptive ranks are bit-identical to the plan's fixed configuration.
	fixedPR := everythinggraph.PageRank()
	fixedRes, err := g.Run(fixedPR, everythinggraph.Config{
		Layout: everythinggraph.LayoutAdjacency, Flow: everythinggraph.FlowPull, Sync: everythinggraph.SyncPartitionFree})
	if err != nil {
		log.Fatal(err)
	}
	autoPR := everythinggraph.PageRank()
	autoPRRes, err := g.Run(autoPR, everythinggraph.Config{Flow: everythinggraph.FlowAuto})
	if err != nil {
		log.Fatal(err)
	}
	for v := range fixedPR.Rank {
		if math.Float64bits(autoPR.Rank[v]) != math.Float64bits(fixedPR.Rank[v]) {
			log.Fatalf("adaptive PageRank not bit-identical at vertex %d", v)
		}
	}
	fmt.Printf("\nPageRank:\n")
	fmt.Printf("  fixed pull/no-lock       algorithm=%v\n", fixedRes.Breakdown.Algorithm)
	fmt.Printf("  auto (planner)           algorithm=%v  plan=%s (frozen)\n",
		autoPRRes.Breakdown.Algorithm, autoPRRes.Run.PerIteration[0].Plan)
	fmt.Println("  -> ranks bit-identical to the pull/no-lock configuration")
}
