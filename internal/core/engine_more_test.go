package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/prep"
)

// TestPushPullSwitchesDirection checks the direction-optimizing behaviour of
// Figure 6/7: on a power-law graph the middle iterations are dense enough to
// trigger pull mode, while the first iteration stays in push mode.
func TestPushPullSwitchesDirection(t *testing.T) {
	g := gen.RMAT(gen.RMATOptions{Scale: 12, EdgeFactor: 16, Seed: 5})
	prepareAll(t, g, false)

	bfs := algorithms.NewBFS(0)
	res, err := Run(g, bfs, Config{
		Layout: graph.LayoutAdjacency, Flow: PushPull, Sync: SyncAtomics,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.PerIteration[0].Plan.Flow == Pull {
		t.Fatal("the first iteration (a single-vertex frontier) must push")
	}
	sawPull := false
	for _, it := range res.PerIteration {
		if it.Plan.Flow == Pull {
			sawPull = true
			if it.ActiveEdges < 0 {
				t.Fatal("pull iterations must record the active edge count")
			}
		}
	}
	if !sawPull {
		t.Fatal("push-pull never switched to pull on a dense power-law frontier")
	}
}

// TestFrontierSizesMatchAcrossFlows: push and pull BFS discover the same
// number of vertices at every level.
func TestFrontierSizesMatchAcrossFlows(t *testing.T) {
	g := gen.RMAT(gen.RMATOptions{Scale: 11, EdgeFactor: 8, Seed: 9})
	prepareAll(t, g, false)

	run := func(flow Flow, sync SyncMode) []int {
		bfs := algorithms.NewBFS(0)
		res, err := Run(g, bfs, Config{Layout: graph.LayoutAdjacency, Flow: flow, Sync: sync})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		var sizes []int
		for _, it := range res.PerIteration {
			sizes = append(sizes, it.ActiveVertices)
		}
		return sizes
	}
	push := run(Push, SyncAtomics)
	pull := run(Pull, SyncPartitionFree)
	if len(push) != len(pull) {
		t.Fatalf("iteration counts differ: push=%d pull=%d", len(push), len(pull))
	}
	for i := range push {
		if push[i] != pull[i] {
			t.Fatalf("iteration %d: push frontier %d != pull frontier %d", i, push[i], pull[i])
		}
	}
}

// alsPullFactorsFNV is the FNV-1a hash of the factor bits ALS leaves on
// TestALSThroughEngineMatchesAcrossFlows's graph under adjacency / pull /
// no-lock at 1 worker, as the engine's earlier per-edge pull path computed
// them: PullRows must accumulate each rating in the same order.
const alsPullFactorsFNV = 0xd38b7d55188c3bf5

// TestALSThroughEngineMatchesAcrossFlows runs ALS in Table 6's configuration
// (adjacency / pull / no-lock) at 1 worker, pinned bit for bit, and in every
// other admitted configuration at 1 and 4 workers, which must learn a model
// of the same RMSE.
func TestALSThroughEngineMatchesAcrossFlows(t *testing.T) {
	g := gen.Bipartite(gen.BipartiteOptions{Users: 300, Items: 40, RatingsPerUser: 10, Seed: 4})
	prepareAll(t, g, true)

	run := func(t *testing.T, cfg Config) *algorithms.ALS {
		als := algorithms.NewALS(300)
		als.Sweeps = 2
		if _, err := Run(g, als, cfg); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return als
	}
	pull := run(t, Config{Layout: graph.LayoutAdjacency, Flow: Pull, Sync: SyncPartitionFree, Workers: 1})
	h := fnv.New64a()
	for _, f := range pull.F {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(f)))
	}
	if got := h.Sum64(); got != alsPullFactorsFNV {
		t.Fatalf("pull factors hash to %#x, pinned %#x", got, uint64(alsPullFactorsFNV))
	}
	edges := g.EdgeArray.Edges
	want := pull.RMSE(edges)
	if want > 1.5 {
		t.Fatalf("ALS did not fit the ratings: RMSE %v", want)
	}
	for _, workers := range []int{1, 4} {
		for _, cfg := range admittedConfigs() {
			cfg.Workers = workers
			t.Run(fmt.Sprintf("w%d/%v-%v-%v", workers, cfg.Layout, cfg.Flow, cfg.Sync), func(t *testing.T) {
				if got := run(t, cfg).RMSE(edges); math.Abs(got-want) > 1e-6 {
					t.Fatalf("RMSE %v, adjacency pull %v", got, want)
				}
			})
		}
	}
}

// runRecordingFrontiers is Run with iterate's step wrapped to copy each
// iteration's frontier before the step executes on it.
func runRecordingFrontiers(t *testing.T, g *graph.Graph, alg Algorithm, cfg Config) (*Result, [][]graph.VertexID) {
	t.Helper()
	if err := cfg.Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	workers := resolveWorkers(cfg)
	r := newRunner(g, alg, cfg, workers)
	pl, err := residentPlanner(g, cfg, r, resolveAlpha(cfg), workers, !alg.Dense())
	if err != nil {
		t.Fatalf("residentPlanner: %v", err)
	}
	var frontiers [][]graph.VertexID
	res, err := iterate(g, alg, cfg, workers, pl, nil, func(plan StepPlan, f *graph.Frontier) (*graph.Frontier, error) {
		frontiers = append(frontiers, append([]graph.VertexID(nil), f.Sparse()...))
		return r.execute(plan, f), nil
	})
	if err != nil {
		t.Fatalf("iterate: %v", err)
	}
	return res, frontiers
}

// TestPushIterationsRecordActiveEdges: a push iteration over an adjacency
// chunks its frontier by out-edges, so its statistics carry the frontier's
// out-edge total whether or not a planner asked for it — fixed push and
// adaptive runs alike, the full frontier of a dense algorithm included.
func TestPushIterationsRecordActiveEdges(t *testing.T) {
	g := gen.Road(gen.RoadOptions{Width: 24, Height: 24, ShortcutFraction: 0.05, Seed: 3, Weighted: true})
	prepareAll(t, g, true)
	for _, flow := range []Flow{Push, Auto} {
		res, frontiers := runRecordingFrontiers(t, g, algorithms.NewSSSP(0), Config{
			Layout: graph.LayoutAdjacency, Flow: flow, Sync: SyncAtomics, Workers: 2,
		})
		for i, it := range res.PerIteration {
			if it.Plan.Flow == Pull {
				continue
			}
			var want int64
			for _, v := range frontiers[i] {
				want += int64(g.Out.Degree(v))
			}
			if it.ActiveEdges != want {
				t.Fatalf("flow %v, iteration %d: ActiveEdges = %d, frontier out-degrees sum to %d", flow, i, it.ActiveEdges, want)
			}
		}
	}
	pr := algorithms.NewPageRank()
	pr.Iterations = 2
	res, err := Run(g, pr, Config{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, it := range res.PerIteration {
		if want := int64(len(g.Out.Targets)); it.ActiveEdges != want {
			t.Fatalf("PageRank iteration %d: ActiveEdges = %d, want all %d", i, it.ActiveEdges, want)
		}
	}
}

// TestMaxIterationsStopsDenseAlgorithms: the engine cap applies even when
// the algorithm itself has not converged.
func TestMaxIterationsStopsDenseAlgorithms(t *testing.T) {
	g := chainGraph(10)
	prepareAll(t, g, false)
	pr := algorithms.NewPageRank()
	pr.Iterations = 50
	res, err := Run(g, pr, Config{
		Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics, MaxIterations: 3,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Iterations != 3 {
		t.Fatalf("iterations = %d, want 3", res.Iterations)
	}
}

// TestBFSEquivalencePropertyRandomGraphs: for random graphs, push on the
// edge array and pull on adjacency lists discover exactly the same levels.
func TestBFSEquivalencePropertyRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(100)
		m := 4 * n
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = graph.Edge{Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n)), W: 1}
		}
		g := graph.New(edges, n, true)
		if err := prep.BuildAdjacency(g, prep.InOut, prep.Options{Method: prep.RadixSort}); err != nil {
			return false
		}

		bfsEdge := algorithms.NewBFS(0)
		if _, err := Run(g, bfsEdge, Config{Layout: graph.LayoutEdgeArray, Flow: Push, Sync: SyncAtomics}); err != nil {
			return false
		}
		bfsPull := algorithms.NewBFS(0)
		if _, err := Run(g, bfsPull, Config{Layout: graph.LayoutAdjacency, Flow: Pull, Sync: SyncPartitionFree}); err != nil {
			return false
		}
		for v := range bfsEdge.Level {
			if bfsEdge.Level[v] != bfsPull.Level[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestFlowAndSyncStrings covers the enum formatting used in reports.
func TestFlowAndSyncStrings(t *testing.T) {
	if Push.String() != "push" || Pull.String() != "pull" || PushPull.String() != "push-pull" {
		t.Fatal("flow names wrong")
	}
	if SyncLocks.String() != "locks" || SyncAtomics.String() != "atomics" || SyncPartitionFree.String() != "no-lock" {
		t.Fatal("sync names wrong")
	}
	if Flow(9).String() == "" || SyncMode(9).String() == "" {
		t.Fatal("unknown enum values must render")
	}
}
