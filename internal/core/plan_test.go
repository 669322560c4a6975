package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
)

func TestStepPlanString(t *testing.T) {
	for _, tc := range []struct {
		plan StepPlan
		want string
	}{
		{StepPlan{Layout: graph.LayoutAdjacency, Flow: Pull, Sync: SyncPartitionFree}, "adjacency/pull/no-lock"},
		{StepPlan{Layout: graph.LayoutGrid, Flow: Push, Sync: SyncPartitionFree}, "grid/push/no-lock"},
	} {
		if got := tc.plan.String(); got != tc.want {
			t.Fatalf("StepPlan.String() = %q, want %q", got, tc.want)
		}
	}
}

// scriptedFrontier builds a frontier with count active vertices out of n and
// a preset out-edge sum, so planner decisions can be scripted exactly.
func scriptedFrontier(n, count int, outEdges int64) *graph.Frontier {
	vs := make([]graph.VertexID, count)
	for i := range vs {
		vs[i] = graph.VertexID(i)
	}
	f := graph.NewFrontierFromSparse(n, vs)
	if outEdges >= 0 {
		f.SetOutEdges(outEdges)
	}
	return f
}

// adjacencyCandidates is the candidate set of a graph with in+out adjacency
// lists and nothing else.
func adjacencyCandidates(tracked bool) []planCandidate {
	return []planCandidate{
		{plan: StepPlan{Layout: graph.LayoutAdjacency, Flow: Pull, Sync: SyncPartitionFree, Tracked: tracked}, prior: priorAdjacencyPull, fullScan: true},
		{plan: StepPlan{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics, Tracked: tracked}, prior: priorAdjacencyPush},
	}
}

// TestAdaptivePlannerScriptedDensity drives the adaptive planner through a
// scripted sparse -> dense -> sparse frontier evolution and asserts the
// exact plan sequence: direction flips to pull at the documented |E|/alpha
// threshold, the O(1) density shortcut skips the degree sum entirely, and
// the planner returns to push when the frontier thins out again.
func TestAdaptivePlannerScriptedDensity(t *testing.T) {
	const n, m, alpha = 1000, 16000, DefaultPushPullAlpha // threshold: 16000/20 = 800 out-edges
	env := plannerEnv{
		numVertices: n,
		totalEdges:  m,
		alpha:       alpha,
		tracked:     true,
		activeOutEdges: func(f *graph.Frontier) int64 {
			if aoe := f.OutEdges(); aoe >= 0 {
				return aoe
			}
			t.Fatal("activeOutEdges called on a frontier whose density should have decided alone")
			return 0
		},
	}
	p := newPlanner(env, adjacencyCandidates(true), true, nil)

	steps := []struct {
		count    int
		outEdges int64 // -1 = unset; the density shortcut must decide
		wantFlow Flow
	}{
		{count: 1, outEdges: 10, wantFlow: Push},     // sparse: 10 <= 800
		{count: 40, outEdges: 801, wantFlow: Pull},   // crosses |E|/alpha exactly
		{count: 300, outEdges: -1, wantFlow: Pull},   // density 0.3 >= 0.25: no degree sum
		{count: 4, outEdges: 100, wantFlow: Push},    // sparse again: flips back
		{count: 51, outEdges: 12000, wantFlow: Pull}, // heavy hubs: edges, not density, decide
	}
	for i, s := range steps {
		plan := p.Next(i, scriptedFrontier(n, s.count, s.outEdges))
		if plan.Flow != s.wantFlow {
			t.Fatalf("step %d (count=%d, aoe=%d): flow = %v, want %v", i, s.count, s.outEdges, plan.Flow, s.wantFlow)
		}
		if plan.Layout != graph.LayoutAdjacency {
			t.Fatalf("step %d: layout = %v, want adjacency", i, plan.Layout)
		}
		if plan.Flow == Pull && plan.Sync != SyncPartitionFree {
			t.Fatalf("step %d: pull must be partition-free, got %v", i, plan.Sync)
		}
		if plan.Flow == Push && plan.Sync != SyncAtomics {
			t.Fatalf("step %d: adjacency push must use atomics, got %v", i, plan.Sync)
		}
	}
}

// TestAdaptivePlannerPullHysteresis scripts two dense pulls, fed measured
// durations through Observe, then a thin frontier whose out-edges are under
// |E|/alpha. Auto keeps pulling only when the second pull took at most half
// as long as the first and the frontier holds at least |V|/pullBeta
// vertices; a static PushPull set measures nothing and keeps the threshold.
func TestAdaptivePlannerPullHysteresis(t *testing.T) {
	const n, m = 1000, 16000 // |E|/alpha = 800 out-edges; |V|/pullBeta = 41.7 vertices
	cases := []struct {
		name          string
		adaptive      bool
		first, second time.Duration
		count         int
		want          Flow
	}{
		{"shrinking/42", true, 2 * time.Millisecond, time.Millisecond, 42, Pull},
		{"shrinking/41", true, 2 * time.Millisecond, time.Millisecond, 41, Push},
		{"level/42", true, time.Millisecond, time.Millisecond, 42, Push},
		{"static/42", false, 2 * time.Millisecond, time.Millisecond, 42, Push},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			forbidSum := false
			env := plannerEnv{
				numVertices: n,
				totalEdges:  m,
				alpha:       DefaultPushPullAlpha,
				tracked:     true,
				activeOutEdges: func(f *graph.Frontier) int64 {
					if forbidSum {
						t.Fatal("a kept pull summed the frontier's degrees")
					}
					return f.OutEdges()
				},
			}
			cands := adjacencyCandidates(true)
			if !c.adaptive {
				cands = staticCandidates(graph.LayoutAdjacency, PushPull, SyncAtomics, true)
			}
			p := newPlanner(env, cands, c.adaptive, nil)
			dense := scriptedFrontier(n, 400, 12000)
			for i, d := range []time.Duration{c.first, c.second} {
				plan := p.Next(i, dense)
				if plan.Flow != Pull {
					t.Fatalf("iteration %d: flow = %v on a dense frontier, want pull", i, plan.Flow)
				}
				p.Observe(plan, IterationStats{Iteration: i, ActiveVertices: 400, ActiveEdges: -1, Plan: plan, Duration: d})
			}
			forbidSum = c.want == Pull
			if got := p.Next(2, scriptedFrontier(n, c.count, 100)).Flow; got != c.want {
				t.Fatalf("tail of %d vertices: flow = %v, want %v", c.count, got, c.want)
			}
		})
	}
}

// TestAdaptivePlannerAbandonsMispredictedPlan: after one measured iteration
// that contradicts the cost model, the planner must switch to the
// alternative layout — and switch back when the alternative measures even
// worse (latest-wins feedback).
func TestAdaptivePlannerAbandonsMispredictedPlan(t *testing.T) {
	const n, m = 1000, 16000
	env := plannerEnv{numVertices: n, totalEdges: m, alpha: DefaultPushPullAlpha, tracked: true}
	adjPull := StepPlan{Layout: graph.LayoutAdjacency, Flow: Pull, Sync: SyncPartitionFree, Tracked: true}
	gridPull := StepPlan{Layout: graph.LayoutGrid, Flow: Pull, Sync: SyncPartitionFree, Tracked: true}
	p := newPlanner(env, []planCandidate{
		{plan: adjPull, prior: priorAdjacencyPull, fullScan: true},
		{plan: gridPull, prior: priorGridPull, fullScan: true},
	}, true, nil)
	dense := scriptedFrontier(n, 400, -1) // density 0.4: always pull

	if plan := p.Next(0, dense); plan != adjPull {
		t.Fatalf("iteration 0: plan = %v, want the lower-prior %v", plan, adjPull)
	}
	// Adjacency pull measures terribly: 1s over 16000 edges = 62500 ns/edge,
	// far above the grid's 2.5 ns/edge prior.
	p.Observe(adjPull, IterationStats{ActiveVertices: 400, ActiveEdges: -1, Duration: time.Second})
	if plan := p.Next(1, dense); plan != gridPull {
		t.Fatalf("iteration 1: plan = %v, want the mispredicted plan abandoned for %v", plan, gridPull)
	}
	// The grid measures twice as bad: the next iteration returns to
	// adjacency on measured costs alone.
	p.Observe(gridPull, IterationStats{ActiveVertices: 400, ActiveEdges: -1, Duration: 2 * time.Second})
	if plan := p.Next(2, dense); plan != adjPull {
		t.Fatalf("iteration 2: plan = %v, want %v back on measured costs", plan, adjPull)
	}
}

// TestAdaptivePlannerFreezesDensePlans: dense (whole-graph) algorithms get
// one plan for the entire run — switching mid-run would change the
// floating-point accumulation order and break bit-reproducibility.
func TestAdaptivePlannerFreezesDensePlans(t *testing.T) {
	const n, m = 1000, 16000
	env := plannerEnv{numVertices: n, totalEdges: m, alpha: DefaultPushPullAlpha, tracked: false}
	p := newPlanner(env, adjacencyCandidates(false), true, nil)
	full := scriptedFrontier(n, n, -1)

	first := p.Next(0, full)
	if first.Flow != Pull || first.Layout != graph.LayoutAdjacency {
		t.Fatalf("dense plan = %v, want adjacency/pull (lowest prior)", first)
	}
	// Even a catastrophic measurement must not unfreeze the plan.
	p.Observe(first, IterationStats{ActiveVertices: n, Duration: time.Hour})
	if again := p.Next(1, full); again != first {
		t.Fatalf("dense plan changed mid-run: %v -> %v", first, again)
	}
}

// TestStaticConfigsPlanConfiguredTechniques pins the static candidate set:
// every static configuration ValidateTechniques admits, on a graph with
// every layout built, runs each iteration at the configured layout and sync
// in the configured direction — edge arrays always push, and PushPull goes
// wherever the |E|/alpha threshold sends the iteration's recorded frontier
// (active out-edges, or active vertices on the grid). Grid configurations
// also run, under the same rule, on grids built at every coarser P.
func TestStaticConfigsPlanConfiguredTechniques(t *testing.T) {
	g := rmatTestGraph(t)
	coarse := coarserGridGraphs(t, g)
	n, m := int64(g.NumVertices()), residentScanEdges(g)
	for _, base := range admittedConfigs() {
		if base.Flow == Auto {
			continue
		}
		alphas := []int{0}
		if base.Flow == PushPull {
			alphas = []int{1, 20, 1000}
		}
		graphs := []*graph.Graph{g}
		if base.Layout == graph.LayoutGrid {
			graphs = append(graphs, coarse...)
		}
		for _, alpha := range alphas {
			for _, rg := range graphs {
				for _, mk := range []func() Algorithm{
					func() Algorithm { return algorithms.NewBFS(0) },
					func() Algorithm { return algorithms.NewPageRank() },
				} {
					alg := mk()
					cfg := base
					cfg.PushPullAlpha = alpha
					layout := cfg.Layout.String()
					if rg != g {
						layout = fmt.Sprintf("%s%d", layout, rg.Grid.P)
					}
					t.Run(fmt.Sprintf("%s-%v-%v/alpha%d/%s", layout, cfg.Flow, cfg.Sync, alpha, alg.Name()), func(t *testing.T) {
						res, err := Run(rg, alg, cfg)
						if err != nil {
							t.Fatalf("%v/%v/%v alpha %d: %v", cfg.Layout, cfg.Flow, cfg.Sync, alpha, err)
						}
						a := int64(resolveAlpha(cfg))
						want := StepPlan{Layout: cfg.Layout, Flow: cfg.Flow, Sync: cfg.Sync, Tracked: !alg.Dense()}
						for i, it := range res.PerIteration {
							switch {
							case cfg.Layout == graph.LayoutEdgeArray:
								want.Flow = Push
							case cfg.Flow == PushPull:
								over := it.ActiveEdges > m/a
								if cfg.Layout == graph.LayoutGrid {
									over = int64(it.ActiveVertices) > n/a
								}
								want.Flow = Push
								if over {
									want.Flow = Pull
								}
							}
							if it.Plan != want {
								t.Fatalf("%s %v/%v/%v alpha %d iteration %d (%d vertices, %d edges): plan %v, want %v",
									alg.Name(), cfg.Layout, cfg.Flow, cfg.Sync, alpha, i, it.ActiveVertices, it.ActiveEdges, it.Plan, want)
							}
						}
					})
				}
			}
		}
	}
}

// TestAutoBFSMatchesFixed: with Flow == Auto, BFS must produce levels
// identical to every fixed configuration, switch direction like the
// direction-optimizing traversal, and record its choices in the plan trace.
func TestAutoBFSMatchesFixed(t *testing.T) {
	g := rmatTestGraph(t)
	ref := algorithms.NewBFS(0)
	if _, err := Run(g, ref, Config{Layout: graph.LayoutAdjacency, Flow: PushPull, Sync: SyncAtomics}); err != nil {
		t.Fatalf("fixed run: %v", err)
	}
	auto := algorithms.NewBFS(0)
	res, err := Run(g, auto, Config{Flow: Auto})
	if err != nil {
		t.Fatalf("auto run: %v", err)
	}
	for v := range ref.Level {
		if auto.Level[v] != ref.Level[v] {
			t.Fatalf("level[%d]: auto %d, fixed %d", v, auto.Level[v], ref.Level[v])
		}
	}
	if res.PerIteration[0].Plan.Flow == Pull {
		t.Fatal("a single-vertex initial frontier must push")
	}
	sawPull := false
	for _, it := range res.PerIteration {
		if it.Plan == (StepPlan{}) {
			t.Fatal("auto iterations must record a resolved plan")
		}
		if it.Plan.Flow == Pull {
			sawPull = true
		}
	}
	if !sawPull {
		t.Fatal("auto never pulled on a power-law graph's dense middle iterations")
	}
	if trace := res.PlanTrace(); len(trace) != res.Iterations {
		t.Fatalf("plan trace has %d entries for %d iterations", len(trace), res.Iterations)
	}
}

// TestAutoWCCMatchesFixed: label identity between adaptive and fixed
// configurations on an undirected graph (the direction generalization
// beyond BFS).
func TestAutoWCCMatchesFixed(t *testing.T) {
	g := gen.Road(gen.RoadOptions{Width: 24, Height: 24, Seed: 2})
	prepareAll(t, g, true)
	ref := algorithms.NewWCC()
	if _, err := Run(g, ref, Config{Layout: graph.LayoutAdjacency, Flow: Pull, Sync: SyncPartitionFree}); err != nil {
		t.Fatalf("fixed run: %v", err)
	}
	auto := algorithms.NewWCC()
	if _, err := Run(g, auto, Config{Flow: Auto}); err != nil {
		t.Fatalf("auto run: %v", err)
	}
	for v := range ref.Labels {
		if auto.Labels[v] != ref.Labels[v] {
			t.Fatalf("label[%d]: auto %d, fixed %d", v, auto.Labels[v], ref.Labels[v])
		}
	}
}

// TestAutoPageRankBitIdenticalToBestFixed: the adaptive planner freezes
// dense algorithms on the pull/partition-free plan, so the ranks must be
// bit-identical to that fixed configuration — not merely close.
func TestAutoPageRankBitIdenticalToBestFixed(t *testing.T) {
	g := rmatTestGraph(t)
	fixed := algorithms.NewPageRank()
	if _, err := Run(g, fixed, Config{Layout: graph.LayoutAdjacency, Flow: Pull, Sync: SyncPartitionFree}); err != nil {
		t.Fatalf("fixed run: %v", err)
	}
	auto := algorithms.NewPageRank()
	res, err := Run(g, auto, Config{Flow: Auto})
	if err != nil {
		t.Fatalf("auto run: %v", err)
	}
	want := StepPlan{Layout: graph.LayoutAdjacency, Flow: Pull, Sync: SyncPartitionFree}
	for i, it := range res.PerIteration {
		if it.Plan != want {
			t.Fatalf("iteration %d: plan %v, want the frozen %v", i, it.Plan, want)
		}
	}
	for v := range fixed.Rank {
		if math.Float64bits(auto.Rank[v]) != math.Float64bits(fixed.Rank[v]) {
			t.Fatalf("rank[%d]: auto %v, fixed %v (not bit-identical)", v, auto.Rank[v], fixed.Rank[v])
		}
	}
}

// TestAutoSerialVsPooled: the adaptive path must stay deterministic across
// worker counts for integer-result algorithms.
func TestAutoSerialVsPooled(t *testing.T) {
	g := rmatTestGraph(t)
	serial := algorithms.NewBFS(0)
	if _, err := Run(g, serial, Config{Flow: Auto, Workers: 1}); err != nil {
		t.Fatalf("serial run: %v", err)
	}
	pooled := algorithms.NewBFS(0)
	if _, err := Run(g, pooled, Config{Flow: Auto, Workers: 4}); err != nil {
		t.Fatalf("pooled run: %v", err)
	}
	for v := range serial.Level {
		if serial.Level[v] != pooled.Level[v] {
			t.Fatalf("level[%d]: serial %d, pooled %d", v, serial.Level[v], pooled.Level[v])
		}
	}
}

// TestAutoUsesOnlyMaterializedLayouts: auto on a graph with nothing but the
// edge array must run edge-centric — and still be correct — instead of
// failing like a misconfigured fixed run would.
func TestAutoUsesOnlyMaterializedLayouts(t *testing.T) {
	g := chainGraph(50) // no adjacency, no grid
	bfs := algorithms.NewBFS(0)
	res, err := Run(g, bfs, Config{Flow: Auto})
	if err != nil {
		t.Fatalf("auto run: %v", err)
	}
	want := StepPlan{Layout: graph.LayoutEdgeArray, Flow: Push, Sync: SyncAtomics, Tracked: true}
	for i, it := range res.PerIteration {
		if it.Plan != want {
			t.Fatalf("iteration %d: plan %v, want %v (only the edge array exists)", i, it.Plan, want)
		}
	}
	for v := 0; v < 50; v++ {
		if bfs.Level[v] != int32(v) {
			t.Fatalf("level[%d] = %d, want %d", v, bfs.Level[v], v)
		}
	}
}

// TestPushPullAlphaValidationGap: a threshold denominator on a static flow
// used to be silently ignored; it must now be rejected so benchmark
// configurations cannot lie about what ran.
func TestPushPullAlphaValidationGap(t *testing.T) {
	g := rmatTestGraph(t)
	bad := Config{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics, PushPullAlpha: 20}
	if err := bad.Validate(g); err == nil {
		t.Fatal("PushPullAlpha on a static flow must be rejected")
	}
	if _, err := Run(g, algorithms.NewBFS(0), bad); err == nil {
		t.Fatal("Run must refuse a config whose alpha would be ignored")
	}
	neg := Config{Layout: graph.LayoutAdjacency, Flow: PushPull, Sync: SyncAtomics, PushPullAlpha: -3}
	if err := neg.Validate(g); err == nil {
		t.Fatal("negative PushPullAlpha must be rejected")
	}
	for _, ok := range []Config{
		{Layout: graph.LayoutAdjacency, Flow: PushPull, Sync: SyncAtomics, PushPullAlpha: 20},
		{Flow: Auto, PushPullAlpha: 20},
	} {
		if err := ok.Validate(g); err != nil {
			t.Fatalf("alpha with flow %v should validate: %v", ok.Flow, err)
		}
	}
}

// fakeSource streams a single-cell in-memory "store": the minimal Source
// whose frontier evolution can be scripted through the shape of its edges.
type fakeSource struct {
	n     int
	edges []graph.Edge
	stats SourceStats
}

func (s *fakeSource) NumVertices() int { return s.n }
func (s *fakeSource) NumEdges() int64  { return int64(len(s.edges)) }
func (s *fakeSource) GridP() int       { return 1 }
func (s *fakeSource) Undirected() bool { return false }

func (s *fakeSource) OutDegrees() []uint32 {
	deg := make([]uint32, s.n)
	for _, e := range s.edges {
		deg[e.Src]++
	}
	return deg
}

func (s *fakeSource) StreamCells(_ StreamOptions, visit func(worker int, pairs []graph.Pair, weights []graph.Weight)) error {
	s.stats.Passes++
	s.stats.Reads++
	pairs := make([]graph.Pair, len(s.edges))
	weights := make([]graph.Weight, len(s.edges))
	for i, e := range s.edges {
		pairs[i], weights[i] = graph.Pair{Src: e.Src, Dst: e.Dst}, e.W
	}
	visit(0, pairs, weights)
	return nil
}

func (s *fakeSource) Stats() SourceStats { return s.stats }

// TestRunStreamedAutoPlanSequence runs adaptive BFS over a fake source
// whose level populations are scripted sparse -> dense -> sparse and
// asserts the exact plan sequence: push while only the root is active, pull
// on the dense middle level, push again on the sparse tail.
func TestRunStreamedAutoPlanSequence(t *testing.T) {
	// Level 0: vertex 0. Level 1: vertices 1..60 (density 0.6). Level 2:
	// vertices 61, 62 (density 0.02).
	const n = 100
	var edges []graph.Edge
	for v := 1; v <= 60; v++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: graph.VertexID(v), W: 1})
	}
	edges = append(edges,
		graph.Edge{Src: 1, Dst: 61, W: 1},
		graph.Edge{Src: 2, Dst: 62, W: 1})
	src := &fakeSource{n: n, edges: edges}

	bfs := algorithms.NewBFS(0)
	res, err := RunStreamed(src, bfs, Config{Flow: Auto})
	if err != nil {
		t.Fatalf("RunStreamed: %v", err)
	}
	wantFlows := []Flow{Push, Pull, Push}
	if len(res.PerIteration) != len(wantFlows) {
		t.Fatalf("iterations = %d, want %d", len(res.PerIteration), len(wantFlows))
	}
	for i, it := range res.PerIteration {
		if it.Plan.Layout != graph.LayoutGrid || it.Plan.Sync != SyncPartitionFree {
			t.Fatalf("iteration %d: streamed plan %v must stay grid/no-lock", i, it.Plan)
		}
		if it.Plan.Flow != wantFlows[i] {
			t.Fatalf("iteration %d: flow %v, want %v (trace %v)", i, it.Plan.Flow, wantFlows[i], res.PlanTrace())
		}
	}
	for v := 1; v <= 60; v++ {
		if bfs.Level[v] != 1 {
			t.Fatalf("level[%d] = %d, want 1", v, bfs.Level[v])
		}
	}
	if bfs.Level[61] != 2 || bfs.Level[62] != 2 {
		t.Fatalf("tail levels = %d, %d, want 2, 2", bfs.Level[61], bfs.Level[62])
	}
}
