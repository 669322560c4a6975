package core

import (
	"math"
	"sync"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/prep"
)

// gridOnlyGraph builds an RMAT graph with nothing but the grid materialized
// (plus the always-present edge array), forced to the given fine P — the
// configuration whose resolution the planner must correct when P misfits.
func gridOnlyGraph(t *testing.T, scale, p int) *graph.Graph {
	t.Helper()
	g := gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: 8, Seed: 7})
	if err := prep.BuildGrid(g, p, prep.Options{Method: prep.RadixSort}); err != nil {
		t.Fatalf("BuildGrid: %v", err)
	}
	return g
}

// runAtLevel runs alg under the static grid configuration cfg pinned to the
// pyramid level of dimension p, by handing iterate the static candidate set
// at that level — Run itself always runs the materialized P.
func runAtLevel(t *testing.T, g *graph.Graph, alg Algorithm, cfg Config, p int) *Result {
	t.Helper()
	res, err := iterateAtLevel(g, alg, cfg, p)
	if err != nil {
		t.Fatalf("run at grid/%d: %v", p, err)
	}
	return res
}

// iterateAtLevel is runAtLevel returning the run's error instead of failing
// the test.
func iterateAtLevel(g *graph.Graph, alg Algorithm, cfg Config, p int) (*Result, error) {
	workers := resolveWorkers(cfg)
	r := newRunner(g, alg, cfg, workers)
	env := plannerEnv{numVertices: g.NumVertices(), totalEdges: residentScanEdges(g), alpha: resolveAlpha(cfg), tracked: !alg.Dense()}
	pl := newPlanner(env, staticCandidates(graph.LayoutGrid, cfg.Flow, cfg.Sync, p, env.tracked), false, nil)
	return iterate(g, alg, cfg, workers, pl, nil, func(plan StepPlan, f *graph.Frontier) (*graph.Frontier, error) {
		return r.execute(plan, f), nil
	})
}

func TestStepPlanStringCarriesGridLevel(t *testing.T) {
	p := StepPlan{Layout: graph.LayoutGrid, Flow: Push, Sync: SyncPartitionFree, GridLevel: 128}
	if got := p.String(); got != "grid/128/push/no-lock" {
		t.Fatalf("StepPlan.String() = %q, want grid/128/push/no-lock", got)
	}
	// Non-grid plans never render a resolution, even if one leaks in.
	q := StepPlan{Layout: graph.LayoutAdjacency, Flow: Pull, Sync: SyncPartitionFree, GridLevel: 64}
	if got := q.String(); got != "adjacency/pull/no-lock" {
		t.Fatalf("non-grid StepPlan.String() = %q", got)
	}
}

// TestAutoCandidatesEnumerateGridLevels: every pyramid level contributes a
// push/pull pair.
func TestAutoCandidatesEnumerateGridLevels(t *testing.T) {
	g := gridOnlyGraph(t, 10, 16) // pyramid: 16, 8, 4, 2, 1
	levels := g.Grid.NumLevels()
	if levels != 5 {
		t.Fatalf("pyramid has %d levels, want 5", levels)
	}
	countGrid := func(cs []planCandidate) map[int]int {
		got := map[int]int{}
		for _, c := range cs {
			if c.plan.Layout == graph.LayoutGrid {
				if c.plan.GridLevel == 0 {
					t.Fatalf("grid candidate %v carries no resolution", c.plan)
				}
				got[c.plan.GridLevel]++
			}
		}
		return got
	}
	all := countGrid(autoCandidates(g, 4, true))
	if len(all) != levels {
		t.Fatalf("default policy enumerated %d resolutions, want %d", len(all), levels)
	}
	for p, n := range all {
		if n != 2 {
			t.Fatalf("resolution %d has %d candidates, want a push/pull pair", p, n)
		}
	}
}

// TestGridLevelPriorShape pins the qualitative orderings the prior model
// must produce; the measured feedback corrects magnitudes, but a dense run
// freezes on these, so the shape is load-bearing.
func TestGridLevelPriorShape(t *testing.T) {
	mk := func(p, factor, rangeSize, spans int) *graph.GridLevel {
		return &graph.GridLevel{P: p, Factor: factor, RangeSize: rangeSize, Spans: spans}
	}
	// Ownership-limited parallelism: a 2-column level serializes 8 workers.
	wide := gridLevelPrior(priorGridPush, mk(16, 1, 1<<10, 0), 0, 8)
	narrow := gridLevelPrior(priorGridPush, mk(2, 8, 1<<13, 0), 0, 8)
	if narrow <= wide {
		t.Fatalf("2-column level (%v) must cost more than a 16-column one (%v) for 8 workers", narrow, wide)
	}
	// LLC misfit: ranges far beyond the LLC cost more than fitting ones.
	fit := gridLevelPrior(priorGridPush, mk(256, 1, 1<<18, 0), 0, 4)   // 2 MiB of metadata
	misfit := gridLevelPrior(priorGridPush, mk(4, 64, 1<<24, 0), 0, 4) // 128 MiB
	if misfit <= fit {
		t.Fatalf("LLC-overflowing level (%v) must cost more than a fitting one (%v)", misfit, fit)
	}
	// Span setup: at equal cache behaviour, more spans per edge cost more.
	cheap := gridLevelPrior(priorGridPush, mk(16, 1, 1<<10, 100), 60.0*100/10000, 4)
	costly := gridLevelPrior(priorGridPush, mk(16, 1, 1<<10, 5000), 60.0*5000/10000, 4)
	if costly <= cheap {
		t.Fatalf("span-heavy level (%v) must cost more than a lean one (%v)", costly, cheap)
	}
}

// TestResidentFraction pins the closed form behind the cache-misfit terms:
// everything resident up to three quarters of the capacity, the usable
// capacity over the working set beyond it, never rising with the set.
func TestResidentFraction(t *testing.T) {
	const capacity = graph.DefaultLLCBytes
	usable := int64(capacity) * 3 / 4
	for _, tc := range []struct {
		name string
		ws   int64
		want float64
	}{
		{"empty working set", 0, 1},
		{"exactly the usable capacity", usable, 1},
		{"twice the usable capacity", 2 * usable, 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := residentFraction(tc.ws, capacity); got != tc.want {
				t.Fatalf("residentFraction(%d, %d) = %v, want %v", tc.ws, capacity, got, tc.want)
			}
		})
	}
	t.Run("monotone non-increasing", func(t *testing.T) {
		prev := 1.0
		for ws := int64(1 << 10); ws < capacity*8; ws *= 2 {
			f := residentFraction(ws, capacity)
			if f > prev {
				t.Fatalf("residentFraction rose from %v to %v at a working set of %d", prev, f, ws)
			}
			prev = f
		}
	})
}

// TestRangeMissFactorSteps: a range whose metadata fits the usable L1D pays
// no misfit; past it the inner penalty phases in, and past the usable LLC
// the DRAM penalty on top, approaching 1 + both penalties.
func TestRangeMissFactorSteps(t *testing.T) {
	l1Range := int(gridL1DBytes * 3 / 4 / graph.GridVertexMetaBytes)
	llcRange := int(graph.DefaultLLCBytes * 3 / 4 / graph.GridVertexMetaBytes)
	if got := rangeMissFactor(l1Range); got != 1 {
		t.Fatalf("L1D-fitting range: factor %v, want 1", got)
	}
	inner := rangeMissFactor(llcRange)
	if inner <= 1 || inner >= 1+gridInnerMissPenalty {
		t.Fatalf("LLC-fitting range: factor %v, want in (1, %v)", inner, 1+gridInnerMissPenalty)
	}
	outer := rangeMissFactor(2 * llcRange)
	if want := 1 + gridInnerMissPenalty + gridLLCMissPenalty/2; outer <= inner || outer > want {
		t.Fatalf("range twice the usable LLC: factor %v, want in (%v, %v]", outer, inner, want)
	}
}

// TestFixedGridLevelsPinResolution: a static grid configuration runs every
// iteration at the materialized grid, and a static set pinned to a pyramid
// level (runAtLevel) runs and records that level — including the recorded
// plan.
func TestFixedGridLevelsPinResolution(t *testing.T) {
	g := gridOnlyGraph(t, 10, 16)
	cfg := Config{Layout: graph.LayoutGrid, Flow: Push, Sync: SyncPartitionFree}
	res, err := Run(g, algorithms.NewBFS(0), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	runs := map[int]*Result{16: res}
	for _, p := range []int{8, 2, 1} {
		runs[p] = runAtLevel(t, g, algorithms.NewBFS(0), cfg, p)
	}
	for wantP, res := range runs {
		for i, it := range res.PerIteration {
			if it.Plan.GridLevel != wantP {
				t.Fatalf("pinned grid/%d iteration %d: ran grid/%d", wantP, i, it.Plan.GridLevel)
			}
		}
	}
}

// TestGridLevelsLabelIdentity: BFS levels and WCC labels are identical at
// every pinned resolution — the pyramid only regroups the same edges.
func TestGridLevelsLabelIdentity(t *testing.T) {
	g := gridOnlyGraph(t, 10, 16)
	ref := algorithms.NewBFS(0)
	if _, err := Run(g, ref, Config{Layout: graph.LayoutGrid, Flow: PushPull, Sync: SyncPartitionFree}); err != nil {
		t.Fatalf("fine run: %v", err)
	}
	for n := 2; n <= g.Grid.NumLevels(); n++ {
		bfs := algorithms.NewBFS(0)
		runAtLevel(t, g, bfs, Config{Layout: graph.LayoutGrid, Flow: PushPull, Sync: SyncPartitionFree}, g.Grid.Level(n-1).P)
		for v := range ref.Level {
			if bfs.Level[v] != ref.Level[v] {
				t.Fatalf("level policy %d: bfs level[%d] = %d, want %d", n, v, bfs.Level[v], ref.Level[v])
			}
		}
	}
}

// TestGridLevelsBitIdenticalAcrossResolutions: the pyramid preserves the
// per-destination visit order (ascending fine rows within the destination's
// column) at EVERY level, so even PageRank's floating-point accumulation is
// bit-identical between pinned resolutions under a single worker's
// deterministic schedule — and between fine-pinned and the pre-pyramid
// default at any worker count.
func TestGridLevelsBitIdenticalAcrossResolutions(t *testing.T) {
	g := gridOnlyGraph(t, 10, 16)
	// run pins the gridLevels-th pyramid level (1 = finest); 0 is Run's own
	// static planner at the materialized P.
	run := func(gridLevels, workers int) *algorithms.PageRank {
		pr := algorithms.NewPageRank()
		cfg := Config{Layout: graph.LayoutGrid, Flow: Push, Sync: SyncPartitionFree, Workers: workers}
		if gridLevels > 0 {
			runAtLevel(t, g, pr, cfg, g.Grid.Level(gridLevels-1).P)
		} else if _, err := Run(g, pr, cfg); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return pr
	}
	// Any worker count: default (0) vs pinned-fine (1) is the same schedule.
	def, fine := run(0, 0), run(1, 0)
	for v := range def.Rank {
		if math.Float64bits(def.Rank[v]) != math.Float64bits(fine.Rank[v]) {
			t.Fatalf("rank[%d]: default %v, pinned-fine %v (not bit-identical)", v, def.Rank[v], fine.Rank[v])
		}
	}
	// Serial schedule: every resolution yields the same bits, because one
	// worker owns every column and the row order never changes.
	serialRef := run(1, 1)
	for n := 2; n <= g.Grid.NumLevels(); n++ {
		pr := run(n, 1)
		for v := range serialRef.Rank {
			if math.Float64bits(serialRef.Rank[v]) != math.Float64bits(pr.Rank[v]) {
				t.Fatalf("serial rank[%d] at level policy %d: %v, want %v", v, n, pr.Rank[v], serialRef.Rank[v])
			}
		}
	}
}

// TestAutoGridOnlyDenseFreezesOneResolution: a dense algorithm on a
// grid-only graph freezes a single resolution for the whole run, records it
// in every iteration's plan, and is bit-identical to the fixed configuration
// pinned at that resolution.
func TestAutoGridOnlyDenseFreezesOneResolution(t *testing.T) {
	g := gridOnlyGraph(t, 12, 64)
	auto := algorithms.NewPageRank()
	// The worker count is pinned: column ownership bounds a level's
	// parallelism, so on a graph this small the priors put the edge array
	// ahead of every grid level once there are more workers than columns
	// worth using — which plan wins must not depend on the host's CPUs.
	const workers = 2
	res, err := Run(g, auto, Config{Flow: Auto, Layout: graph.LayoutGrid, Workers: workers})
	if err != nil {
		t.Fatalf("auto run: %v", err)
	}
	frozen := res.PerIteration[0].Plan
	if frozen.Layout != graph.LayoutGrid || frozen.GridLevel == 0 {
		t.Fatalf("grid-only dense run froze %v, want a grid plan with a resolution", frozen)
	}
	for i, it := range res.PerIteration {
		if it.Plan != frozen {
			t.Fatalf("iteration %d: plan %v, want the frozen %v", i, it.Plan, frozen)
		}
	}
	// Pin the fixed configuration to the frozen level and compare bits.
	if g.Grid.LevelByP(frozen.GridLevel) == nil {
		t.Fatalf("frozen resolution %d is not a pyramid level", frozen.GridLevel)
	}
	fixed := algorithms.NewPageRank()
	runAtLevel(t, g, fixed, Config{Layout: graph.LayoutGrid, Flow: frozen.Flow, Sync: frozen.Sync, Workers: workers}, frozen.GridLevel)
	for v := range fixed.Rank {
		if math.Float64bits(auto.Rank[v]) != math.Float64bits(fixed.Rank[v]) {
			t.Fatalf("rank[%d]: auto %v, fixed-at-frozen-level %v (not bit-identical)", v, auto.Rank[v], fixed.Rank[v])
		}
	}
}

// TestAutoGridOnlyBFSCorrectAcrossLevelSwitches: a tracked algorithm may
// hop between resolutions mid-run; the result must stay label-identical to
// a fixed fine-grid run.
func TestAutoGridOnlyBFSCorrectAcrossLevelSwitches(t *testing.T) {
	g := gridOnlyGraph(t, 12, 64)
	ref := algorithms.NewBFS(0)
	if _, err := Run(g, ref, Config{Layout: graph.LayoutGrid, Flow: PushPull, Sync: SyncPartitionFree}); err != nil {
		t.Fatalf("fixed run: %v", err)
	}
	auto := algorithms.NewBFS(0)
	res, err := Run(g, auto, Config{Flow: Auto, Layout: graph.LayoutGrid})
	if err != nil {
		t.Fatalf("auto run: %v", err)
	}
	for v := range ref.Level {
		if auto.Level[v] != ref.Level[v] {
			t.Fatalf("level[%d]: auto %d, fixed %d", v, auto.Level[v], ref.Level[v])
		}
	}
	for i, it := range res.PerIteration {
		if it.Plan.Layout == graph.LayoutGrid && it.Plan.GridLevel == 0 {
			t.Fatalf("iteration %d: grid plan without a resolution: %v", i, it.Plan)
		}
	}
}

// TestConcurrentRunsOnPyramidlessGridDoNotMutate: a grid built outside
// prep has no pyramid; concurrent runs over the shared graph must fall back
// to runner-local level views instead of lazily building (and racing on)
// the grid's Levels slice. Run under -race.
func TestConcurrentRunsOnPyramidlessGridDoNotMutate(t *testing.T) {
	g := gridOnlyGraph(t, 10, 16)
	g.Grid.Levels = nil // simulate a hand-assembled grid
	cfg := Config{Layout: graph.LayoutGrid, Flow: Push, Sync: SyncPartitionFree, Workers: 2}
	ref := algorithms.NewPageRank()
	if _, err := Run(g, ref, cfg); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	var wg sync.WaitGroup
	prs := make([]*algorithms.PageRank, 4)
	errs := make([]error, 4)
	for i := range prs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			prs[i] = algorithms.NewPageRank()
			_, errs[i] = Run(g, prs[i], cfg)
		}()
	}
	wg.Wait()
	if g.Grid.NumLevels() != 0 {
		t.Fatalf("a run attached %d pyramid levels to the shared grid", g.Grid.NumLevels())
	}
	for i := range prs {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		for v := range ref.Rank {
			if math.Float64bits(prs[i].Rank[v]) != math.Float64bits(ref.Rank[v]) {
				t.Fatalf("concurrent run %d diverged at vertex %d", i, v)
			}
		}
	}
	// Pinned runs and auto runs on a pyramid-less grid run at its own P.
	res, err := Run(g, algorithms.NewBFS(0), cfg)
	if err != nil {
		t.Fatalf("pyramid-less fixed run: %v", err)
	}
	if got := res.PerIteration[0].Plan.GridLevel; got != g.Grid.P {
		t.Fatalf("pyramid-less grid ran grid/%d, want grid/%d", got, g.Grid.P)
	}
}

// TestDegenerateGridStaysNoOp: a zero-value grid (P = 0, representable even
// though Validate rejects it) must keep the pre-pyramid behaviour — iterate
// nothing and terminate — instead of looping in pyramid construction.
func TestDegenerateGridStaysNoOp(t *testing.T) {
	g := graph.New([]graph.Edge{{Src: 0, Dst: 1}}, 2, true)
	g.Grid = &graph.Grid{}
	bfs := algorithms.NewBFS(0)
	res, err := Run(g, bfs, Config{Layout: graph.LayoutGrid, Flow: Push, Sync: SyncPartitionFree})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Iterations != 1 {
		t.Fatalf("degenerate grid ran %d iterations, want the single empty one", res.Iterations)
	}
	if bfs.Level[1] != -1 {
		t.Fatal("a degenerate grid traversed an edge")
	}
}
