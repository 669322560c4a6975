package core

import (
	"testing"
	"time"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/graph"
)

// ioStats fabricates the measurement the I/O controller consumes: an
// iteration of the given wall time whose workers stalled for waitFrac of it
// (already summed across the controller's worker count of 1 in these
// tests).
func ioStats(waitFrac float64) IterationStats {
	d := 100 * time.Millisecond
	return IterationStats{Duration: d, IOWait: time.Duration(float64(d) * waitFrac)}
}

func TestIOPlannerFixedPinsKnobs(t *testing.T) {
	cfg := Config{MemoryBudget: 64 << 20, PrefetchDepth: 4}
	p := newIOPlanner(cfg, 1, false)
	want := IOPlan{PrefetchDepth: 4, MemoryBudget: 64 << 20}
	if p.current() != want {
		t.Fatalf("fixed plan = %v, want %v", p.current(), want)
	}
	for i := 0; i < 10; i++ {
		p.observe(ioStats(0.9))
	}
	if p.current() != want {
		t.Fatalf("fixed plan moved to %v after I/O-bound iterations", p.current())
	}
}

func TestIOPlannerDefaultsAndClamps(t *testing.T) {
	p := newIOPlanner(Config{}, 1, false)
	want := IOPlan{PrefetchDepth: DefaultPrefetchDepth, MemoryBudget: DefaultStreamMemoryBudget}
	if p.current() != want {
		t.Fatalf("default fixed plan = %v, want %v", p.current(), want)
	}
	if p := newIOPlanner(Config{PrefetchDepth: 99}, 1, false); p.current().PrefetchDepth != MaxPrefetchDepth {
		t.Fatalf("depth 99 not clamped: %v", p.current())
	}
	if p := newIOPlanner(Config{PrefetchDepth: 1}, 1, false); p.current().PrefetchDepth != MinPrefetchDepth {
		t.Fatalf("depth 1 not clamped: %v", p.current())
	}
}

func TestIOPlannerRaisesDepthThenBudgetWhenIOBound(t *testing.T) {
	const budget = 64 << 20
	p := newIOPlanner(Config{MemoryBudget: budget, Flow: Auto}, 1, true)
	if got := p.current(); got.MemoryBudget != budget/2 || got.PrefetchDepth != DefaultPrefetchDepth {
		t.Fatalf("adaptive start = %v, want half budget at default depth", got)
	}
	// Depth doubles toward the max first.
	wantDepth := []int{4, 8, 8, 8}
	wantBudget := []int64{budget / 2, budget / 2, budget, budget}
	for i := range wantDepth {
		p.observe(ioStats(0.8))
		got := p.current()
		if got.PrefetchDepth != wantDepth[i] || got.MemoryBudget != wantBudget[i] {
			t.Fatalf("after %d I/O-bound iterations: %v, want d%d/%d", i+1, got, wantDepth[i], wantBudget[i])
		}
	}
}

func TestIOPlannerShedsBudgetWhenComputeBound(t *testing.T) {
	const budget = 64 << 20
	p := newIOPlanner(Config{MemoryBudget: budget, Flow: Auto}, 1, true)
	// Shrinks wait for ioCalmIterations consecutive calm iterations.
	p.observe(ioStats(0))
	if p.current().MemoryBudget != budget/2 {
		t.Fatalf("shrank after one calm iteration: %v", p.current())
	}
	p.observe(ioStats(0))
	if p.current().MemoryBudget != budget/4 {
		t.Fatalf("budget after calm streak = %v, want %d", p.current(), budget/4)
	}
	// The floor (cap/4) holds; the depth knob shrinks next, to its floor.
	for i := 0; i < 10; i++ {
		p.observe(ioStats(0))
	}
	got := p.current()
	if got.MemoryBudget != budget/4 {
		t.Fatalf("budget fell through the cap/4 floor: %v", got)
	}
	if got.PrefetchDepth != MinPrefetchDepth {
		t.Fatalf("depth = %d after long calm streak, want the %d floor", got.PrefetchDepth, MinPrefetchDepth)
	}
}

func TestIOPlannerUndoesOverShrink(t *testing.T) {
	const budget = 64 << 20
	p := newIOPlanner(Config{MemoryBudget: budget, Flow: Auto}, 1, true)
	p.observe(ioStats(0))
	p.observe(ioStats(0)) // shrink to budget/4
	if p.current().MemoryBudget != budget/4 {
		t.Fatalf("setup shrink failed: %v", p.current())
	}
	// The shrink starved the pass: the next I/O-bound iteration undoes it
	// and pins the level as a floor.
	p.observe(ioStats(0.8))
	if p.current().MemoryBudget != budget/2 {
		t.Fatalf("over-shrink not undone: %v", p.current())
	}
	for i := 0; i < 6; i++ {
		p.observe(ioStats(0))
	}
	if p.current().MemoryBudget != budget/2 {
		t.Fatalf("budget re-shrank below the pinned floor: %v", p.current())
	}
}

func TestIOPlannerStaleShrinkMarkerDoesNotPinFloor(t *testing.T) {
	const budget = 64 << 20
	p := newIOPlanner(Config{MemoryBudget: budget, Flow: Auto}, 1, true)
	p.observe(ioStats(0))
	p.observe(ioStats(0)) // shrink 32MiB -> 16MiB
	if p.current().MemoryBudget != budget/4 {
		t.Fatalf("setup shrink failed: %v", p.current())
	}
	// A calm iteration proves the shrink did not starve the pass; an
	// I/O-bound iteration AFTER that calm one is a new phase (e.g. the
	// frontier grew), not an over-shrink: the controller must take the
	// normal raise path (deepen the pipeline) instead of undoing the
	// two-iterations-old shrink and pinning the budget floor for good.
	p.observe(ioStats(0))
	p.observe(ioStats(0.9))
	got := p.current()
	if got.PrefetchDepth != 2*DefaultPrefetchDepth || got.MemoryBudget != budget/4 {
		t.Fatalf("post-calm I/O-bound iteration moved the wrong knob: %v", got)
	}
	if p.budgetFloor != budget/ioBudgetFloorDiv {
		t.Fatalf("stale shrink marker pinned the budget floor at %d", p.budgetFloor)
	}
}

func TestIOPlannerDepthCapFollowsBudget(t *testing.T) {
	// 64 KiB across 16 workers cannot feed a pipeline deeper than 2
	// without slices degenerating, so both the starting depth and every
	// raise must cap there — the recorded plan always matches what a
	// source's pool would actually execute. I/O-bound iterations spend
	// their raise steps on the budget knob instead.
	p := newIOPlanner(Config{MemoryBudget: 64 << 10, PrefetchDepth: 8, Flow: Auto}, 16, true)
	if got := p.current().PrefetchDepth; got != MinPrefetchDepth {
		t.Fatalf("starting depth %d exceeds what the budget can feed", got)
	}
	for i := 0; i < 6; i++ {
		// IOWait is summed across the 16 workers: 0.9 per-worker stall.
		p.observe(ioStats(0.9 * 16))
	}
	got := p.current()
	if got.PrefetchDepth != MinPrefetchDepth {
		t.Fatalf("raises pushed depth to %d past the budget's ceiling", got.PrefetchDepth)
	}
	if got.MemoryBudget != 64<<10 {
		t.Fatalf("budget knob did not absorb the raises: %v", got)
	}
}

func TestIOPlannerBudgetShedsClampDepthToWorkingCeiling(t *testing.T) {
	// 8 workers under a 256 KiB cap: the cap can feed depth 8, but once
	// the working budget sheds to cap/4 the slices at depth 8 would drop
	// below MinStreamSliceEdges. The shrink must pull the depth down to
	// what the NEW working budget can feed, keeping every emitted knob
	// combination non-degenerate.
	const workers, budget = 8, 256 << 10
	p := newIOPlanner(Config{MemoryBudget: budget, Flow: Auto}, workers, true)
	p.observe(ioStats(0.9 * workers))
	p.observe(ioStats(0.9 * workers)) // depth 2 -> 4 -> 8 at budget/2
	if got := p.current(); got.PrefetchDepth != MaxPrefetchDepth {
		t.Fatalf("setup raise failed: %v", got)
	}
	p.observe(ioStats(0))
	p.observe(ioStats(0)) // budget/2 -> budget/4
	got := p.current()
	if got.MemoryBudget != budget/4 {
		t.Fatalf("budget after calm streak = %v", got)
	}
	slice := got.MemoryBudget / (int64(workers) * int64(got.PrefetchDepth) * StreamResidentEdgeBytes)
	if slice < MinStreamSliceEdges {
		t.Fatalf("emitted knobs %v imply %d-edge slices, below the %d-edge guard",
			got, slice, MinStreamSliceEdges)
	}
	if got.PrefetchDepth >= MaxPrefetchDepth {
		t.Fatalf("depth %d not clamped to the working budget's ceiling", got.PrefetchDepth)
	}
}

func TestIOPlannerBudgetFloorFeedsAllWorkers(t *testing.T) {
	// 64 workers under a 400 KiB cap: the ceiling feeds everyone, but
	// cap/4 would not. The shrink floor must rise to the smallest budget
	// that still gives every worker MinStreamSliceEdges-sized slices at
	// the shallowest pipeline — calm streaks then shed depth, not slices.
	const workers, budget = 64, 400 << 10
	p := newIOPlanner(Config{MemoryBudget: budget, Flow: Auto}, workers, true)
	for i := 0; i < 10; i++ {
		p.observe(ioStats(0))
	}
	got := p.current()
	slice := got.MemoryBudget / (int64(workers) * int64(got.PrefetchDepth) * StreamResidentEdgeBytes)
	if slice < MinStreamSliceEdges {
		t.Fatalf("calm streak shed to %v: %d-edge slices, below the %d-edge guard",
			got, slice, MinStreamSliceEdges)
	}
}

func TestStreamWorkersClampsAndSheds(t *testing.T) {
	src := &fakeSource{n: 100} // GridP() == 1
	if got := StreamExecWorkers(src.GridP(), 32, DefaultStreamMemoryBudget); got != 1 {
		t.Fatalf("32 workers on a 1x1 grid -> %d, want 1 (one worker per column at most)", got)
	}
	wide := &fakeGridSource{fakeSource: fakeSource{n: 100}, p: 64}
	if got := StreamExecWorkers(wide.GridP(), 32, DefaultStreamMemoryBudget); got != 32 {
		t.Fatalf("roomy budget shed workers: %d", got)
	}
	// 4 KiB cannot feed two workers' minimal buffers (2*2*64*24 = 6 KiB).
	if got := StreamExecWorkers(wide.GridP(), 8, 4<<10); got != 1 {
		t.Fatalf("4 KiB budget kept %d workers, want 1", got)
	}
}

// fakeGridSource overrides the fake source's grid dimension.
type fakeGridSource struct {
	fakeSource
	p int
}

func (s *fakeGridSource) GridP() int { return s.p }

func TestIOPlannerNormalizesWaitByWorkers(t *testing.T) {
	// Eight workers each stalled 10% of the time sum to 0.8 of the wall
	// time; the per-worker fraction is what the thresholds compare.
	p := newIOPlanner(Config{MemoryBudget: 64 << 20, Flow: Auto}, 8, true)
	before := p.current()
	p.observe(ioStats(0.8))
	if got := p.current(); got != before {
		t.Fatalf("10%% per-worker stall raised the knobs: %v -> %v", before, got)
	}
}

func TestStepPlanStringWithAndWithoutIO(t *testing.T) {
	base := StepPlan{Layout: graph.LayoutGrid, Flow: Push, Sync: SyncPartitionFree}
	if got := base.String(); got != "grid/push/no-lock" {
		t.Fatalf("in-memory plan label = %q", got)
	}
	withIO := base
	withIO.IO = IOPlan{PrefetchDepth: 4, MemoryBudget: 32 << 20}
	if got := withIO.String(); got != "grid/push/no-lock[d4 32MiB]" {
		t.Fatalf("streamed plan label = %q", got)
	}
	withIO.IO.MemoryBudget = 48 << 10
	if got := withIO.String(); got != "grid/push/no-lock[d4 48KiB]" {
		t.Fatalf("KiB budget label = %q", got)
	}
	if withIO.key() != base {
		t.Fatalf("key() did not clear the IO dimension: %v", withIO.key())
	}
}

func TestAdaptiveObserveMatchesPlanAcrossIOChanges(t *testing.T) {
	env := plannerEnv{numVertices: 100, totalEdges: 1 << 20, alpha: 20, tracked: true}
	plan := StepPlan{Layout: graph.LayoutGrid, Flow: Push, Sync: SyncPartitionFree, Tracked: true}
	p := newPlanner(env, []planCandidate{{plan: plan, prior: priorGridPush, fullScan: true}}, true, nil, nil)
	observed := plan
	observed.IO = IOPlan{PrefetchDepth: 8, MemoryBudget: 1 << 20}
	p.Observe(observed, IterationStats{Duration: time.Millisecond, ActiveEdges: -1})
	if p.measured[0] == 0 {
		t.Fatal("plan with I/O knobs set did not match its candidate")
	}
	if costs := p.measuredCosts(); costs["grid/push/no-lock"] == 0 {
		t.Fatalf("measured costs not exported under the IO-free key: %v", costs)
	}
}

func TestAdaptivePlannerSeedsAndRescalesCostPriors(t *testing.T) {
	env := plannerEnv{numVertices: 100, totalEdges: 1 << 20, alpha: 20, tracked: false}
	push := StepPlan{Layout: graph.LayoutGrid, Flow: Push, Sync: SyncPartitionFree}
	pull := StepPlan{Layout: graph.LayoutGrid, Flow: Pull, Sync: SyncPartitionFree}
	candidates := []planCandidate{
		{plan: push, prior: priorGridPush, fullScan: true},
		{plan: pull, prior: priorGridPull, fullScan: true},
	}

	// Without priors a dense run freezes on the lower hand prior (push).
	p := newPlanner(env, candidates, true, nil, nil)
	if plan := p.Next(0, graph.NewFrontier(100)); plan.Flow != Push {
		t.Fatalf("hand priors froze %v, want push", plan)
	}

	// Cached measurements for both candidates flip the frozen choice when
	// they contradict the hand ordering.
	p = newPlanner(env, []planCandidate{
		{plan: push, prior: priorGridPush, fullScan: true},
		{plan: pull, prior: priorGridPull, fullScan: true},
	}, true, map[string]float64{"grid/pull/no-lock": 5.0, "grid/push/no-lock": 20.0}, nil)
	if plan := p.Next(0, graph.NewFrontier(100)); plan.Flow != Pull {
		t.Fatalf("cached measurements froze %v, want pull", plan)
	}
	if p.measured[1] != 5.0 || p.measured[0] != 20.0 {
		t.Fatalf("measured EWMA not seeded: %v", p.measured)
	}

	// A single measurement carries no cross-plan information: measurements
	// are real nanoseconds while hand priors are just an ordering, so the
	// unmeasured candidate's prior is rescaled into the measured scale
	// (preserving the hand ordering) instead of being compared raw — a raw
	// comparison would treat 2.4 "ordering units" as cheaper than any real
	// measurement above 2.4ns and flip the choice on every fast machine.
	p = newPlanner(env, []planCandidate{
		{plan: push, prior: priorGridPush, fullScan: true},
		{plan: pull, prior: priorGridPull, fullScan: true},
	}, true, map[string]float64{"grid/push/no-lock": 5.0}, nil)
	if plan := p.Next(0, graph.NewFrontier(100)); plan.Flow != Push {
		t.Fatalf("single measurement flipped the hand ordering: froze %v", plan)
	}
	// pull's prior was rescaled by the 5.0/2.4 ratio and stays above
	// push's measured 5.0.
	if got := p.candidates[1].prior; got <= priorGridPull {
		t.Fatalf("unmeasured prior not rescaled into the measured scale: %v", got)
	}
}

// slowFakeSource extends the scripted fake source with fabricated I/O
// accounting, so streamed adaptation can be driven deterministically.
type slowFakeSource struct {
	fakeSource
	ioTimePerPass time.Duration
	ioWaitPerPass time.Duration
}

func (s *slowFakeSource) StreamCells(opt StreamOptions, visit func(worker int, edges []graph.Edge)) error {
	s.stats.IOTime += s.ioTimePerPass
	s.stats.IOWait += s.ioWaitPerPass
	return s.fakeSource.StreamCells(opt, visit)
}

// denseFakeEdges builds a dense edge set large enough that iterations clear
// minMeasureEdges and feed the cost model.
func denseFakeEdges(n int) []graph.Edge {
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for d := 1; d <= 64; d++ {
			edges = append(edges, graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID((u + d) % n), W: 1})
		}
	}
	return edges
}

func TestRunStreamedAdaptsIOKnobsFromIOWait(t *testing.T) {
	const n = 128
	src := &slowFakeSource{
		fakeSource:    fakeSource{n: n, edges: denseFakeEdges(n)},
		ioTimePerPass: 40 * time.Second,
		ioWaitPerPass: 30 * time.Second, // dwarfs any real wall time: every iteration is I/O-bound
	}
	pr := algorithms.NewPageRank()
	pr.Iterations = 6
	const budget = 64 << 20
	res, err := RunStreamed(src, pr, Config{Flow: Auto, Workers: 1, MemoryBudget: budget})
	if err != nil {
		t.Fatalf("RunStreamed: %v", err)
	}
	if len(res.PerIteration) != 6 {
		t.Fatalf("%d iterations, want 6", len(res.PerIteration))
	}
	first, last := res.PerIteration[0].Plan.IO, res.PerIteration[5].Plan.IO
	if first.PrefetchDepth != DefaultPrefetchDepth || first.MemoryBudget != budget/2 {
		t.Fatalf("first iteration I/O plan = %v, want the adaptive start", first)
	}
	if last.PrefetchDepth != MaxPrefetchDepth || last.MemoryBudget != budget {
		t.Fatalf("I/O-bound run ended at %v, want d%d at the full budget", last, MaxPrefetchDepth)
	}
	for i, it := range res.PerIteration {
		if it.IOWait != 30*time.Second {
			t.Fatalf("iteration %d IOWait = %v", i, it.IOWait)
		}
		if it.IOHidden != 10*time.Second {
			t.Fatalf("iteration %d IOHidden = %v, want IOTime-IOWait", i, it.IOHidden)
		}
		// The frozen dense direction must not move while the I/O knobs do.
		if it.Plan.key() != res.PerIteration[0].Plan.key() {
			t.Fatalf("frozen plan moved at iteration %d: %v", i, it.Plan)
		}
	}
	if res.PlanCosts == nil {
		t.Fatal("adaptive streamed run exported no measured costs")
	}
}

func TestValidateRejectsCostPriorsOnStaticFlow(t *testing.T) {
	cfg := Config{Layout: graph.LayoutGrid, Flow: Push, Sync: SyncPartitionFree,
		CostPriors: map[string]float64{"grid/push/no-lock": 1}}
	if err := cfg.validateAlpha(); err == nil {
		t.Fatal("CostPriors on a static flow was not rejected")
	}
	if err := (Config{PrefetchDepth: -1}).validateAlpha(); err == nil {
		t.Fatal("negative PrefetchDepth was not rejected")
	}
}
