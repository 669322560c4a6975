package core

import (
	"testing"
	"time"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/graph"
)

// tightBudget feeds 16 workers' minimal slices 8/3 deep (64 KiB at 24
// resident bytes an edge): not the 3 slots a deeper pipeline needs, but
// two workers 21 deep.
const tightBudget = 16 * MinStreamSliceEdges * StreamResidentEdgeBytes * 8 / 3

func TestStreamRecipeDefaultsAndClamps(t *testing.T) {
	wide := &fakeGridSource{fakeSource: fakeSource{n: 100}, p: 64}
	for _, c := range []struct {
		name       string
		cfg        Config
		wantDepth  int
		wantBudget int64
	}{
		{"defaults", Config{Workers: 1}, DefaultPrefetchDepth, DefaultStreamMemoryBudget},
		{"configured", Config{Workers: 1, PrefetchDepth: 4, MemoryBudget: 64 << 20}, 4, 64 << 20},
		{"deep", Config{Workers: 1, PrefetchDepth: 99}, MaxPrefetchDepth, DefaultStreamMemoryBudget},
		{"shallow", Config{Workers: 1, PrefetchDepth: 1}, MinPrefetchDepth, DefaultStreamMemoryBudget},
		// tightBudget across 16 workers cannot feed a pipeline deeper than
		// 2 without slices degenerating below MinStreamSliceEdges.
		{"tight", Config{Workers: 16, PrefetchDepth: 8, MemoryBudget: tightBudget}, MinPrefetchDepth, tightBudget},
	} {
		t.Run(c.name, func(t *testing.T) {
			depth, budget := StreamRecipe(wide, c.cfg)
			if depth != c.wantDepth || budget != c.wantBudget {
				t.Errorf("recipe d%d %d bytes, want d%d %d bytes", depth, budget, c.wantDepth, c.wantBudget)
			}
		})
	}
}

// TestStreamRecipeDepthCapFollowsBudget: a deep configured pipeline is cut
// to what the budget can feed across the workers without slices shrinking
// below MinStreamSliceEdges, and gets its full depth back as the budget
// grows.
func TestStreamRecipeDepthCapFollowsBudget(t *testing.T) {
	wide := &fakeGridSource{fakeSource: fakeSource{n: 100}, p: 64}
	const workers = 16
	perSlot := int64(workers * MinStreamSliceEdges * StreamResidentEdgeBytes) // one minimal slice per worker
	for _, c := range []struct {
		budget    int64
		wantDepth int
	}{
		{2 * perSlot, 2},
		{4 * perSlot, 4},
		{6*perSlot + perSlot/2, 6},
		{8 * perSlot, 8},
		{64 * perSlot, MaxPrefetchDepth},
	} {
		depth, budget := StreamRecipe(wide, Config{Workers: workers, PrefetchDepth: MaxPrefetchDepth, MemoryBudget: c.budget})
		if depth != c.wantDepth || budget != c.budget {
			t.Errorf("budget %d: recipe d%d %d bytes, want d%d", c.budget, depth, budget, c.wantDepth)
		}
	}
}

// TestStreamRecipeDepthCapAtStoredResolution: the depth cap is taken at the
// worker count a pass can run — at most one per stored column — so a narrow
// store keeps a deep pipeline under a budget that would starve 16 workers.
func TestStreamRecipeDepthCapAtStoredResolution(t *testing.T) {
	cfg := Config{Workers: 16, PrefetchDepth: 8, MemoryBudget: tightBudget}
	narrow := &fakeGridSource{fakeSource: fakeSource{n: 100}, p: 2}
	if depth, _ := StreamRecipe(narrow, cfg); depth != 8 {
		t.Fatalf("2-column store: depth %d, want 8 (two workers can feed it)", depth)
	}
	wide := &fakeGridSource{fakeSource: fakeSource{n: 100}, p: 64}
	if depth, _ := StreamRecipe(wide, cfg); depth != MinPrefetchDepth {
		t.Fatalf("64-column store: depth %d, want %d (16 workers cannot feed more)", depth, MinPrefetchDepth)
	}
}

func TestStreamDepthCapClampsToPipelineBounds(t *testing.T) {
	perSlot := int64(MinStreamSliceEdges * StreamResidentEdgeBytes)
	for _, c := range []struct {
		workers int
		budget  int64
		want    int
	}{
		{1, 0, MinPrefetchDepth},
		{1, perSlot, MinPrefetchDepth},
		{1, 5 * perSlot, 5},
		{4, 20 * perSlot, 5},
		{0, 5 * perSlot, 5}, // no workers counts as one
		{1, 1 << 40, MaxPrefetchDepth},
	} {
		if got := StreamDepthCap(c.workers, c.budget); got != c.want {
			t.Errorf("StreamDepthCap(%d, %d) = %d, want %d", c.workers, c.budget, got, c.want)
		}
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
	// Two thirds of two workers' minimal buffers (4 KiB at 24 resident
	// bytes an edge) cannot feed them.
	const short = 2 * MinPrefetchDepth * MinStreamSliceEdges * StreamResidentEdgeBytes * 2 / 3
	if got := StreamExecWorkers(wide.GridP(), 8, short); got != 1 {
		t.Fatalf("%d-byte budget kept %d workers, want 1", short, got)
	}
}

// fakeGridSource overrides the fake source's grid dimension.
type fakeGridSource struct {
	fakeSource
	p int
}

func (s *fakeGridSource) GridP() int { return s.p }

// TestStreamPlannerLabelsCompressedSource: a compressed source streams
// under "compressed" plans (fixed and adaptive), so traces tell the two
// storage formats apart, and a streamed label names the layout, direction
// and sync only — nothing about the stored P or how the pass is fed.
func TestStreamPlannerLabelsCompressedSource(t *testing.T) {
	src := &fakeSource{n: 64, compressed: true}
	plan := streamPlanner(src, Config{Flow: Push}, DefaultPushPullAlpha, true).Next(0, graph.NewFrontier(64))
	if want := "compressed/push/no-lock"; plan.Layout != graph.LayoutGridCompressed || plan.String() != want {
		t.Fatalf("fixed stream plan over a compressed source: %v (%q), want %q", plan.Layout, plan.String(), want)
	}
	for _, c := range streamPlanner(src, Config{Flow: Auto}, DefaultPushPullAlpha, true).candidates {
		if c.plan.Layout != graph.LayoutGridCompressed {
			t.Fatalf("adaptive stream candidate over a compressed source has layout %v", c.plan.Layout)
		}
	}
	plain := &fakeGridSource{fakeSource: fakeSource{n: 64}, p: 16}
	plan = streamPlanner(plain, Config{Flow: Push}, DefaultPushPullAlpha, true).Next(0, graph.NewFrontier(64))
	if want := "grid/push/no-lock"; plan.String() != want {
		t.Fatalf("v1 stream plan labeled %q, want %q", plan.String(), want)
	}
}

// TestAdaptiveObserveMatchesStreamedPlan: the plan a streamed pass executed
// is exactly its candidate, so its measurement lands on that candidate, and
// a plan outside the candidate set measures nothing.
func TestAdaptiveObserveMatchesStreamedPlan(t *testing.T) {
	env := plannerEnv{numVertices: 100, totalEdges: 1 << 20, alpha: 20, tracked: true}
	cs := gridCandidates(graph.LayoutGrid, priorGridPush, priorGridPull, true)
	p := newPlanner(env, cs, true, nil)
	p.Observe(cs[0].plan, IterationStats{Duration: time.Millisecond, ActiveEdges: -1})
	stray := cs[1].plan
	stray.Layout = graph.LayoutGridCompressed
	p.Observe(stray, IterationStats{Duration: time.Millisecond, ActiveEdges: -1})
	if p.measured[0] == 0 || p.measured[1] != 0 {
		t.Fatalf("want one measurement on the executed candidate, got %v", p.measured)
	}
}

// recordingSource extends the scripted fake source with fabricated I/O
// accounting and records the options every pass receives.
type recordingSource struct {
	fakeGridSource
	ioTimePerPass time.Duration
	ioWaitPerPass time.Duration
	passes        []StreamOptions
}

func (s *recordingSource) StreamCells(opt StreamOptions, visit func(worker int, edges []graph.Edge)) error {
	s.passes = append(s.passes, opt)
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

// TestRunStreamedPassesShareOneRecipe: under a static flow and under Auto,
// every pass of a streamed run receives the recipe StreamRecipe resolves —
// however I/O-bound the passes are — and each iteration records the pass's
// stall and hidden I/O time.
func TestRunStreamedPassesShareOneRecipe(t *testing.T) {
	const n = 128
	for _, flow := range []Flow{Pull, Auto} {
		src := &recordingSource{
			fakeGridSource: fakeGridSource{fakeSource: fakeSource{n: n, edges: denseFakeEdges(n)}, p: 64},
			ioTimePerPass:  40 * time.Second,
			ioWaitPerPass:  30 * time.Second, // dwarfs any real wall time: every iteration is I/O-bound
		}
		pr := algorithms.NewPageRank()
		pr.Iterations = 6
		cfg := Config{Layout: graph.LayoutGrid, Flow: flow, Sync: SyncPartitionFree,
			Workers: 4, MemoryBudget: 64 << 20, PrefetchDepth: 4}
		res, err := RunStreamed(src, pr, cfg)
		if err != nil {
			t.Fatalf("%v: RunStreamed: %v", flow, err)
		}
		depth, budget := StreamRecipe(src, cfg)
		want := StreamOptions{Workers: 4, MemoryBudget: budget, PrefetchDepth: depth}
		if len(src.passes) != 6 {
			t.Fatalf("%v: %d passes, want 6", flow, len(src.passes))
		}
		for i, opt := range src.passes {
			if opt != want {
				t.Fatalf("%v: pass %d options %+v, want %+v", flow, i, opt, want)
			}
		}
		for i, it := range res.PerIteration {
			if it.IOWait != 30*time.Second || it.IOHidden != 10*time.Second {
				t.Fatalf("%v: iteration %d IOWait %v IOHidden %v, want 30s and IOTime-IOWait", flow, i, it.IOWait, it.IOHidden)
			}
		}
	}
}

func TestValidateRejectsNegativePrefetchDepth(t *testing.T) {
	if err := (Config{PrefetchDepth: -1}).validateAlpha(); err == nil {
		t.Fatal("negative PrefetchDepth was not rejected")
	}
}
