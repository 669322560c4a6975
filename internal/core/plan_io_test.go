package core

import (
	"strings"
	"testing"
	"time"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/graph"
)

// TestRunStreamedBudget: every pass of a streamed run is handed the
// configured budget unchanged — DefaultStreamMemoryBudget when none is
// configured, and a tight 32 KiB budget for 16 workers as it stands
// (shedding workers is the pool's, not the run's).
func TestRunStreamedBudget(t *testing.T) {
	const tight = 32 << 10
	for _, c := range []struct {
		name    string
		workers int
		budget  int64
		want    int64
	}{
		{"defaults", 1, 0, DefaultStreamMemoryBudget},
		{"configured", 1, 64 << 20, 64 << 20},
		{"tight", 16, tight, tight},
	} {
		t.Run(c.name, func(t *testing.T) {
			src := &recordingSource{fakeGridSource: fakeGridSource{fakeSource: fakeSource{n: 100}, p: 64}}
			cfg := Config{Layout: graph.LayoutGrid, Flow: Pull, Sync: SyncPartitionFree,
				Workers: c.workers, MemoryBudget: c.budget}
			if _, err := RunStreamed(src, algorithms.NewPageRank(), cfg); err != nil {
				t.Fatalf("RunStreamed: %v", err)
			}
			if len(src.passes) == 0 {
				t.Fatal("no pass ran")
			}
			for i, opt := range src.passes {
				if opt.MemoryBudget != c.want {
					t.Fatalf("pass %d ran under %d bytes, want %d", i, opt.MemoryBudget, c.want)
				}
			}
		})
	}
}

// fakeGridSource overrides the fake source's grid dimension.
type fakeGridSource struct {
	fakeSource
	p int
}

func (s *fakeGridSource) GridP() int { return s.p }

// TestStreamPlannerLabelsLayoutFlowSync: a streamed label, fixed or
// adaptive, names the layout, direction and sync only — nothing about the
// stored P or how the pass is fed.
func TestStreamPlannerLabelsLayoutFlowSync(t *testing.T) {
	src := &fakeGridSource{fakeSource: fakeSource{n: 64}, p: 16}
	plan := streamPlanner(src, Config{Flow: Push}, DefaultPushPullAlpha, true).Next(0, graph.NewFrontier(64))
	if want := "grid/push/no-lock"; plan.String() != want {
		t.Fatalf("fixed stream plan labeled %q, want %q", plan.String(), want)
	}
	for _, c := range streamPlanner(src, Config{Flow: Auto}, DefaultPushPullAlpha, true).candidates {
		if want := "grid/" + c.plan.Flow.String() + "/no-lock"; c.plan.String() != want {
			t.Fatalf("adaptive stream candidate labeled %q, want %q", c.plan.String(), want)
		}
	}
}

// TestAdaptiveObserveMatchesStreamedPlan: the plan a streamed pass executed
// is exactly its candidate, so its measurement lands on that candidate, and
// a plan outside the candidate set measures nothing.
func TestAdaptiveObserveMatchesStreamedPlan(t *testing.T) {
	env := plannerEnv{numVertices: 100, totalEdges: 1 << 20, alpha: 20, tracked: true}
	cs := gridCandidates(true)
	p := newPlanner(env, cs, true, nil)
	p.Observe(cs[0].plan, IterationStats{Duration: time.Millisecond, ActiveEdges: -1})
	stray := cs[1].plan
	stray.Layout = graph.LayoutAdjacency
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

func (s *recordingSource) StreamCells(opt StreamOptions, visit func(worker int, pairs []graph.Pair, weights []graph.Weight)) error {
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
// every pass of a streamed run receives the configured workers and budget —
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
			Workers: 4, MemoryBudget: 64 << 20}
		res, err := RunStreamed(src, pr, cfg)
		if err != nil {
			t.Fatalf("%v: RunStreamed: %v", flow, err)
		}
		want := StreamOptions{Workers: 4, MemoryBudget: 64 << 20}
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

// TestRunStreamedRejectsNegativeMemoryBudget: a negative budget is an
// error before any pass, not a silent run at the default.
func TestRunStreamedRejectsNegativeMemoryBudget(t *testing.T) {
	src := &recordingSource{fakeGridSource: fakeGridSource{fakeSource: fakeSource{n: 100}, p: 64}}
	cfg := Config{Layout: graph.LayoutGrid, Flow: Pull, Sync: SyncPartitionFree, MemoryBudget: -5 << 20}
	if _, err := RunStreamed(src, algorithms.NewPageRank(), cfg); err == nil || !strings.Contains(err.Error(), "MemoryBudget") {
		t.Fatalf("negative MemoryBudget: err = %v, want a MemoryBudget error", err)
	}
	if len(src.passes) != 0 {
		t.Fatalf("%d passes ran under a negative budget", len(src.passes))
	}
}
