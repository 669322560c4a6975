package core

import (
	"fmt"
	"strings"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/prep"
	"github.com/epfl-repro/everythinggraph/internal/sched"
)

// chainGraph builds 0 -> 1 -> 2 -> ... -> n-1.
func chainGraph(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1), W: 1})
	}
	return graph.New(edges, n, true)
}

// prepareAll builds every layout on a graph so any config can run.
func prepareAll(t testing.TB, g *graph.Graph, undirected bool) {
	t.Helper()
	opt := prep.Options{Method: prep.RadixSort, Undirected: undirected}
	if err := prep.BuildAdjacency(g, prep.InOut, opt); err != nil {
		t.Fatalf("BuildAdjacency: %v", err)
	}
	if err := prep.BuildGrid(g, 16, opt); err != nil {
		t.Fatalf("BuildGrid: %v", err)
	}
	if err := g.Out.Validate(); err != nil {
		t.Fatalf("out adjacency invalid: %v", err)
	}
	if err := g.Grid.Validate(); err != nil {
		t.Fatalf("grid invalid: %v", err)
	}
}

// allConfigs enumerates the layout/flow/sync combinations that are valid for
// general algorithms.
func allConfigs() []Config {
	var cfgs []Config
	add := func(c Config) { cfgs = append(cfgs, c) }
	// Edge array: push or pull direction is irrelevant; locks or atomics.
	add(Config{Layout: graph.LayoutEdgeArray, Flow: Push, Sync: SyncLocks})
	add(Config{Layout: graph.LayoutEdgeArray, Flow: Push, Sync: SyncAtomics})
	// Adjacency push.
	add(Config{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncLocks})
	add(Config{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics})
	// Adjacency pull (lock-free by construction).
	add(Config{Layout: graph.LayoutAdjacency, Flow: Pull, Sync: SyncPartitionFree})
	// Adjacency push-pull.
	add(Config{Layout: graph.LayoutAdjacency, Flow: PushPull, Sync: SyncAtomics})
	// Grid push/pull, partition-free and locks.
	add(Config{Layout: graph.LayoutGrid, Flow: Push, Sync: SyncPartitionFree})
	add(Config{Layout: graph.LayoutGrid, Flow: Push, Sync: SyncLocks})
	add(Config{Layout: graph.LayoutGrid, Flow: Pull, Sync: SyncPartitionFree})
	return cfgs
}

func TestWCCOnUndirectedComponents(t *testing.T) {
	// Two components: a triangle {0,1,2} and an edge {3,4}; vertex 5 isolated.
	edges := []graph.Edge{
		{Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 2, W: 1}, {Src: 2, Dst: 0, W: 1},
		{Src: 3, Dst: 4, W: 1},
	}
	g := graph.New(edges, 6, false)
	prepareAll(t, g, true)

	for _, cfg := range allConfigs() {
		name := cfg.Layout.String() + "/" + cfg.Flow.String() + "/" + cfg.Sync.String()
		t.Run(name, func(t *testing.T) {
			wcc := algorithms.NewWCC()
			if _, err := Run(g, wcc, cfg); err != nil {
				t.Fatalf("Run: %v", err)
			}
			want := []uint32{0, 0, 0, 3, 3, 5}
			for v, w := range want {
				if wcc.Labels[v] != w {
					t.Fatalf("label[%d] = %d, want %d", v, wcc.Labels[v], w)
				}
			}
			if got := wcc.NumComponents(); got != 3 {
				t.Fatalf("NumComponents = %d, want 3", got)
			}
		})
	}
}

func TestSSSPOnWeightedGraph(t *testing.T) {
	// 0 -> 1 (1), 0 -> 2 (4), 1 -> 2 (1), 2 -> 3 (1), 1 -> 3 (5)
	edges := []graph.Edge{
		{Src: 0, Dst: 1, W: 1}, {Src: 0, Dst: 2, W: 4},
		{Src: 1, Dst: 2, W: 1}, {Src: 2, Dst: 3, W: 1}, {Src: 1, Dst: 3, W: 5},
	}
	g := graph.New(edges, 4, true)
	prepareAll(t, g, false)
	want := []float32{0, 1, 2, 3}

	for _, cfg := range allConfigs() {
		name := cfg.Layout.String() + "/" + cfg.Flow.String() + "/" + cfg.Sync.String()
		t.Run(name, func(t *testing.T) {
			sssp := algorithms.NewSSSP(0)
			if _, err := Run(g, sssp, cfg); err != nil {
				t.Fatalf("Run: %v", err)
			}
			for v, w := range want {
				if got := sssp.Distance(graph.VertexID(v)); got != w {
					t.Fatalf("dist[%d] = %g, want %g", v, got, w)
				}
			}
		})
	}
}

func TestConfigValidation(t *testing.T) {
	g := chainGraph(10)
	// No adjacency built: push on adjacency must fail.
	if err := (Config{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncLocks}).Validate(g); err == nil {
		t.Fatal("expected error for missing adjacency")
	}
	// Edge array with partition-free sync must fail.
	if err := (Config{Layout: graph.LayoutEdgeArray, Flow: Push, Sync: SyncPartitionFree}).Validate(g); err == nil {
		t.Fatal("expected error for partition-free edge array")
	}
	// Grid not built.
	if err := (Config{Layout: graph.LayoutGrid, Flow: Push, Sync: SyncLocks}).Validate(g); err == nil {
		t.Fatal("expected error for missing grid")
	}
	// Push-pull on edge array is rejected.
	if err := (Config{Layout: graph.LayoutEdgeArray, Flow: PushPull, Sync: SyncLocks}).Validate(g); err == nil {
		t.Fatal("expected error for push-pull on edge array")
	}
}

func TestPerIterationStatsRecorded(t *testing.T) {
	g := chainGraph(50)
	prepareAll(t, g, false)
	runs := []struct {
		name string
		run  func(alg Algorithm, cfg Config) (*Result, error)
		cfg  Config
	}{
		{"in-memory", func(alg Algorithm, cfg Config) (*Result, error) { return Run(g, alg, cfg) },
			Config{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics}},
		{"streamed", func(alg Algorithm, cfg Config) (*Result, error) {
			return RunStreamed(&gridSource{grid: g.Grid}, alg, cfg)
		}, Config{Layout: graph.LayoutGrid, Flow: Push, Sync: SyncPartitionFree}},
	}
	for _, tc := range runs {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run(algorithms.NewBFS(0), tc.cfg)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			// 50 iterations: one per frontier {0}, {1}, ..., {49}; the last
			// frontier contains the tail vertex, which has no outgoing edges.
			if res.Iterations != 50 {
				t.Fatalf("iterations = %d, want 50", res.Iterations)
			}
			if len(res.PerIteration) != res.Iterations {
				t.Fatalf("per-iteration stats %d != iterations %d", len(res.PerIteration), res.Iterations)
			}
			for i, st := range res.PerIteration {
				if st.ActiveVertices != 1 {
					t.Fatalf("iteration %d: active = %d, want 1", i, st.ActiveVertices)
				}
			}
		})
	}
}

// TestOutOfRangeSourceRejected: a BFS or SSSP root outside the graph is an
// error from Run and RunStreamed, not an index panic in Init.
func TestOutOfRangeSourceRejected(t *testing.T) {
	g := gen.RMAT(gen.RMATOptions{Scale: 8, EdgeFactor: 4, Seed: 1})
	prepareAll(t, g, false)
	src := &gridSource{grid: g.Grid}
	n := graph.VertexID(g.NumVertices())
	algs := map[string]func() Algorithm{
		"bfs":  func() Algorithm { return algorithms.NewBFS(n) },
		"sssp": func() Algorithm { return algorithms.NewSSSP(n) },
	}
	for name, mk := range algs {
		runs := map[string]func() error{
			"Run": func() error {
				_, err := Run(g, mk(), Config{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics})
				return err
			},
			"RunStreamed": func() error {
				_, err := RunStreamed(src, mk(), Config{Layout: graph.LayoutGrid, Flow: Push, Sync: SyncPartitionFree})
				return err
			},
		}
		for runName, run := range runs {
			t.Run(fmt.Sprintf("%s/%s", name, runName), func(t *testing.T) {
				err := run()
				if err == nil || !strings.Contains(err.Error(), "out of range") {
					t.Fatalf("source %d of %d vertices: error %v, want one saying out of range", n, n, err)
				}
			})
		}
	}
}

// bindRecorder records the engine's BindRun calls before passing them on to
// the PageRank it wraps.
type bindRecorder struct {
	*algorithms.PageRank
	calls   int
	workers int
	pfor    ParallelFunc
}

func (b *bindRecorder) BindRun(workers int, pfor ParallelFunc) {
	b.calls++
	b.workers, b.pfor = workers, pfor
	b.PageRank.BindRun(workers, pfor)
}

// TestRunBindsWorkersAndExecutorOnce: the engine binds a run's parallelism
// through one hook, once per run. An unleased run gets its configured worker
// count, even above the CPU count, and loops on the process-wide pool; a
// leased run gets min(Workers, lease width) and loops on the lease.
func TestRunBindsWorkersAndExecutorOnce(t *testing.T) {
	g := gen.RMAT(gen.RMATOptions{Scale: 8, EdgeFactor: 8, Seed: 3})
	prepareAll(t, g, false)
	run := func(cfg Config) *bindRecorder {
		t.Helper()
		rec := &bindRecorder{PageRank: algorithms.NewPageRank()}
		rec.Iterations = 2
		if _, err := Run(g, rec, cfg); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if rec.calls != 1 || rec.pfor == nil {
			t.Fatalf("BindRun called %d times (executor nil: %v), want once with an executor", rec.calls, rec.pfor == nil)
		}
		return rec
	}
	// loops reports how many gang loops one two-participant loop on pfor
	// installs on the default pool and on the lease.
	loops := func(pfor ParallelFunc, lease *sched.Lease) (pool, leased int64) {
		p0, l0 := sched.DefaultCounters(), lease.Counters()
		pfor(0, 1<<12, 16, 2, func(worker, lo, hi int) {})
		return sched.DefaultCounters().Sub(p0).GangLoops, lease.Counters().Sub(l0).GangLoops
	}

	cfg := Config{Layout: graph.LayoutEdgeArray, Flow: Push, Sync: SyncAtomics, Workers: 8}
	lease := sched.DefaultPool().Lease(2)
	defer lease.Release()
	if got := lease.Workers(); got != 2 {
		t.Fatalf("lease Workers() = %d, want 2", got)
	}

	unleased := run(cfg)
	if unleased.workers != 8 {
		t.Fatalf("unleased run bound %d workers, want 8", unleased.workers)
	}
	if pool, leased := loops(unleased.pfor, lease); pool != 1 || leased != 0 {
		t.Fatalf("unleased executor installed %d pool and %d lease loops, want 1 and 0", pool, leased)
	}

	cfg.Lease = lease
	withLease := run(cfg)
	if withLease.workers != 2 {
		t.Fatalf("leased run bound %d workers, want 2 (the lease width)", withLease.workers)
	}
	if pool, leased := loops(withLease.pfor, lease); pool != 0 || leased != 1 {
		t.Fatalf("leased executor installed %d pool and %d lease loops, want 0 and 1", pool, leased)
	}
}
