package core

import (
	"strings"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/sched"
	"github.com/epfl-repro/everythinggraph/internal/trace"
)

// The tests in this file pin Batch to single-source runs: every source's
// result must be what a Run of the same algorithm from that source gives,
// whether the runs go side by side on leases of their own or one after
// another on a caller-held lease.

// batchSources picks k spread-out roots on g (distinct, in-range).
func batchSources(g *graph.Graph, k int) []graph.VertexID {
	n := g.NumVertices()
	srcs := make([]graph.VertexID, 0, k)
	seen := make(map[graph.VertexID]bool, k)
	for i := 0; len(srcs) < k; i++ {
		v := graph.VertexID((i*2654435761 + 17) % n)
		if !seen[v] {
			seen[v] = true
			srcs = append(srcs, v)
		}
	}
	return srcs
}

func TestBatchBFSFansOutAcrossGroups(t *testing.T) {
	g := gen.RMAT(gen.RMATOptions{Scale: 10, EdgeFactor: 8, Seed: 33})
	prepareAll(t, g, false)
	// More sources than workers: every lane runs several of them on its own
	// lease; -race covers the scratch separation.
	sources := batchSources(g, 100)
	cfg := Config{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics}

	results, err := Batch(g, BatchBFS, sources, cfg)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if len(results) != len(sources) {
		t.Fatalf("got %d results, want %d", len(results), len(sources))
	}
	runs := make(map[*Result]int, len(results))
	for i, r := range results {
		if r.Source != sources[i] {
			t.Fatalf("result %d: source %d, want %d", i, r.Source, sources[i])
		}
		bfs := algorithms.NewBFS(r.Source)
		if _, err := Run(g, bfs, cfg); err != nil {
			t.Fatalf("sequential bfs %d: %v", i, err)
		}
		for v := range r.Level {
			if r.Level[v] != bfs.Level[v] {
				t.Fatalf("source %d: level[%d] = %d, want %d", r.Source, v, r.Level[v], bfs.Level[v])
			}
		}
		if v, bad := badParent(g, r.Source, r.Parent, r.Level); bad {
			t.Fatalf("source %d: vertex %d at level %d: parent %d is not a valid BFS-tree parent",
				r.Source, v, r.Level[v], r.Parent[v])
		}
		if r.Dist != nil {
			t.Fatalf("source %d: BFS result carries distances", r.Source)
		}
		if r.Run == nil {
			t.Fatalf("source %d: missing engine result", r.Source)
		}
		if j, ok := runs[r.Run]; ok {
			t.Fatalf("results %d and %d share one engine result", j, i)
		}
		runs[r.Run] = i
	}
}

func TestBatchSSSPFansOut(t *testing.T) {
	g := gen.RMAT(gen.RMATOptions{Scale: 9, EdgeFactor: 8, Seed: 21, Weighted: true})
	prepareAll(t, g, false)
	sources := batchSources(g, 70)

	results, err := Batch(g, BatchSSSP, sources, Config{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	for i, r := range results {
		sssp := algorithms.NewSSSP(sources[i])
		if _, err := Run(g, sssp, Config{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics}); err != nil {
			t.Fatalf("sequential sssp %d: %v", i, err)
		}
		want := sssp.Distances()
		for v := range r.Dist {
			if r.Dist[v] != want[v] {
				t.Fatalf("source %d: dist[%d] = %v, want %v", r.Source, v, r.Dist[v], want[v])
			}
		}
		if r.Parent != nil || r.Level != nil {
			t.Fatalf("source %d: SSSP result carries a BFS tree", r.Source)
		}
	}
}

// TestBatchBFSMatchesSequentialAcrossConfigs: under every layout/flow/sync
// combination, each source of a batch gets the levels of a sequential
// reference run and a valid BFS tree.
func TestBatchBFSMatchesSequentialAcrossConfigs(t *testing.T) {
	g := gen.RMAT(gen.RMATOptions{Scale: 10, EdgeFactor: 8, Seed: 33})
	prepareAll(t, g, false)
	sources := batchSources(g, 16)

	refLevels := make([][]int32, len(sources))
	for i, src := range sources {
		bfs := algorithms.NewBFS(src)
		if _, err := Run(g, bfs, Config{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics}); err != nil {
			t.Fatalf("sequential bfs %d: %v", i, err)
		}
		refLevels[i] = bfs.Level
	}

	for _, cfg := range allConfigs() {
		name := cfg.Layout.String() + "/" + cfg.Flow.String() + "/" + cfg.Sync.String()
		t.Run(name, func(t *testing.T) {
			results, err := Batch(g, BatchBFS, sources, cfg)
			if err != nil {
				t.Fatalf("Batch: %v", err)
			}
			for i, r := range results {
				for v := range r.Level {
					if r.Level[v] != refLevels[i][v] {
						t.Fatalf("source %d: level[%d] = %d, want %d", r.Source, v, r.Level[v], refLevels[i][v])
					}
				}
				if v, bad := badParent(g, r.Source, r.Parent, r.Level); bad {
					t.Fatalf("source %d: vertex %d at level %d: parent %d is not a valid BFS-tree parent",
						r.Source, v, r.Level[v], r.Parent[v])
				}
			}
		})
	}
}

// TestBatchSSSPMatchesSequentialAcrossConfigs: under every layout/flow/sync
// combination, each source of a batch gets the distances of a sequential
// reference run.
func TestBatchSSSPMatchesSequentialAcrossConfigs(t *testing.T) {
	g := gen.RMAT(gen.RMATOptions{Scale: 9, EdgeFactor: 8, Seed: 21, Weighted: true})
	prepareAll(t, g, false)
	sources := batchSources(g, 8)

	refDist := make([][]float32, len(sources))
	for i, src := range sources {
		sssp := algorithms.NewSSSP(src)
		if _, err := Run(g, sssp, Config{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics}); err != nil {
			t.Fatalf("sequential sssp %d: %v", i, err)
		}
		refDist[i] = sssp.Distances()
	}

	for _, cfg := range allConfigs() {
		name := cfg.Layout.String() + "/" + cfg.Flow.String() + "/" + cfg.Sync.String()
		t.Run(name, func(t *testing.T) {
			results, err := Batch(g, BatchSSSP, sources, cfg)
			if err != nil {
				t.Fatalf("Batch: %v", err)
			}
			for i, r := range results {
				for v := range r.Dist {
					if r.Dist[v] != refDist[i][v] {
						t.Fatalf("source %d: dist[%d] = %v, want %v", r.Source, v, r.Dist[v], refDist[i][v])
					}
				}
			}
		})
	}
}

// TestBatchAutoGroupsConcurrentOrSequential: an adaptive batch gives every
// source the same levels whether its runs go side by side on leases of
// their own or one after the other on a caller-held lease.
func TestBatchAutoGroupsConcurrentOrSequential(t *testing.T) {
	g := gen.RMAT(gen.RMATOptions{Scale: 11, EdgeFactor: 8, Seed: 7})
	prepareAll(t, g, false)
	sources := batchSources(g, 128)

	concurrent, err := Batch(g, BatchBFS, sources, Config{Flow: Auto})
	if err != nil {
		t.Fatalf("concurrent batch: %v", err)
	}
	lease := sched.DefaultPool().Lease(2)
	defer lease.Release()
	sequential, err := Batch(g, BatchBFS, sources, Config{Flow: Auto, Lease: lease})
	if err != nil {
		t.Fatalf("sequential batch: %v", err)
	}
	if len(concurrent) != len(sources) || len(sequential) != len(sources) {
		t.Fatalf("got %d and %d results, want %d", len(concurrent), len(sequential), len(sources))
	}
	for i := range sources {
		if concurrent[i].Source != sources[i] || sequential[i].Source != sources[i] {
			t.Fatalf("result %d: sources %d and %d, want %d", i, concurrent[i].Source, sequential[i].Source, sources[i])
		}
		for v := range concurrent[i].Level {
			if concurrent[i].Level[v] != sequential[i].Level[v] {
				t.Fatalf("source %d level[%d]: concurrent %d != sequential %d",
					sources[i], v, concurrent[i].Level[v], sequential[i].Level[v])
			}
		}
	}
}

// TestBatchPlanLabelsAreSingleSource: a batch's runs are single-source
// runs, so their plan labels are the labels of Run;
// no label carries a multi-source width marker.
func TestBatchPlanLabelsAreSingleSource(t *testing.T) {
	g := gen.RMAT(gen.RMATOptions{Scale: 10, EdgeFactor: 8, Seed: 33})
	prepareAll(t, g, false)
	results, err := Batch(g, BatchBFS, batchSources(g, 8), Config{Flow: Auto})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	for _, r := range results {
		for i, it := range r.Run.PerIteration {
			if label := it.Plan.String(); strings.Contains(label, "×") {
				t.Fatalf("source %d iteration %d: plan %q carries a width marker", r.Source, i, label)
			}
		}
	}
}

// TestBatchTraceRecordsFirstSource: a recorder in cfg.Trace is a
// single-run recorder, so only source 0's run records into it, whichever
// lane runs it.
func TestBatchTraceRecordsFirstSource(t *testing.T) {
	g := gen.RMAT(gen.RMATOptions{Scale: 10, EdgeFactor: 8, Seed: 33})
	prepareAll(t, g, false)
	rec := trace.NewRecorder(0)
	results, err := Batch(g, BatchBFS, batchSources(g, 8), Config{Flow: Auto, Workers: 2, Trace: rec})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	got, _ := rec.Snapshot().Get("engine.iterations")
	if want := int64(results[0].Run.Iterations); got != want {
		t.Fatalf("trace counts %d iterations, want source 0's %d", got, want)
	}
}

func TestBatchLanes(t *testing.T) {
	lease := sched.DefaultPool().Lease(4)
	defer lease.Release()
	cases := []struct {
		name string
		cfg  Config
		n    int
		want int
	}{
		{"one lane per worker", Config{Workers: 4}, 64, 4},
		{"one lane per source", Config{Workers: 4}, 3, 3},
		{"one worker", Config{Workers: 1}, 64, 1},
		{"caller-held lease", Config{Workers: 4, Lease: lease}, 64, 1},
	}
	for _, c := range cases {
		if got := BatchLanes(c.cfg, c.n); got != c.want {
			t.Errorf("%s: %d lanes, want %d", c.name, got, c.want)
		}
	}
}

func TestBatchValidation(t *testing.T) {
	g := gen.RMAT(gen.RMATOptions{Scale: 8, EdgeFactor: 4, Seed: 1})
	prepareAll(t, g, false)
	sources := []graph.VertexID{0, 1, 2}

	if _, err := Batch(g, BatchKind(99), []graph.VertexID{0}, Config{}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := Batch(g, BatchBFS, nil, Config{}); err == nil {
		t.Fatal("empty source list accepted")
	}
	if _, err := Batch(g, BatchBFS, []graph.VertexID{graph.VertexID(g.NumVertices())}, Config{}); err == nil {
		t.Fatal("out-of-range source accepted")
	}

	// A rejected configuration starts no run: the first source's run would
	// record into the trace, as it does under a valid configuration.
	rec := trace.NewRecorder(0)
	if _, err := Batch(g, BatchBFS, sources, Config{Flow: Auto, Trace: rec}); err != nil {
		t.Fatalf("valid batch: %v", err)
	}
	if rec.Len() == 0 {
		t.Fatal("a valid batch recorded nothing into its trace")
	}
	rejected := map[string]Config{
		"invalid technique triple": {Layout: graph.LayoutAdjacency, Flow: PushPull, Sync: SyncPartitionFree},
	}
	for name, cfg := range rejected {
		rec := trace.NewRecorder(0)
		cfg.Trace = rec
		if _, err := Batch(g, BatchBFS, sources, cfg); err == nil {
			t.Fatalf("%s accepted", name)
		}
		if rec.Len() != 0 {
			t.Fatalf("%s: a run started (%d trace events)", name, rec.Len())
		}
	}
}
