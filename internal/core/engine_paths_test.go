package core

import (
	"math"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/prep"
)

// rmatTestGraph builds a small power-law graph with every layout attached,
// big enough (scale 12) that iterations span many chunks and both gang and
// fallback scheduling paths are exercised.
func rmatTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := gen.RMAT(gen.RMATOptions{Scale: 12, EdgeFactor: 8, Seed: 7})
	if err := prep.BuildAdjacency(g, prep.InOut, prep.Options{Method: prep.RadixSort}); err != nil {
		t.Fatalf("BuildAdjacency: %v", err)
	}
	if err := prep.BuildGrid(g, 8, prep.Options{}); err != nil {
		t.Fatalf("BuildGrid: %v", err)
	}
	return g
}

// TestBFSIdenticalAcrossWorkerCounts asserts that BFS levels are
// bit-identical between the serial path (Workers=1, which runs every loop
// inline and never touches the worker pool) and the pooled parallel path.
// BFS levels are exact integers, so any scheduling-dependent difference is
// an engine bug.
func TestBFSIdenticalAcrossWorkerCounts(t *testing.T) {
	g := rmatTestGraph(t)
	cfgs := []Config{
		{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics},
		{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncLocks},
		{Layout: graph.LayoutAdjacency, Flow: Pull, Sync: SyncPartitionFree},
		{Layout: graph.LayoutAdjacency, Flow: PushPull, Sync: SyncAtomics},
		{Layout: graph.LayoutEdgeArray, Flow: Push, Sync: SyncAtomics},
		{Layout: graph.LayoutGrid, Flow: Push, Sync: SyncPartitionFree},
		{Layout: graph.LayoutGrid, Flow: Pull, Sync: SyncPartitionFree},
		{Layout: graph.LayoutGrid, Flow: Push, Sync: SyncLocks},
	}
	for _, cfg := range cfgs {
		name := cfg.Layout.String() + "/" + cfg.Flow.String() + "/" + cfg.Sync.String()
		t.Run(name, func(t *testing.T) {
			serial := algorithms.NewBFS(0)
			cfgSerial := cfg
			cfgSerial.Workers = 1
			if _, err := Run(g, serial, cfgSerial); err != nil {
				t.Fatalf("serial run: %v", err)
			}
			pooled := algorithms.NewBFS(0)
			cfgPooled := cfg
			cfgPooled.Workers = 4
			if _, err := Run(g, pooled, cfgPooled); err != nil {
				t.Fatalf("pooled run: %v", err)
			}
			for v := range serial.Level {
				if serial.Level[v] != pooled.Level[v] {
					t.Fatalf("level[%d]: serial %d, pooled %d", v, serial.Level[v], pooled.Level[v])
				}
			}
		})
	}
}

// TestPageRankIdenticalAcrossWorkerCounts compares PageRank between the
// serial and pooled paths. Pull mode accumulates each vertex's sum in fixed
// CSR order regardless of scheduling, so the ranks must be bit-identical.
// Push mode interleaves atomic float additions in scheduling-dependent
// order, so it is compared against the serial ranks within a tight
// floating-point tolerance instead. Every grid pass is one column-owned
// walk whatever the flow and sync, so each destination sums its edges in
// one order and every static grid configuration must match serial grid
// pull bit for bit.
func TestPageRankIdenticalAcrossWorkerCounts(t *testing.T) {
	g := rmatTestGraph(t)

	t.Run("pull-bit-identical", func(t *testing.T) {
		cfg := Config{Layout: graph.LayoutAdjacency, Flow: Pull, Sync: SyncPartitionFree}
		serial := algorithms.NewPageRank()
		cfgSerial := cfg
		cfgSerial.Workers = 1
		if _, err := Run(g, serial, cfgSerial); err != nil {
			t.Fatalf("serial run: %v", err)
		}
		pooled := algorithms.NewPageRank()
		cfgPooled := cfg
		cfgPooled.Workers = 4
		if _, err := Run(g, pooled, cfgPooled); err != nil {
			t.Fatalf("pooled run: %v", err)
		}
		for v := range serial.Rank {
			if math.Float64bits(serial.Rank[v]) != math.Float64bits(pooled.Rank[v]) {
				t.Fatalf("rank[%d]: serial %v, pooled %v (not bit-identical)", v, serial.Rank[v], pooled.Rank[v])
			}
		}
	})

	t.Run("grid-bit-identical", func(t *testing.T) {
		ref := algorithms.NewPageRank()
		if _, err := Run(g, ref, Config{Layout: graph.LayoutGrid, Flow: Pull, Sync: SyncPartitionFree, Workers: 1}); err != nil {
			t.Fatalf("serial grid pull: %v", err)
		}
		for _, flow := range []Flow{Push, Pull, PushPull} {
			for _, sync := range []SyncMode{SyncLocks, SyncAtomics, SyncPartitionFree} {
				for _, workers := range []int{1, 4} {
					cfg := Config{Layout: graph.LayoutGrid, Flow: flow, Sync: sync, Workers: workers}
					pr := algorithms.NewPageRank()
					if _, err := Run(g, pr, cfg); err != nil {
						t.Fatalf("%v/%v/%d workers: %v", flow, sync, workers, err)
					}
					for v := range ref.Rank {
						if math.Float64bits(ref.Rank[v]) != math.Float64bits(pr.Rank[v]) {
							t.Fatalf("%v/%v/%d workers: rank[%d] %v, serial grid pull %v (not bit-identical)",
								flow, sync, workers, v, pr.Rank[v], ref.Rank[v])
						}
					}
				}
			}
		}
	})

	t.Run("push-atomics-tolerance", func(t *testing.T) {
		cfg := Config{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics}
		serial := algorithms.NewPageRank()
		cfgSerial := cfg
		cfgSerial.Workers = 1
		if _, err := Run(g, serial, cfgSerial); err != nil {
			t.Fatalf("serial run: %v", err)
		}
		pooled := algorithms.NewPageRank()
		cfgPooled := cfg
		cfgPooled.Workers = 4
		if _, err := Run(g, pooled, cfgPooled); err != nil {
			t.Fatalf("pooled run: %v", err)
		}
		for v := range serial.Rank {
			diff := math.Abs(serial.Rank[v] - pooled.Rank[v])
			if diff > 1e-12*(math.Abs(serial.Rank[v])+1e-300) && diff > 1e-15 {
				t.Fatalf("rank[%d]: serial %v, pooled %v (diff %g beyond reassociation tolerance)",
					v, serial.Rank[v], pooled.Rank[v], diff)
			}
		}
	})
}

// TestPushChunksCoverActiveList checks the edge-balanced chunking: the
// boundaries must partition the active list exactly, and a hub vertex whose
// degree exceeds the chunk target must land in its own chunk rather than
// dragging its neighbours' work along.
func TestPushChunksCoverActiveList(t *testing.T) {
	// Star graph: vertex 0 points at everyone (degree n-1), everyone else
	// has degree 1 back to 0.
	const n = 10000
	edges := make([]graph.Edge, 0, 2*(n-1))
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: graph.VertexID(v), W: 1})
		edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: 0, W: 1})
	}
	g := graph.New(edges, n, true)
	if err := prep.BuildAdjacency(g, prep.Out, prep.Options{Method: prep.CountSort}); err != nil {
		t.Fatalf("BuildAdjacency: %v", err)
	}
	r := newRunner(g, algorithms.NewPageRank(), Config{Layout: graph.LayoutAdjacency}, 4)

	check := func(active []graph.VertexID, identity bool) {
		t.Helper()
		starts := r.buildPushChunks(active, g.Out, identity)
		if starts[0] != 0 || int(starts[len(starts)-1]) != len(active) {
			t.Fatalf("chunk boundaries %v do not span [0,%d]", starts, len(active))
		}
		for i := 1; i < len(starts); i++ {
			if starts[i] <= starts[i-1] {
				t.Fatalf("non-increasing boundary at %d: %v", i, starts)
			}
		}
	}

	// Full frontier (binary-search path).
	full := graph.FullFrontier(n)
	check(full.Sparse(), true)
	// Sparse frontier containing the hub (degree-walk path): the hub's
	// out-edges alone exceed the chunk target, so there must be more than
	// one chunk even though there are only a handful of active vertices.
	hubActive := []graph.VertexID{0, 1, 2}
	starts := r.buildPushChunks(hubActive, g.Out, false)
	if len(starts)-1 < 2 {
		t.Fatalf("hub frontier produced %d chunk(s); want the hub split from the tail", len(starts)-1)
	}
	check(hubActive, false)

	// A permuted all-vertices list (what a tracked builder emits) must use
	// the degree walk: boundaries still partition the list exactly.
	perm := make([]graph.VertexID, n)
	for i := range perm {
		perm[i] = graph.VertexID((i*7919 + 13) % n)
	}
	check(perm, false)
}
