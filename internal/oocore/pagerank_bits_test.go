package oocore

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/core"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/prep"
)

// twoSweepPageRank is a serial PageRank with two vertex sweeps per
// iteration: the first takes every contribution behind a d > 0 branch and
// clears the accumulators, the second computes every rank once walk has
// applied the edges. walk must visit each destination's in-edges in the
// order the configuration under test does; the engine's one-sweep PageRank
// then has to give the same bits.
func twoSweepPageRank(n int, deg []uint32, iterations int, damping float64, walk func(apply func(src, dst graph.VertexID))) []float64 {
	rank := make([]float64, n)
	contrib := make([]float64, n)
	acc := make([]float64, n)
	for v := range rank {
		rank[v] = 1.0 / float64(n)
	}
	for it := 0; it < iterations; it++ {
		for v := range rank {
			if deg[v] > 0 {
				contrib[v] = rank[v] / float64(deg[v])
			} else {
				contrib[v] = 0
			}
			acc[v] = 0
		}
		walk(func(src, dst graph.VertexID) { acc[dst] += contrib[src] })
		base := (1 - damping) / float64(n)
		for v := range rank {
			rank[v] = base + damping*acc[v]
		}
	}
	return rank
}

// TestPageRankMatchesTwoSweepReference pins the engine's PageRank, resident
// and streamed, to twoSweepPageRank bit for bit on RMAT-12. Pull and grid
// configurations own their destinations at any worker count; push over the
// adjacency and the edge array is run at one worker, where the order of the
// adds is the walk's.
func TestPageRankMatchesTwoSweepReference(t *testing.T) {
	g := testGraph(t, 12, false)
	if err := prep.BuildAdjacency(g, prep.InOut, prep.Options{}); err != nil {
		t.Fatal(err)
	}
	const p = 8
	g.Grid = memGrid(t, g, p, false)
	n := g.NumVertices()
	deg := g.EdgeArray.OutDegrees()
	dangling := 0
	for _, d := range deg {
		if d == 0 {
			dangling++
		}
	}
	if dangling == 0 {
		t.Fatal("the test graph has no dangling vertex")
	}

	rows := func(a *graph.Adjacency, byDst bool) func(func(src, dst graph.VertexID)) {
		return func(apply func(src, dst graph.VertexID)) {
			for v := range n {
				for _, u := range a.Neighbors(graph.VertexID(v)) {
					if byDst {
						apply(u, graph.VertexID(v))
					} else {
						apply(graph.VertexID(v), u)
					}
				}
			}
		}
	}
	edges := func(es []graph.Edge) func(func(src, dst graph.VertexID)) {
		return func(apply func(src, dst graph.VertexID)) {
			for _, e := range es {
				apply(e.Src, e.Dst)
			}
		}
	}
	pullOrder := rows(g.In, true)
	pushOrder := rows(g.Out, false)
	// Grid cells are stored row-major, so each destination meets its
	// in-edges by ascending source range, in input order within a cell:
	// the order of the grid and of a store built at the same P.
	gridOrder := func(apply func(src, dst graph.VertexID)) {
		for _, e := range g.Grid.Pairs {
			apply(e.Src, e.Dst)
		}
	}
	arrayOrder := edges(g.EdgeArray.Edges)

	s := buildTestStore(t, g, p, false)
	cases := []struct {
		name     string
		cfg      core.Config
		walk     func(func(src, dst graph.VertexID))
		streamed bool
	}{
		{"adjacency-pull-w1", core.Config{Layout: graph.LayoutAdjacency, Flow: core.Pull, Sync: core.SyncPartitionFree, Workers: 1}, pullOrder, false},
		{"adjacency-pull-w2", core.Config{Layout: graph.LayoutAdjacency, Flow: core.Pull, Sync: core.SyncPartitionFree, Workers: 2}, pullOrder, false},
		{"adjacency-push-w1", core.Config{Layout: graph.LayoutAdjacency, Flow: core.Push, Sync: core.SyncAtomics, Workers: 1}, pushOrder, false},
		{"grid-pull-w2", core.Config{Layout: graph.LayoutGrid, Flow: core.Pull, Sync: core.SyncPartitionFree, Workers: 2}, gridOrder, false},
		{"grid-push-w2", core.Config{Layout: graph.LayoutGrid, Flow: core.Push, Sync: core.SyncPartitionFree, Workers: 2}, gridOrder, false},
		{"edgearray-push-w1", core.Config{Layout: graph.LayoutEdgeArray, Flow: core.Push, Sync: core.SyncAtomics, Workers: 1}, arrayOrder, false},
		{"streamed-store-pull-w2", core.Config{Layout: graph.LayoutGrid, Flow: core.Pull, Sync: core.SyncPartitionFree, Workers: 2, MemoryBudget: 128 << 10}, gridOrder, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pr := algorithms.NewPageRank()
			var err error
			if tc.streamed {
				_, err = core.RunStreamed(s, pr, tc.cfg)
			} else {
				_, err = core.Run(g, pr, tc.cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			want := twoSweepPageRank(n, deg, pr.Iterations, pr.Damping, tc.walk)
			for v := range want {
				if math.Float64bits(pr.Rank[v]) != math.Float64bits(want[v]) {
					t.Fatalf("rank[%d] = %v (bits %#x), two-sweep reference %v (bits %#x)",
						v, pr.Rank[v], math.Float64bits(pr.Rank[v]), want[v], math.Float64bits(want[v]))
				}
			}
		})
	}
}

// pinnedRankHash is the FNV-1a hash of PageRank's rank bits (little-endian
// float64s in vertex order) on RMAT-12 over a 256x256 grid: the bits of the
// grid's per-destination visit order, whatever holds the cells.
const pinnedRankHash = 0xbb9d7a1fe9dd3c34

func rankHash(rank []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, r := range rank {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(r))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestPageRankBitsPinnedAtP256: static grid pull in memory, over a v4 store
// and over a v3 store, at 1 and 4 workers, all give the pinned bits.
func TestPageRankBitsPinnedAtP256(t *testing.T) {
	g := testGraph(t, 12, false)
	const p = 256
	g.Grid = memGrid(t, g, p, false)
	stores := map[string]*Store{"v4": buildTestStore(t, g, p, false), "v3": buildTestStoreV2(t, g, p, false)}
	for _, workers := range []int{1, 4} {
		cfg := core.Config{Layout: graph.LayoutGrid, Flow: core.Pull, Sync: core.SyncPartitionFree, Workers: workers}
		pr := algorithms.NewPageRank()
		if _, err := core.Run(g, pr, cfg); err != nil {
			t.Fatal(err)
		}
		if h := rankHash(pr.Rank); h != pinnedRankHash {
			t.Fatalf("grid pull, %d workers: rank hash %#x, want %#x", workers, h, uint64(pinnedRankHash))
		}
		cfg.MemoryBudget = 128 << 10
		for name, s := range stores {
			pr := algorithms.NewPageRank()
			if _, err := core.RunStreamed(s, pr, cfg); err != nil {
				t.Fatal(err)
			}
			if h := rankHash(pr.Rank); h != pinnedRankHash {
				t.Fatalf("streamed %s, %d workers: rank hash %#x, want %#x", name, workers, h, uint64(pinnedRankHash))
			}
		}
	}
}
