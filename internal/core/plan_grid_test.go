package core

import (
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/prep"
)

// gridOnlyGraph builds an RMAT graph with nothing but the grid materialized
// (plus the always-present edge array), at the given P.
func gridOnlyGraph(t *testing.T, scale, p int) *graph.Graph {
	t.Helper()
	g := gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: 8, Seed: 7})
	if err := prep.BuildGrid(g, p, prep.Options{Method: prep.RadixSort}); err != nil {
		t.Fatalf("BuildGrid: %v", err)
	}
	return g
}

// TestConcurrentRunsOverOneGridLeaveGraphByteIdentical: concurrent runs
// over one shared grid read it and nothing else — its edges, cell index and
// shape come out byte-identical, and every run gives the reference bits.
// Run under -race.
func TestConcurrentRunsOverOneGridLeaveGraphByteIdentical(t *testing.T) {
	g := gridOnlyGraph(t, 10, 16)
	before := *g.Grid
	before.Pairs = slices.Clone(g.Grid.Pairs)
	before.Weights = slices.Clone(g.Grid.Weights)
	before.CellIndex = slices.Clone(g.Grid.CellIndex)
	cfg := Config{Layout: graph.LayoutGrid, Flow: Push, Sync: SyncPartitionFree, Workers: 2}
	ref := algorithms.NewPageRank()
	if _, err := Run(g, ref, cfg); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	var wg sync.WaitGroup
	prs := make([]*algorithms.PageRank, 4)
	errs := make([]error, 4)
	for i := range prs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prs[i] = algorithms.NewPageRank()
			_, errs[i] = Run(g, prs[i], cfg)
		}()
	}
	wg.Wait()
	after := g.Grid
	if after.P != before.P || after.RangeSize != before.RangeSize || after.NumVertices != before.NumVertices ||
		!slices.Equal(after.Pairs, before.Pairs) || !slices.Equal(after.Weights, before.Weights) ||
		!slices.Equal(after.CellIndex, before.CellIndex) {
		t.Fatal("concurrent runs changed the shared grid")
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
}

// TestDegenerateGridStaysNoOp: a zero-value grid (P = 0, representable even
// though Validate rejects it) iterates nothing and terminates.
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
