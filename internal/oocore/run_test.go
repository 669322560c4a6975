package oocore

import (
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/core"
	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/prep"
)

// These tests assert the acceptance contract of the out-of-core engine:
// streamed execution produces results identical to the in-memory grid path
// (bit-identical for PageRank/SpMV — same per-destination accumulation
// order — and label-identical for WCC), while resident edge memory stays
// within the configured budget.

// gridConfig is the in-memory reference configuration: grid layout under
// partition-free column ownership, the discipline streamed execution reuses.
func gridConfig(flow core.Flow) core.Config {
	return core.Config{Layout: graph.LayoutGrid, Flow: flow, Sync: core.SyncPartitionFree}
}

// streamConfig is the matching out-of-core configuration with a deliberately
// tight budget so cells are fetched in sub-slices.
func streamConfig(flow core.Flow, budget int64) core.Config {
	return core.Config{
		Layout: graph.LayoutGrid, Flow: flow, Sync: core.SyncPartitionFree,
		MemoryBudget: budget,
	}
}

func TestStreamedPageRankMatchesInMemoryGrid(t *testing.T) {
	for _, flow := range []core.Flow{core.Push, core.Pull} {
		g := testGraph(t, 12, false)
		const p = 8
		grid := memGrid(t, g, p, false)
		g.Grid = grid
		prMem := algorithms.NewPageRank()
		if _, err := core.Run(g, prMem, gridConfig(flow)); err != nil {
			t.Fatalf("in-memory run (%v): %v", flow, err)
		}

		s := buildTestStore(t, g, p, false)
		prOOC := algorithms.NewPageRank()
		const budget = 128 << 10
		res, err := core.RunStreamed(s, prOOC, streamConfig(flow, budget))
		if err != nil {
			t.Fatalf("streamed run (%v): %v", flow, err)
		}
		if res.Iterations != prMem.Iterations {
			t.Fatalf("flow %v: streamed ran %d iterations, in-memory %d", flow, res.Iterations, prMem.Iterations)
		}
		for v := range prMem.Rank {
			if prOOC.Rank[v] != prMem.Rank[v] {
				t.Fatalf("flow %v: rank[%d] = %v streamed, %v in-memory", flow, v, prOOC.Rank[v], prMem.Rank[v])
			}
		}
		if peak := s.Stats().PeakResidentBytes; peak == 0 || peak > budget {
			t.Fatalf("flow %v: peak resident %d bytes outside budget %d", flow, peak, budget)
		}
	}
}

func TestStreamedWCCMatchesInMemoryGrid(t *testing.T) {
	g := testGraph(t, 12, false)
	const p = 8
	grid := memGrid(t, g, p, true) // WCC needs mirrored edges
	g.Grid = grid
	wccMem := algorithms.NewWCC()
	if _, err := core.Run(g, wccMem, gridConfig(core.Push)); err != nil {
		t.Fatalf("in-memory run: %v", err)
	}

	s := buildTestStore(t, g, p, true)
	wccOOC := algorithms.NewWCC()
	const budget = 128 << 10
	res, err := core.RunStreamed(s, wccOOC, streamConfig(core.Push, budget))
	if err != nil {
		t.Fatalf("streamed run: %v", err)
	}
	if res.Iterations == 0 {
		t.Fatal("streamed WCC ran no iterations")
	}
	for v := range wccMem.Labels {
		if wccOOC.Labels[v] != wccMem.Labels[v] {
			t.Fatalf("label[%d] = %d streamed, %d in-memory", v, wccOOC.Labels[v], wccMem.Labels[v])
		}
	}
	if peak := s.Stats().PeakResidentBytes; peak == 0 || peak > budget {
		t.Fatalf("peak resident %d bytes outside budget %d", peak, budget)
	}
}

func TestStreamedSpMVMatchesInMemoryGrid(t *testing.T) {
	g := testGraph(t, 10, true) // weighted
	const p = 8
	grid := memGrid(t, g, p, false)
	g.Grid = grid
	mMem := algorithms.NewSpMV()
	if _, err := core.Run(g, mMem, gridConfig(core.Push)); err != nil {
		t.Fatalf("in-memory run: %v", err)
	}

	s := buildTestStore(t, g, p, false)
	mOOC := algorithms.NewSpMV()
	if _, err := core.RunStreamed(s, mOOC, streamConfig(core.Push, 64<<10)); err != nil {
		t.Fatalf("streamed run: %v", err)
	}
	want := mMem.Result()
	got := mOOC.Result()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("y[%d] = %v streamed, %v in-memory", v, got[v], want[v])
		}
	}
}

func TestStreamedPushPullSwitches(t *testing.T) {
	g := testGraph(t, 12, false)
	const p = 8
	s := buildTestStore(t, g, p, true)
	wcc := algorithms.NewWCC()
	res, err := core.RunStreamed(s, wcc, streamConfig(core.PushPull, 0))
	if err != nil {
		t.Fatalf("streamed push-pull: %v", err)
	}
	sawPull := false
	for _, it := range res.PerIteration {
		if it.Plan.Flow == core.Pull {
			sawPull = true
		}
	}
	if !sawPull {
		t.Fatal("push-pull WCC never pulled (initial full frontier should)")
	}
}

func TestStreamedIOAccounting(t *testing.T) {
	g := testGraph(t, 10, false)
	s := buildTestStore(t, g, 8, false)
	pr := algorithms.NewPageRank()
	pr.Iterations = 3
	res, err := core.RunStreamed(s, pr, streamConfig(core.Push, 0))
	if err != nil {
		t.Fatalf("streamed run: %v", err)
	}
	if res.IO.Passes != 3 {
		t.Fatalf("IO.Passes = %d, want 3 (one per iteration)", res.IO.Passes)
	}
	if res.IO.BytesRead == 0 || res.IO.IOTime == 0 {
		t.Fatalf("missing I/O accounting: %+v", res.IO)
	}
	if len(res.PerIteration) != 3 {
		t.Fatalf("%d per-iteration stats, want 3", len(res.PerIteration))
	}
}

func TestRunStreamedRejectsUnsupportedConfig(t *testing.T) {
	g := testGraph(t, 8, false)
	s := buildTestStore(t, g, 4, false)
	if _, err := core.RunStreamed(s, algorithms.NewPageRank(), core.Config{
		Layout: graph.LayoutGrid, Sync: core.SyncAtomics,
	}); err == nil {
		t.Fatal("sync=atomics was not rejected")
	}
	if _, err := core.RunStreamed(s, algorithms.NewPageRank(), core.Config{
		Layout: graph.LayoutAdjacency, Sync: core.SyncPartitionFree,
	}); err == nil {
		t.Fatal("layout=adjacency was not rejected")
	}
}

// TestStreamedIdentityRMAT20 is the acceptance-scale identity check: an
// RMAT-20 grid store (16.7M stored edges, ~200 MB on disk) streamed under a
// 32 MiB budget must reproduce the in-memory grid results exactly. It is
// heavyweight, so it is skipped under -short and under the race detector
// (the race-instrumented run would dominate the whole suite).
func TestStreamedIdentityRMAT20(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("RMAT-20 identity run skipped in short/race mode")
	}
	g := gen.RMAT(gen.RMATOptions{Scale: 20, EdgeFactor: 16, Seed: 42})
	gg := &graph.Graph{EdgeArray: g.EdgeArray, Directed: true}
	if err := prep.BuildGrid(gg, 0, prep.Options{Method: prep.RadixSort}); err != nil {
		t.Fatalf("BuildGrid: %v", err)
	}
	g.Grid = gg.Grid
	prMem := algorithms.NewPageRank()
	prMem.Iterations = 5
	if _, err := core.Run(g, prMem, gridConfig(core.Push)); err != nil {
		t.Fatalf("in-memory run: %v", err)
	}

	s := buildTestStore(t, g, 0, false)
	prOOC := algorithms.NewPageRank()
	prOOC.Iterations = 5
	const budget = 32 << 20
	if _, err := core.RunStreamed(s, prOOC, streamConfig(core.Push, budget)); err != nil {
		t.Fatalf("streamed run: %v", err)
	}
	for v := range prMem.Rank {
		if prOOC.Rank[v] != prMem.Rank[v] {
			t.Fatalf("rank[%d] = %v streamed, %v in-memory", v, prOOC.Rank[v], prMem.Rank[v])
		}
	}
	if peak := s.Stats().PeakResidentBytes; peak > budget {
		t.Fatalf("peak resident %d bytes exceeds budget %d", peak, budget)
	}
}
