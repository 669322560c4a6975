package everythinggraph

import (
	"os"
	"path/filepath"
	"testing"
)

// Public-API coverage of the out-of-core store: build, open, run, and the
// I/O-aware breakdown.

func buildAPIStore(t *testing.T, g *Graph, gridP int, undirected bool) *Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "api.egs")
	if err := BuildStore(path, g, gridP, undirected); err != nil {
		t.Fatalf("BuildStore: %v", err)
	}
	st, err := OpenStore(path)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestStorePageRankMatchesInMemoryThroughFacade(t *testing.T) {
	g := GenerateRMAT(12, 8, 3)
	prMem := PageRank()
	if _, err := g.Run(prMem, Config{Layout: LayoutGrid, Flow: FlowPush, Sync: SyncPartitionFree, GridP: 8}); err != nil {
		t.Fatalf("in-memory run: %v", err)
	}

	st := buildAPIStore(t, g, 8, false)
	if st.GridP() != 8 || st.NumVertices() != g.NumVertices() || st.NumEdges() != int64(g.NumEdges()) {
		t.Fatalf("store shape %dx%d, %d vertices, %d edges does not match graph",
			st.GridP(), st.GridP(), st.NumVertices(), st.NumEdges())
	}
	prOOC := PageRank()
	res, err := st.Run(prOOC, Config{Flow: FlowPush, MemoryBudget: 1 << 20})
	if err != nil {
		t.Fatalf("store run: %v", err)
	}
	for v := range prMem.Rank {
		if prOOC.Rank[v] != prMem.Rank[v] {
			t.Fatalf("rank[%d] differs: %v out-of-core, %v in-memory", v, prOOC.Rank[v], prMem.Rank[v])
		}
	}
	if res.Breakdown.Algorithm <= 0 {
		t.Fatal("algorithm time missing")
	}
	io := st.IOStats()
	if io.BytesRead == 0 || io.Passes != int64(res.Run.Iterations) {
		t.Fatalf("I/O accounting inconsistent: %+v vs %d iterations", io, res.Run.Iterations)
	}
	if io.PeakResidentBytes == 0 || io.PeakResidentBytes > 1<<20 {
		t.Fatalf("peak resident %d outside the 1 MiB budget", io.PeakResidentBytes)
	}
}

func TestStoreWCCThroughFacade(t *testing.T) {
	g := GenerateRMAT(10, 8, 4)
	st := buildAPIStore(t, g, 8, true)
	if !st.Undirected() {
		t.Fatal("store built with undirected=true does not report it")
	}
	wcc := WCC()
	if _, err := st.Run(wcc, Config{Flow: FlowPushPull}); err != nil {
		t.Fatalf("store run: %v", err)
	}
	undirected := true
	wccMem := WCC()
	if _, err := g.Run(wccMem, Config{Layout: LayoutGrid, Sync: SyncPartitionFree, GridP: 8, Undirected: &undirected}); err != nil {
		t.Fatalf("in-memory run: %v", err)
	}
	for v := range wccMem.Labels {
		if wcc.Labels[v] != wccMem.Labels[v] {
			t.Fatalf("label[%d] differs: %d out-of-core, %d in-memory", v, wcc.Labels[v], wccMem.Labels[v])
		}
	}
}

func TestStoreIORecipeAppliesClamps(t *testing.T) {
	st := buildAPIStore(t, GenerateRMAT(10, 8, 3), 8, false)
	for _, c := range []struct {
		cfg        Config
		wantDepth  int
		wantBudget int64
	}{
		{Config{PrefetchDepth: 99}, 8, 256 << 20},
		{Config{PrefetchDepth: 1}, 2, 256 << 20},
		// 64 KiB across 8 workers feeds 5 slots of 64-edge slices each.
		{Config{Workers: 8, PrefetchDepth: 8, MemoryBudget: 64 << 10}, 5, 64 << 10},
	} {
		if depth, budget := st.IORecipe(c.cfg); depth != c.wantDepth || budget != c.wantBudget {
			t.Errorf("IORecipe(%+v) = d%d %d bytes, want d%d %d bytes", c.cfg, depth, budget, c.wantDepth, c.wantBudget)
		}
	}
}

func TestStoreAutoRecipeAndCostExportThroughFacade(t *testing.T) {
	g := GenerateRMAT(12, 8, 3)
	st := buildAPIStore(t, g, 8, false)
	pr := PageRank()
	cfg := Config{Flow: FlowAuto, MemoryBudget: 1 << 20, PrefetchDepth: 4}
	if depth, budget := st.IORecipe(cfg); depth != 4 || budget != 1<<20 {
		t.Fatalf("IORecipe = d%d %d bytes, want the configured d4 under 1 MiB", depth, budget)
	}
	if depth, budget := st.IORecipe(Config{}); depth != 2 || budget != 256<<20 {
		t.Fatalf("default IORecipe = d%d %d bytes, want d2 under 256 MiB", depth, budget)
	}
	res, err := st.Run(pr, cfg)
	if err != nil {
		t.Fatalf("adaptive store run: %v", err)
	}
	if len(res.Run.PerIteration) == 0 {
		t.Fatal("no per-iteration stats")
	}
	if peak := st.IOStats().PeakResidentBytes; peak == 0 || peak > 1<<20 {
		t.Fatalf("peak resident %d outside the 1 MiB budget", peak)
	}
	if len(res.Run.PlanCosts) == 0 {
		t.Fatal("adaptive run exported no measured plan costs")
	}
	// Feeding the measurements back must be accepted by FlowAuto and
	// rejected by static flows.
	if _, err := st.Run(PageRank(), Config{Flow: FlowAuto, CostPriors: res.Run.PlanCosts}); err != nil {
		t.Fatalf("seeded adaptive run: %v", err)
	}
	if _, err := st.Run(PageRank(), Config{Flow: FlowPush, CostPriors: res.Run.PlanCosts}); err == nil {
		t.Fatal("CostPriors on a static flow was not rejected")
	}
}

func TestOpenStoreRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-store")
	if err := os.WriteFile(path, []byte("hello, I am not a store"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(path); err == nil {
		t.Fatal("garbage file opened as store")
	}
}

func TestValidateTechniquesCombinations(t *testing.T) {
	bad := []struct {
		layout Layout
		flow   Flow
		sync   Sync
	}{
		{LayoutEdgeArray, FlowPush, SyncPartitionFree},
		{LayoutEdgeArray, FlowPushPull, SyncAtomics},
		{LayoutAdjacency, FlowPush, SyncPartitionFree},
		{LayoutAdjacency, FlowPushPull, SyncPartitionFree},
	}
	for _, c := range bad {
		if err := ValidateTechniques(c.layout, c.flow, c.sync); err == nil {
			t.Errorf("ValidateTechniques(%v,%v,%v) accepted an impossible combination", c.layout, c.flow, c.sync)
		}
	}
	good := []struct {
		layout Layout
		flow   Flow
		sync   Sync
	}{
		{LayoutEdgeArray, FlowPush, SyncAtomics},
		{LayoutAdjacency, FlowPull, SyncPartitionFree},
		{LayoutAdjacency, FlowPushPull, SyncAtomics},
		{LayoutGrid, FlowPushPull, SyncPartitionFree},
		{LayoutGrid, FlowPush, SyncLocks},
	}
	for _, c := range good {
		if err := ValidateTechniques(c.layout, c.flow, c.sync); err != nil {
			t.Errorf("ValidateTechniques(%v,%v,%v) rejected a valid combination: %v", c.layout, c.flow, c.sync, err)
		}
	}
}
