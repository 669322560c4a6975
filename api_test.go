package everythinggraph

import (
	"bytes"
	"strings"
	"testing"
)

func TestGenerateAndRunBFSEndToEnd(t *testing.T) {
	g := GenerateRMAT(12, 8, 1)
	if g.NumVertices() != 1<<12 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	bfs := BFS(0)
	res, err := g.Run(bfs, Config{
		Layout: LayoutAdjacency,
		Flow:   FlowPush,
		Sync:   SyncAtomics,
		Prep:   PrepRadixSort,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Breakdown.Preprocess <= 0 {
		t.Fatal("pre-processing time must be accounted for the adjacency layout")
	}
	if res.Breakdown.Algorithm <= 0 {
		t.Fatal("algorithm time missing")
	}
	if res.Run.Iterations == 0 {
		t.Fatal("no iterations recorded")
	}
	if bfs.Reached() < 2 {
		t.Fatalf("BFS reached only %d vertices", bfs.Reached())
	}
}

func TestRunOnEdgeArrayHasNoPreprocessing(t *testing.T) {
	g := GenerateRMAT(10, 8, 2)
	res, err := g.Run(SpMV(), Config{Layout: LayoutEdgeArray, Flow: FlowPush, Sync: SyncAtomics})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Breakdown.Preprocess != 0 {
		t.Fatalf("edge array must not pay pre-processing, got %v", res.Breakdown.Preprocess)
	}
	if res.Run.Iterations != 1 {
		t.Fatalf("SpMV must finish in one iteration, got %d", res.Run.Iterations)
	}
}

func TestPrepareIsIdempotent(t *testing.T) {
	g := GenerateRMAT(10, 8, 3)
	cfg := Config{Layout: LayoutAdjacency, Flow: FlowPush, Sync: SyncAtomics}
	if _, err := g.Prepare(cfg); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if g.Internal().Out == nil {
		t.Fatal("out adjacency not built")
	}
	out := g.Internal().Out
	if _, err := g.Prepare(cfg); err != nil {
		t.Fatalf("second Prepare: %v", err)
	}
	if g.Internal().Out != out {
		t.Fatal("Prepare rebuilt an existing layout")
	}
}

func TestPreparePushPullBuildsBothDirections(t *testing.T) {
	g := GenerateRMAT(10, 8, 4)
	if _, err := g.Prepare(Config{Layout: LayoutAdjacency, Flow: FlowPushPull}); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if g.Internal().Out == nil || g.Internal().In == nil {
		t.Fatal("push-pull must build both adjacency directions")
	}
}

func TestPrepareGrid(t *testing.T) {
	g := GenerateRMAT(10, 8, 5)
	if _, err := g.Prepare(Config{Layout: LayoutGrid, GridP: 8}); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if g.Internal().Grid == nil {
		t.Fatal("grid not built")
	}
}

func TestRunGridPageRank(t *testing.T) {
	g := GenerateRMAT(11, 8, 6)
	pr := PageRank()
	pr.Iterations = 3
	res, err := g.Run(pr, Config{Layout: LayoutGrid, Flow: FlowPull, Sync: SyncPartitionFree})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Run.Iterations != 3 {
		t.Fatalf("iterations = %d", res.Run.Iterations)
	}
	total := pr.TotalRank()
	if total <= 0.1 || total > 1.000001 {
		t.Fatalf("total rank mass %v out of range", total)
	}
}

func TestUndirectedOverride(t *testing.T) {
	// A directed chain; WCC needs the undirected view to find one component.
	g := NewGraph([]Edge{{Src: 0, Dst: 1, W: 1}, {Src: 2, Dst: 1, W: 1}}, 3, true)
	undirected := true
	wcc := WCC()
	if _, err := g.Run(wcc, Config{
		Layout:     LayoutAdjacency,
		Flow:       FlowPush,
		Sync:       SyncAtomics,
		Undirected: &undirected,
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wcc.NumComponents() != 1 {
		t.Fatalf("components = %d, want 1", wcc.NumComponents())
	}
}

func TestTextRoundTripThroughFacade(t *testing.T) {
	g := GenerateRoad(8, 8, 1)
	var buf bytes.Buffer
	if err := g.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	loaded, err := LoadText(strings.NewReader(buf.String()), false)
	if err != nil {
		t.Fatalf("LoadText: %v", err)
	}
	if loaded.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count changed: %d vs %d", loaded.NumEdges(), g.NumEdges())
	}
}

func TestBinaryRoundTripThroughFacade(t *testing.T) {
	g := GenerateTwitterProfile(8, 2)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	loaded, err := LoadBinary(&buf, true)
	if err != nil {
		t.Fatalf("LoadBinary: %v", err)
	}
	if loaded.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count changed: %d vs %d", loaded.NumEdges(), g.NumEdges())
	}
}

func TestLoadTextError(t *testing.T) {
	if _, err := LoadText(strings.NewReader("not an edge list"), true); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestRunInvalidConfigSurfacesError(t *testing.T) {
	g := GenerateRMAT(8, 4, 7)
	// Partition-free sync on an edge array is rejected by the engine.
	if _, err := g.Run(BFS(0), Config{Layout: LayoutEdgeArray, Flow: FlowPush, Sync: SyncPartitionFree}); err == nil {
		t.Fatal("expected validation error")
	}
	// Unknown layout is rejected by Prepare.
	if _, err := g.Prepare(Config{Layout: Layout(99)}); err == nil {
		t.Fatal("expected unknown-layout error")
	}
}

func TestBipartiteALSThroughFacade(t *testing.T) {
	const users = 500
	g := GenerateBipartite(users, 50, 8, 3)
	als := ALS(users)
	als.Sweeps = 2
	undirected := true
	res, err := g.Run(als, Config{
		Layout:     LayoutAdjacency,
		Flow:       FlowPull,
		Sync:       SyncPartitionFree,
		Undirected: &undirected,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Run.Iterations != 4 {
		t.Fatalf("iterations = %d, want 4 (2 sweeps)", res.Run.Iterations)
	}
	rmse := als.RMSE(g.Internal().EdgeArray.Edges)
	if rmse <= 0 || rmse > 5 {
		t.Fatalf("implausible RMSE %v", rmse)
	}
}

func TestSSSPRoadThroughFacade(t *testing.T) {
	g := GenerateRoad(16, 16, 9)
	sssp := SSSP(0)
	res, err := g.Run(sssp, Config{Layout: LayoutAdjacency, Flow: FlowPush, Sync: SyncAtomics})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sssp.Reached() != g.NumVertices() {
		t.Fatalf("SSSP reached %d of %d vertices", sssp.Reached(), g.NumVertices())
	}
	if res.Run.Iterations < 16 {
		t.Fatalf("high-diameter graph should need many iterations, got %d", res.Run.Iterations)
	}
}

func TestMaxIterationsCap(t *testing.T) {
	g := GenerateRoad(32, 32, 1)
	bfs := BFS(0)
	res, err := g.Run(bfs, Config{
		Layout:        LayoutAdjacency,
		Flow:          FlowPush,
		Sync:          SyncAtomics,
		MaxIterations: 5,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Run.Iterations != 5 {
		t.Fatalf("iterations = %d, want 5", res.Run.Iterations)
	}
}

func TestWorkersConfigRespected(t *testing.T) {
	g := GenerateRMAT(10, 8, 8)
	// Single worker must produce the same BFS levels as the default.
	bfs1 := BFS(0)
	if _, err := g.Run(bfs1, Config{Layout: LayoutAdjacency, Flow: FlowPush, Sync: SyncAtomics, Workers: 1}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	bfsN := BFS(0)
	if _, err := g.Run(bfsN, Config{Layout: LayoutAdjacency, Flow: FlowPush, Sync: SyncAtomics}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for v := range bfs1.Level {
		if bfs1.Level[v] != bfsN.Level[v] {
			t.Fatalf("levels differ at vertex %d", v)
		}
	}
}

func TestFlowAutoThroughFacade(t *testing.T) {
	g := GenerateRMAT(12, 8, 1)
	bfs := BFS(0)
	// The bare config — no Layout (zero value is LayoutEdgeArray) — is the
	// advertised "one entry point": it must still prepare adjacency lists
	// so the planner has real choices instead of being stranded on the
	// edge array.
	res, err := g.Run(bfs, Config{Flow: FlowAuto})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Run.Iterations == 0 {
		t.Fatal("no iterations recorded")
	}
	if g.Internal().Out == nil || g.Internal().In == nil {
		t.Fatal("auto must prepare both adjacency directions")
	}
	if res.Breakdown.Preprocess <= 0 {
		t.Fatal("auto's adjacency build must be accounted as pre-processing")
	}
	zero := StepPlan{}
	sawAdjacency := false
	for i, it := range res.Run.PerIteration {
		if it.Plan == zero {
			t.Fatalf("iteration %d recorded no plan", i)
		}
		if it.Plan.Layout == LayoutAdjacency {
			sawAdjacency = true
		}
	}
	if !sawAdjacency {
		t.Fatal("planner never used the adjacency lists prepared for it")
	}
	if trace := res.Run.PlanTrace(); len(trace) != res.Run.Iterations {
		t.Fatalf("plan trace %d entries, want %d", len(trace), res.Run.Iterations)
	}

	// The validation gap: an alpha on a static flow must surface an error
	// through the facade instead of being silently ignored.
	if _, err := g.Run(BFS(0), Config{
		Layout: LayoutAdjacency, Flow: FlowPush, Sync: SyncAtomics, PushPullAlpha: 20,
	}); err == nil {
		t.Fatal("PushPullAlpha with a static flow must be rejected")
	}
}
