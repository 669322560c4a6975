package everythinggraph

import (
	"bytes"
	"fmt"
	"math"
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

// TestZeroPrepIsReproducibleRadixSort: the zero Config.Prep is the
// documented default, the radix builder, which keeps each vertex's edges in
// input order whatever the schedule. Two adjacency-pull PageRank runs under
// it, each on a freshly prepared graph, give the same bits at two workers.
func TestZeroPrepIsReproducibleRadixSort(t *testing.T) {
	cfg := Config{Layout: LayoutAdjacency, Flow: FlowPull, Sync: SyncPartitionFree, Workers: 2}
	if cfg.Prep != PrepRadixSort {
		t.Fatalf("zero Prep is %v, want %v", cfg.Prep, PrepRadixSort)
	}
	var ranks [2][]float64
	for i := range ranks {
		g := GenerateRMAT(14, 16, 5)
		pr := PageRank()
		if _, err := g.Run(pr, cfg); err != nil {
			t.Fatalf("Run: %v", err)
		}
		ranks[i] = pr.Rank
	}
	for v := range ranks[0] {
		if math.Float64bits(ranks[0][v]) != math.Float64bits(ranks[1][v]) {
			t.Fatalf("rank[%d] differs between two zero-Prep runs: %v vs %v", v, ranks[0][v], ranks[1][v])
		}
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

// TestRunRebuildsGridAtChangedGridP: two runs with different GridP on one
// graph each run at their own P, with the bits of a graph built fresh at
// that P.
func TestRunRebuildsGridAtChangedGridP(t *testing.T) {
	g := GenerateRMAT(12, 8, 6)
	for _, p := range []int{256, 32} {
		cfg := Config{Layout: LayoutGrid, Flow: FlowPull, Sync: SyncPartitionFree, GridP: p}
		pr := PageRank()
		if _, err := g.Run(pr, cfg); err != nil {
			t.Fatalf("P=%d: Run: %v", p, err)
		}
		if got := g.Internal().Grid.P; got != p {
			t.Fatalf("GridP %d ran on a %dx%d grid", p, got, got)
		}
		fresh := PageRank()
		if _, err := GenerateRMAT(12, 8, 6).Run(fresh, cfg); err != nil {
			t.Fatalf("P=%d: fresh Run: %v", p, err)
		}
		for v := range fresh.Rank {
			if math.Float64bits(pr.Rank[v]) != math.Float64bits(fresh.Rank[v]) {
				t.Fatalf("P=%d: rank[%d] = %v, fresh graph %v", p, v, pr.Rank[v], fresh.Rank[v])
			}
		}
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

// TestUndirectedOverride: on a directed dataset, Config.Undirected makes
// WCC see every edge in both directions under every layout x flow x sync
// ValidateTechniques admits, and under Auto — each run finds the components
// of a serial union-find over the edges.
func TestUndirectedOverride(t *testing.T) {
	edges := GenerateRMAT(9, 4, 5).Internal().EdgeArray.Edges
	want := unionFindComponents(edges, 1<<9)
	undirected := true
	var cfgs []Config
	for _, layout := range []Layout{LayoutEdgeArray, LayoutAdjacency, LayoutAdjacencySorted, LayoutGrid} {
		for _, flow := range []Flow{FlowPush, FlowPull, FlowPushPull} {
			for _, sync := range []Sync{SyncLocks, SyncAtomics, SyncPartitionFree} {
				if ValidateTechniques(layout, flow, sync) == nil {
					cfgs = append(cfgs, Config{Layout: layout, Flow: flow, Sync: sync, GridP: 8})
				}
			}
		}
	}
	cfgs = append(cfgs, Config{Flow: FlowAuto}, Config{Layout: LayoutGrid, Flow: FlowAuto, GridP: 8})
	for _, cfg := range cfgs {
		cfg.Undirected = &undirected
		name := fmt.Sprintf("%v/%v/%v", cfg.Layout, cfg.Flow, cfg.Sync)
		t.Run(name, func(t *testing.T) {
			g := NewGraph(append([]Edge(nil), edges...), 1<<9, true)
			wcc := WCC()
			if _, err := g.Run(wcc, cfg); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if got := wcc.NumComponents(); got != want {
				t.Fatalf("components = %d, want %d", got, want)
			}
		})
	}
}

// TestUndirectedOverrideRebuildsLayouts: layouts built under one setting of
// Config.Undirected never serve a run under the other — a directed BFS
// after an undirected WCC reaches what it reached before.
func TestUndirectedOverrideRebuildsLayouts(t *testing.T) {
	g := GenerateRMAT(9, 4, 5)
	want := unionFindComponents(g.Internal().EdgeArray.Edges, g.NumVertices())
	undirected := true
	for _, layout := range []Layout{LayoutAdjacency, LayoutGrid} {
		cfg := Config{Layout: layout, Flow: FlowPush, Sync: SyncAtomics}
		reach := func() int {
			bfs := BFS(0)
			if _, err := g.Run(bfs, cfg); err != nil {
				t.Fatalf("%v BFS: %v", layout, err)
			}
			return bfs.Reached()
		}
		directed := reach()
		wcc := WCC()
		ucfg := cfg
		ucfg.Undirected = &undirected
		if _, err := g.Run(wcc, ucfg); err != nil {
			t.Fatalf("%v WCC: %v", layout, err)
		}
		if got := wcc.NumComponents(); got != want {
			t.Fatalf("%v: components = %d after a directed run, want %d", layout, got, want)
		}
		if again := reach(); again != directed {
			t.Fatalf("%v: directed BFS reached %d after an undirected run, %d before", layout, again, directed)
		}
	}
}

// unionFindComponents counts the weakly connected components of n vertices
// joined by edges, serially.
func unionFindComponents(edges []Edge, n int) int {
	parent := make([]int, n)
	for v := range parent {
		parent[v] = v
	}
	find := func(v int) int {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	components := n
	for _, e := range edges {
		if a, b := find(int(e.Src)), find(int(e.Dst)); a != b {
			parent[a] = b
			components--
		}
	}
	return components
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

// TestOutOfRangeSourceIsAnError: a BFS or SSSP source past the last vertex
// is an error from an in-memory run and from a store run, not an index
// panic.
func TestOutOfRangeSourceIsAnError(t *testing.T) {
	g := GenerateRMAT(8, 4, 1)
	st := buildAPIStore(t, g, 4, false)
	n := VertexID(g.NumVertices())
	algs := map[string]func() Algorithm{
		"bfs":  func() Algorithm { return BFS(n) },
		"sssp": func() Algorithm { return SSSP(n) },
	}
	for name, mk := range algs {
		_, err := g.Run(mk(), Config{Layout: LayoutAdjacency, Flow: FlowPush, Sync: SyncAtomics})
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s in memory, source %d of %d vertices: error %v, want out of range", name, n, n, err)
		}
		_, err = st.Run(mk(), Config{Flow: FlowPush})
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s over a store, source %d of %d vertices: error %v, want out of range", name, n, n, err)
		}
	}
}

// TestPrepareAdjacencySortedSortsRows: the adjacency-sorted layout is the
// one way to ask for sorted rows, so preparing it on a fresh graph sorts
// every row of each direction it builds, pushing and pulling.
func TestPrepareAdjacencySortedSortsRows(t *testing.T) {
	for _, flow := range []Flow{FlowPush, FlowPull} {
		t.Run(flow.String(), func(t *testing.T) {
			g := GenerateRMAT(10, 8, 3)
			if _, err := g.Prepare(Config{Layout: LayoutAdjacencySorted, Flow: flow}); err != nil {
				t.Fatalf("Prepare: %v", err)
			}
			adj := g.Internal().Out
			if flow == FlowPull {
				adj = g.Internal().In
			}
			if adj == nil || !adj.SortedByTarget {
				t.Fatalf("adjacency %v not marked sorted", adj != nil)
			}
			for v := 0; v < adj.NumVertices; v++ {
				row := adj.Targets[adj.Index[v]:adj.Index[v+1]]
				for i := 1; i < len(row); i++ {
					if row[i-1] > row[i] {
						t.Fatalf("row %d unsorted at %d: %d > %d", v, i, row[i-1], row[i])
					}
				}
			}
		})
	}
}

// TestPrepareAdjacencySortedSortsResidentRows: preparing the sorted layout
// on a graph an unsorted preparation already gave out-rows sorts those rows
// in place and charges the sort to Preprocess.
func TestPrepareAdjacencySortedSortsResidentRows(t *testing.T) {
	g := GenerateRMAT(10, 8, 3)
	if _, err := g.Prepare(Config{Layout: LayoutAdjacency, Flow: FlowPush}); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	out := g.Internal().Out
	if out == nil || out.SortedByTarget {
		t.Fatalf("unsorted preparation: out built %v, sorted %v", out != nil, out != nil && out.SortedByTarget)
	}
	bd, err := g.Prepare(Config{Layout: LayoutAdjacencySorted, Flow: FlowPush})
	if err != nil {
		t.Fatalf("Prepare sorted: %v", err)
	}
	if g.Internal().Out != out || !out.SortedByTarget {
		t.Fatalf("out rows not sorted in place (same rows %v, sorted %v)", g.Internal().Out == out, out.SortedByTarget)
	}
	if bd.Preprocess <= 0 {
		t.Fatalf("sort not charged to Preprocess: %v", bd.Preprocess)
	}
}
