package algorithms

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/prep"
)

// tinyGraph is 0 -> 1 -> 2, 0 -> 2, with weights 1, 2, 5.
func tinyGraph() *graph.Graph {
	edges := []graph.Edge{
		{Src: 0, Dst: 1, W: 1},
		{Src: 1, Dst: 2, W: 2},
		{Src: 0, Dst: 2, W: 5},
	}
	return graph.New(edges, 3, true)
}

// tinyIn is tinyGraph's in-adjacency, each row in edge order: 1 <- 0 and
// 2 <- 1, 0.
func tinyIn() *graph.Adjacency {
	return &graph.Adjacency{Index: []uint64{0, 0, 1, 3}, Targets: []graph.VertexID{0, 1, 0}, Weights: []graph.Weight{1, 2, 5}, NumVertices: 3}
}

// atomicSpan is the span of an unowned chunk with every vertex active.
func atomicSpan(n int) graph.Span {
	return graph.Span{Full: true, Atomic: true, Next: graph.NewFrontierBuilder(n, 1)}
}

func TestAtomicAddFloat64(t *testing.T) {
	var bits uint64
	storeFloat64(&bits, 1.5)
	atomicAddFloat64(&bits, 2.25)
	if got := loadFloat64(&bits); got != 3.75 {
		t.Fatalf("got %v, want 3.75", got)
	}
}

func TestAtomicMinFloat32(t *testing.T) {
	var bits uint32
	storeFloat32(&bits, 10)
	if !atomicMinFloat32(&bits, 4) {
		t.Fatal("lowering must report true")
	}
	if atomicMinFloat32(&bits, 7) {
		t.Fatal("raising must report false")
	}
	if got := loadFloat32(&bits); got != 4 {
		t.Fatalf("got %v, want 4", got)
	}
}

func TestAtomicMinUint32(t *testing.T) {
	var v uint32 = 9
	if !atomicMinUint32(&v, 3) || v != 3 {
		t.Fatalf("min failed: %d", v)
	}
	if atomicMinUint32(&v, 5) || v != 3 {
		t.Fatalf("min raised the value: %d", v)
	}
}

func TestAtomicMinFloat32Property(t *testing.T) {
	f := func(a, b float32) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
			return true
		}
		var bits uint32
		storeFloat32(&bits, a)
		atomicMinFloat32(&bits, b)
		want := a
		if b < a {
			want = b
		}
		return loadFloat32(&bits) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBFSEdgeFunctions(t *testing.T) {
	g := tinyGraph()
	b := NewBFS(0)
	b.Init(g)
	if b.Dense() {
		t.Fatal("BFS must not be dense")
	}
	if got := b.InitialFrontier(g).Sparse(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("initial frontier = %v", got)
	}
	b.BeforeIteration(0)
	if !b.PushEdge(0, 1, 1) {
		t.Fatal("first discovery must activate")
	}
	if b.PushEdge(0, 1, 1) {
		t.Fatal("second discovery must not re-activate")
	}
	sp := atomicSpan(3)
	b.PushEdges(&sp, 0, []graph.Edge{{Src: 0, Dst: 2, W: 1}, {Src: 0, Dst: 1, W: 1}})
	if got := sp.Next.Collect().Sparse(); !slices.Equal(got, []graph.VertexID{2}) {
		t.Fatalf("atomic discovery activated %v, want [2]", got)
	}
	if b.Level[1] != 1 || b.Level[2] != 1 {
		t.Fatalf("levels = %v", b.Level)
	}
	if b.Parent[1] != 0 || b.Parent[2] != 0 {
		t.Fatalf("parents = %v", b.Parent)
	}
	if b.Reached() != 3 {
		t.Fatalf("Reached = %d", b.Reached())
	}
	if b.AfterIteration(0) {
		t.Fatal("BFS never converges via AfterIteration")
	}
	if b.Name() != "bfs" {
		t.Fatal("wrong name")
	}
}

// TestBFSPullRowsStopsEarly: a pulling vertex adopts its first active
// in-neighbour and scans no further (vertex 2's row is 1, 0, both active).
func TestBFSPullRowsStopsEarly(t *testing.T) {
	g := tinyGraph()
	g.In = tinyIn()
	b := NewBFS(0)
	b.Init(g)
	b.Parent[1], b.Level[1] = 0, 1
	b.BeforeIteration(1)
	sp := graph.Span{Bits: []uint64{0b011}, Next: graph.NewFrontierBuilder(3, 1)}
	b.PullRows(&sp, 0, g.In, 0, 3)
	if b.Parent[2] != 1 || b.Level[2] != 2 {
		t.Fatalf("vertex 2: parent %d level %d, want parent 1 level 2", b.Parent[2], b.Level[2])
	}
	if got := sp.Next.Collect().Sparse(); !slices.Equal(got, []graph.VertexID{2}) {
		t.Fatalf("pull activated %v, want [2]", got)
	}
}

func TestPageRankMassAndConvergence(t *testing.T) {
	g := tinyGraph()
	pr := NewPageRank()
	pr.Iterations = 3
	pr.Init(g)
	if !pr.Dense() {
		t.Fatal("PageRank is dense")
	}
	n := g.NumVertices()
	if pr.InitialFrontier(g).Count() != n {
		t.Fatal("initial frontier must be full")
	}
	for iter := 0; iter < 3; iter++ {
		pr.BeforeIteration(iter)
		for _, e := range g.EdgeArray.Edges {
			pr.PushEdge(e.Src, e.Dst, e.W)
		}
		converged := pr.AfterIteration(iter)
		if iter < 2 && converged {
			t.Fatal("converged too early")
		}
		if iter == 2 && !converged {
			t.Fatal("must converge at the configured iteration count")
		}
	}
	// Rank mass: between (1-d) and 1 when dangling mass is dropped.
	total := pr.TotalRank()
	if total < 1-pr.Damping-1e-9 || total > 1+1e-9 {
		t.Fatalf("total rank %v outside [%v, 1]", total, 1-pr.Damping)
	}
	// Vertex 2 has two in-edges and no out-edges: it must rank highest.
	if !(pr.Rank[2] > pr.Rank[1] && pr.Rank[2] > pr.Rank[0]) {
		t.Fatalf("rank ordering wrong: %v", pr.Rank)
	}
	top := pr.Top(2)
	if top[0] != 2 {
		t.Fatalf("Top(2) = %v, want vertex 2 first", top)
	}
}

// TestPageRankDegreesNotRescannedPerRun: Init takes the out-degree table
// from the graph's shared tables (one scan per graph) or from the
// out-adjacency's index, never from a fresh scan of the edge array — and
// both sources agree.
func TestPageRankDegreesNotRescannedPerRun(t *testing.T) {
	g := tinyGraph()
	first, second := NewPageRank(), NewPageRank()
	first.Init(g)
	second.Init(g)
	if &first.outDeg[0] != &second.outDeg[0] {
		t.Fatal("second Init on the same graph recounted the out-degrees")
	}
	want := []uint32{2, 1, 0}
	if !slices.Equal(first.outDeg, want) {
		t.Fatalf("edge-array out-degrees %v, want %v", first.outDeg, want)
	}
	g.Out = &graph.Adjacency{Index: []uint64{0, 2, 3, 3}, Targets: []graph.VertexID{1, 2, 2}, Weights: []graph.Weight{1, 5, 2}, NumVertices: 3}
	fromIndex := NewPageRank()
	fromIndex.Init(g)
	if !slices.Equal(fromIndex.outDeg, want) {
		t.Fatalf("out-adjacency out-degrees %v, want %v", fromIndex.outDeg, want)
	}

	// Undirected: every stored edge is traversed both ways, except a
	// self-loop (here 1 -> 1), which is one arc, as in the mirrored
	// out-adjacency.
	u := graph.New(append(slices.Clone(g.EdgeArray.Edges), graph.Edge{Src: 1, Dst: 1, W: 1}), 3, false)
	und := NewPageRank()
	und.Init(u)
	want = []uint32{2, 3, 2}
	if !slices.Equal(und.outDeg, want) {
		t.Fatalf("undirected degrees %v, want %v", und.outDeg, want)
	}
	if err := prep.BuildAdjacency(u, prep.Out, prep.Options{Undirected: true}); err != nil {
		t.Fatal(err)
	}
	mirrored := NewPageRank()
	mirrored.Init(u)
	if !slices.Equal(mirrored.outDeg, want) {
		t.Fatalf("mirrored out-adjacency degrees %v, want %v", mirrored.outDeg, want)
	}
}

func TestPageRankPushPullSameUpdate(t *testing.T) {
	g := tinyGraph()
	prPush := NewPageRank()
	prPush.Init(g)
	prPull := NewPageRank()
	prPull.Init(g)
	prPush.BeforeIteration(0)
	prPull.BeforeIteration(0)
	sp := atomicSpan(3)
	prPush.PushEdges(&sp, 0, g.EdgeArray.Edges)
	prPull.PullRows(&graph.Span{Full: true}, 0, tinyIn(), 0, 3)
	prPush.AfterIteration(0)
	prPull.AfterIteration(0)
	for v := range prPush.Rank {
		if math.Abs(prPush.Rank[v]-prPull.Rank[v]) > 1e-12 {
			t.Fatalf("rank mismatch at %d: %v vs %v", v, prPush.Rank[v], prPull.Rank[v])
		}
	}
}

// TestPageRankContributionIsBranchlessDivision: the branch-free
// contribution has the bits of r / d for every d > 0 and is exactly +0 (not
// -0, not NaN) for a dangling vertex.
func TestPageRankContributionIsBranchlessDivision(t *testing.T) {
	for _, r := range []float64{1.0 / 3, 0.15 / 65536, 1e-300, 0.999, 0} {
		for _, d := range []uint32{1, 2, 3, 7, 1000, math.MaxUint32} {
			if got, want := contribution(r, d), r/float64(d); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("contribution(%v, %d) = %v, want %v", r, d, got, want)
			}
		}
		if got := contribution(r, 0); math.Float64bits(got) != 0 {
			t.Fatalf("contribution(%v, 0) = %v (bits %#x), want +0", r, got, math.Float64bits(got))
		}
	}
}

// TestPageRankDanglingContributesPositiveZero: vertex 2 of tinyGraph has no
// out-edge. Its contribution is +0 in every iteration, and pushing it adds
// nothing.
func TestPageRankDanglingContributesPositiveZero(t *testing.T) {
	g := tinyGraph()
	pr := NewPageRank()
	pr.Iterations = 3
	pr.Init(g)
	for iter := 0; iter < pr.Iterations; iter++ {
		pr.BeforeIteration(iter)
		if bits := math.Float64bits(pr.contrib[2]); bits != 0 {
			t.Fatalf("iteration %d: dangling contribution has bits %#x, want +0", iter, bits)
		}
		if pr.contrib[0] != pr.Rank[0]/2 || pr.contrib[1] != pr.Rank[1] {
			t.Fatalf("iteration %d: contributions %v for ranks %v", iter, pr.contrib, pr.Rank)
		}
		for v, a := range pr.acc {
			if a != 0 {
				t.Fatalf("iteration %d: accumulator %d not cleared", iter, v)
			}
		}
		for _, e := range g.EdgeArray.Edges {
			pr.PushEdge(e.Src, e.Dst, e.W)
		}
		// An edge out of the dangling vertex would add its contribution.
		before := pr.acc[0]
		pr.PushEdge(2, 0, 1)
		if pr.acc[0] != before {
			t.Fatalf("iteration %d: the dangling vertex changed an accumulator", iter)
		}
		pr.AfterIteration(iter)
	}
}

// TestPageRankHooksAllocateNothing: the hooks' vertex sweeps run parallel
// loops over closures bound in Init, so they allocate nothing, in the first
// iteration, the last or between.
func TestPageRankHooksAllocateNothing(t *testing.T) {
	const n = 1 << 16
	edges := make([]graph.Edge, n)
	for v := range edges {
		edges[v] = graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID((v + 1) % n), W: 1}
	}
	pr := NewPageRank()
	pr.BindRun(2, nil)
	pr.Init(graph.New(edges, n, true))
	for _, iter := range []int{0, 1, pr.Iterations - 1} {
		if allocs := testing.AllocsPerRun(5, func() {
			pr.BeforeIteration(iter)
			pr.AfterIteration(iter)
		}); allocs != 0 {
			t.Fatalf("iteration %d hooks: %v allocs, want 0", iter, allocs)
		}
	}
}

// TestBFSInitClonesSharedUnreachedState: Parent and Level start as private
// copies of the graph's shared all -1 array, which a traversal leaves
// untouched for the next run.
func TestBFSInitClonesSharedUnreachedState(t *testing.T) {
	g := tinyGraph()
	shared := g.EdgeArray.SharedMinusOnes()
	if again := g.EdgeArray.SharedMinusOnes(); &again[0] != &shared[0] {
		t.Fatal("the all -1 array was refilled for the same graph")
	}
	b := NewBFS(0)
	b.Init(g)
	if &b.Parent[0] == &shared[0] || &b.Level[0] == &shared[0] || &b.Parent[0] == &b.Level[0] {
		t.Fatal("Parent and Level must be private copies")
	}
	if !slices.Equal(b.Parent, []int32{0, -1, -1}) || !slices.Equal(b.Level, []int32{0, -1, -1}) {
		t.Fatalf("after Init: parent %v level %v", b.Parent, b.Level)
	}
	b.BeforeIteration(0)
	b.PushEdge(0, 1, 1)
	if !slices.Equal(shared, []int32{-1, -1, -1}) {
		t.Fatalf("a traversal wrote the shared array: %v", shared)
	}
	next := NewBFS(2)
	next.Init(g)
	if !slices.Equal(next.Parent, []int32{-1, -1, 2}) || !slices.Equal(next.Level, []int32{-1, -1, 0}) {
		t.Fatalf("second run: parent %v level %v", next.Parent, next.Level)
	}
}

func TestWCCSmallGraph(t *testing.T) {
	// 0-1 and 2-3 in one direction only; WCC treats them as undirected via
	// the engine, but the edge functions themselves propagate labels.
	g := graph.New([]graph.Edge{{Src: 1, Dst: 0}, {Src: 3, Dst: 2}}, 4, false)
	w := NewWCC()
	w.Init(g)
	if w.Dense() {
		t.Fatal("WCC is frontier-driven")
	}
	if w.InitialFrontier(g).Count() != 4 {
		t.Fatal("all vertices start active")
	}
	if !w.PushEdge(0, 1, 1) {
		t.Fatal("label 0 must win over label 1")
	}
	if w.PushEdge(1, 0, 1) {
		t.Fatal("label must not increase")
	}
	sp := atomicSpan(4)
	w.PushEdges(&sp, 0, []graph.Edge{{Src: 2, Dst: 3, W: 1}})
	if got := sp.Next.Collect().Sparse(); !slices.Equal(got, []graph.VertexID{3}) {
		t.Fatalf("atomic label propagation activated %v, want [3]", got)
	}
	if w.PushEdge(2, 3, 1) {
		t.Fatal("label already propagated; it must not change again")
	}
	if w.NumComponents() != 2 {
		t.Fatalf("NumComponents = %d, want 2", w.NumComponents())
	}
	sizes := w.ComponentSizes()
	if sizes[0] != 2 || sizes[2] != 2 {
		t.Fatalf("ComponentSizes = %v", sizes)
	}
	if w.AfterIteration(0) {
		t.Fatal("WCC never converges via AfterIteration")
	}
}

func TestSSSPRelaxation(t *testing.T) {
	g := tinyGraph()
	s := NewSSSP(0)
	s.BindRun(1, nil)
	s.Init(g)
	if s.Dense() {
		t.Fatal("SSSP is frontier-driven")
	}
	if s.Distance(0) != 0 {
		t.Fatal("source distance must be 0")
	}
	if !math.IsInf(float64(s.Distance(2)), 1) {
		t.Fatal("unreached distance must be +Inf")
	}
	if !s.PushEdge(0, 1, 1) {
		t.Fatal("relaxation must activate")
	}
	sp := atomicSpan(3)
	s.PushEdges(&sp, 0, []graph.Edge{{Src: 0, Dst: 2, W: 5}})
	if got := sp.Next.Collect().Sparse(); !slices.Equal(got, []graph.VertexID{2}) {
		t.Fatalf("atomic relaxation activated %v, want [2]", got)
	}
	// A shorter path through vertex 1 relaxes vertex 2 again.
	sp = atomicSpan(3)
	s.Cells(&sp, 0, []graph.Pair{{Src: 1, Dst: 2}}, []graph.Weight{2})
	if got := sp.Next.Collect().Sparse(); !slices.Equal(got, []graph.VertexID{2}) {
		t.Fatalf("pull relaxation activated %v, want [2]", got)
	}
	if s.Distance(2) != 3 {
		t.Fatalf("dist(2) = %v, want 3", s.Distance(2))
	}
	// Re-relaxing with a worse distance must not activate.
	if s.PushEdge(0, 2, 5) {
		t.Fatal("worse relaxation must not activate")
	}
	if s.Reached() != 3 {
		t.Fatalf("Reached = %d", s.Reached())
	}
	d := s.Distances()
	if d[1] != 1 || d[2] != 3 {
		t.Fatalf("Distances = %v", d)
	}
}

// TestSSSPBucketsDeferAndOpen drives the push kernel from vertex 0 down two
// chains: 0 -> 1 -> 2 -> 3 -> 4 -> 5 of weight 4 (so Δ = 16) and
// 0 -> 6 -> ... -> 11 of weight 1. Vertex 4 reaches the frontier at
// distance 16 while the unit chain is still below the bound, waits there
// unrelaxed until the unit chain ends, and is relaxed once [16, 32) opens.
func TestSSSPBucketsDeferAndOpen(t *testing.T) {
	const n = 12
	edges := []graph.Edge{{Src: 0, Dst: 1, W: 4}, {Src: 0, Dst: 6, W: 1}}
	for v := 1; v < 5; v++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(v + 1), W: 4})
	}
	for v := 6; v < 11; v++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(v + 1), W: 1})
	}
	// The edges are listed by source, so the CSR is a running count.
	out := &graph.Adjacency{Index: make([]uint64, n+1), NumVertices: n}
	for _, e := range edges {
		out.Index[e.Src+1]++
		out.Targets = append(out.Targets, e.Dst)
		out.Weights = append(out.Weights, e.W)
	}
	for v := 0; v < n; v++ {
		out.Index[v+1] += out.Index[v]
	}
	s := NewSSSP(0)
	s.BindRun(2, nil)
	s.Init(graph.New(edges, n, true))
	if s.bound != 16 {
		t.Fatalf("first bound %v, want Δ = 16", s.bound)
	}
	active := []graph.VertexID{0}
	var history [][]graph.VertexID
	var bounds []float32
	for len(active) > 0 {
		history = append(history, active)
		sp := graph.Span{Next: graph.NewFrontierBuilder(n, 2)}
		s.PushRows(&sp, 1, out, active)
		active = sp.Next.Collect().Sparse()
		slices.Sort(active)
		s.AfterIteration(len(history))
		bounds = append(bounds, s.bound)
	}
	want := [][]graph.VertexID{{0}, {1, 6}, {2, 7}, {3, 8}, {4, 9}, {4, 10}, {4, 11}, {4}, {5}}
	if !slices.EqualFunc(history, want, slices.Equal) {
		t.Fatalf("frontiers %v, want %v", history, want)
	}
	if wantBounds := []float32{16, 16, 16, 16, 16, 16, 32, 32, 32}; !slices.Equal(bounds, wantBounds) {
		t.Fatalf("bounds %v, want %v", bounds, wantBounds)
	}
	for v, d := range s.Distances() {
		want := float32(4 * v)
		if v > 5 {
			want = float32(v - 5)
		}
		if d != want {
			t.Fatalf("dist(%d) = %v, want %v", v, d, want)
		}
	}

	// A distance too large for float32 to hold its bucket's end still
	// opens a bound beyond it.
	s.delta, s.bound = 1, 1<<25
	s.least[0].d = 1 << 25
	s.AfterIteration(0)
	if s.bound <= 1<<25 {
		t.Fatalf("bound %v does not pass the distance %v", s.bound, float32(1<<25))
	}

	// No positive weight, no buckets: plain Bellman-Ford.
	for i := range edges {
		edges[i].W = 0
	}
	s.Init(graph.New(edges, n, true))
	if !math.IsInf(float64(s.bound), 1) {
		t.Fatalf("zero weights: bound %v, want +Inf", s.bound)
	}
}

func TestSpMVMatchesManualProduct(t *testing.T) {
	g := tinyGraph()
	m := &SpMV{X: []float64{1, 2, 3}}
	m.Init(g)
	if !m.Dense() {
		t.Fatal("SpMV is dense")
	}
	sp := atomicSpan(3)
	m.PushEdges(&sp, 0, g.EdgeArray.Edges)
	if !m.AfterIteration(0) {
		t.Fatal("SpMV must converge after one pass")
	}
	got := m.Result()
	// y[1] = 1*x[0] = 1; y[2] = 2*x[1] + 5*x[0] = 9.
	want := []float64{0, 1, 9}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("y[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSpMVDefaultVectorIsOnes(t *testing.T) {
	g := tinyGraph()
	m := NewSpMV()
	m.Init(g)
	for _, x := range m.X {
		if x != 1 {
			t.Fatalf("default input vector entry %v, want 1", x)
		}
	}
	m.PushEdge(0, 2, 5)
	if m.Result()[2] != 5 {
		t.Fatalf("push update produced %v", m.Result()[2])
	}
}

func TestSolveLinear(t *testing.T) {
	// 2x + y = 5 ; x + 3y = 10  ->  x = 1, y = 3.
	a := []float64{2, 1, 1, 3}
	x := make([]float64, 2)
	solveLinear(a, []float64{5, 10}, x, 2)
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Fatalf("solution = %v, want [1 3]", x)
	}
	// Singular system: must not panic and must return finite values.
	xs := []float64{math.NaN(), math.NaN()}
	solveLinear([]float64{1, 1, 1, 1}, []float64{2, 2}, xs, 2)
	for _, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("singular solve produced %v", xs)
		}
	}
}

func TestSolveLinearRandomSPDProperty(t *testing.T) {
	// For random symmetric positive-definite systems (built as M^T M + I),
	// the solver must satisfy A x ≈ b.
	f := func(seed int64) bool {
		const k = 4
		rng := newRand(seed)
		m := make([]float64, k*k)
		for i := range m {
			m[i] = rng.Float64()*2 - 1
		}
		a := make([]float64, k*k)
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				sum := 0.0
				for l := 0; l < k; l++ {
					sum += m[l*k+i] * m[l*k+j]
				}
				if i == j {
					sum += 1
				}
				a[i*k+j] = sum
			}
		}
		b := make([]float64, k)
		for i := range b {
			b[i] = rng.Float64() * 10
		}
		x := make([]float64, k)
		solveLinear(slices.Clone(a), slices.Clone(b), x, k)
		for i := 0; i < k; i++ {
			sum := 0.0
			for j := 0; j < k; j++ {
				sum += a[i*k+j] * x[j]
			}
			if math.Abs(sum-b[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestALSValidateAndSides(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 2, W: 4}, {Src: 1, Dst: 3, W: 2}}
	g := graph.New(edges, 4, false)
	a := NewALS(2)
	if err := a.Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	bad := NewALS(0)
	if err := bad.Validate(g); err == nil {
		t.Fatal("expected error for user count 0")
	}
	nonBip := graph.New([]graph.Edge{{Src: 0, Dst: 1}}, 4, false)
	if err := a.Validate(nonBip); err == nil {
		t.Fatal("expected error for non-bipartite edge")
	}
	a.Init(g)
	if !a.Dense() {
		t.Fatal("ALS is dense")
	}
	// Iteration 0 updates users: items must not pull, users must.
	a.BeforeIteration(0)
	if !a.updatingVertex(0) || a.updatingVertex(2) {
		t.Fatal("iteration 0 must update the user side")
	}
	a.BeforeIteration(1)
	if a.updatingVertex(0) || !a.updatingVertex(2) {
		t.Fatal("iteration 1 must update the item side")
	}
}

func TestALSFactorizationReducesError(t *testing.T) {
	// A small synthetic rating matrix with clear structure: users 0..4 love
	// item A (rating 5) and dislike item B (rating 1); users 5..9 the
	// opposite. ALS must fit these ratings well.
	const users = 10
	var edges []graph.Edge
	itemA := graph.VertexID(users)
	itemB := graph.VertexID(users + 1)
	for u := 0; u < users; u++ {
		var ra, rb graph.Weight = 5, 1
		if u >= 5 {
			ra, rb = 1, 5
		}
		edges = append(edges, graph.Edge{Src: graph.VertexID(u), Dst: itemA, W: ra})
		edges = append(edges, graph.Edge{Src: graph.VertexID(u), Dst: itemB, W: rb})
	}
	g := graph.New(edges, users+2, false)

	a := NewALS(users)
	a.Factors = 4
	a.Sweeps = 8
	a.Lambda = 0.05
	a.Init(g)
	before := a.RMSE(edges)

	// Drive the algorithm directly (push on the undirected view), exactly
	// as the engine would.
	for iter := 0; ; iter++ {
		a.BeforeIteration(iter)
		for _, e := range edges {
			// Undirected: both directions.
			a.PushEdge(e.Src, e.Dst, e.W)
			a.PushEdge(e.Dst, e.Src, e.W)
		}
		if a.AfterIteration(iter) {
			break
		}
	}
	after := a.RMSE(edges)
	if after >= before {
		t.Fatalf("RMSE did not improve: before=%v after=%v", before, after)
	}
	if after > 0.8 {
		t.Fatalf("RMSE too high after training: %v", after)
	}
	// Predictions reflect the structure: user 0 prefers item A.
	if a.Predict(0, itemA) <= a.Predict(0, itemB) {
		t.Fatalf("user 0 should prefer item A: %v vs %v", a.Predict(0, itemA), a.Predict(0, itemB))
	}
}

func TestALSNamesAndRMSEEmpty(t *testing.T) {
	a := NewALS(4)
	if a.Name() != "als" {
		t.Fatal("wrong name")
	}
	if a.RMSE(nil) != 0 {
		t.Fatal("RMSE of no edges must be 0")
	}
}

// TestALSIterationAllocatesNothing: an ALS iteration — the hooks and a pull
// step over the whole in-adjacency of a bipartite graph — allocates nothing:
// the solver works in per-run scratch.
func TestALSIterationAllocatesNothing(t *testing.T) {
	const users, items = 60, 12
	var edges []graph.Edge
	for u := 0; u < users; u++ {
		for j := 0; j < 4; j++ {
			item := users + (u*7+j*5)%items
			edges = append(edges, graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(item), W: graph.Weight(1 + (u+j)%5)})
		}
	}
	g := graph.New(edges, users+items, false)
	if err := prep.BuildAdjacency(g, prep.Out, prep.Options{Undirected: true}); err != nil {
		t.Fatal(err)
	}
	a := NewALS(users)
	a.Init(g)
	in := g.PullAdjacency()
	sp := graph.Span{Full: true}
	iter := 0
	step := func() {
		a.BeforeIteration(iter)
		a.PullRows(&sp, 0, in, 0, g.NumVertices())
		a.AfterIteration(iter)
		iter++
	}
	step()
	if allocs := testing.AllocsPerRun(6, step); allocs != 0 {
		t.Fatalf("ALS iteration: %v allocs, want 0", allocs)
	}
}
