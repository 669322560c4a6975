package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/prep"
	"github.com/epfl-repro/everythinggraph/internal/sched"
)

// spanAlgo is one shipped algorithm of the differential table: a factory,
// the result as bit patterns, and its serial oracle in the same form.
// integral results are exact under every schedule; floating-point sums are
// only reproducible where one worker applies each destination's updates in
// a fixed order.
type spanAlgo struct {
	name     string
	integral bool
	make     func() (Algorithm, func() []uint64)
	oracle   func(g *graph.Graph) []uint64
}

// spanPageRankIterations is the PageRank iteration count of the table.
const spanPageRankIterations = 3

var spanAlgos = []spanAlgo{
	{"pagerank", false, func() (Algorithm, func() []uint64) {
		pr := algorithms.NewPageRank()
		pr.Iterations = spanPageRankIterations
		return pr, func() []uint64 { return floatBits(pr.Rank) }
	}, func(g *graph.Graph) []uint64 {
		return floatBits(oraclePageRank(g, spanPageRankIterations, algorithms.NewPageRank().Damping))
	}},
	{"spmv", false, func() (Algorithm, func() []uint64) {
		m := algorithms.NewSpMV()
		return m, func() []uint64 { return floatBits(m.Result()) }
	}, func(g *graph.Graph) []uint64 {
		ones := make([]float64, g.NumVertices())
		for i := range ones {
			ones[i] = 1
		}
		return floatBits(oracleSpMV(g, ones))
	}},
	{"bfs", true, func() (Algorithm, func() []uint64) {
		b := algorithms.NewBFS(0)
		return b, func() []uint64 { return levelBits(b.Level) }
	}, func(g *graph.Graph) []uint64 {
		return levelBits(oracleBFS(g, 0))
	}},
	{"sssp", true, func() (Algorithm, func() []uint64) {
		s := algorithms.NewSSSP(0)
		return s, func() []uint64 { return distBits(s.Distances()) }
	}, func(g *graph.Graph) []uint64 {
		return distBits(oracleDijkstra(g, 0))
	}},
	{"wcc", true, func() (Algorithm, func() []uint64) {
		w := algorithms.NewWCC()
		return w, func() []uint64 { return labelBits(w.Labels) }
	}, func(g *graph.Graph) []uint64 {
		return labelBits(oracleWCC(g))
	}},
}

func levelBits(levels []int32) []uint64 {
	out := make([]uint64, len(levels))
	for i, l := range levels {
		out[i] = uint64(uint32(l))
	}
	return out
}

func distBits(d []float32) []uint64 {
	out := make([]uint64, len(d))
	for i, x := range d {
		out[i] = uint64(math.Float32bits(x))
	}
	return out
}

func labelBits(labels []uint32) []uint64 {
	out := make([]uint64, len(labels))
	for i, l := range labels {
		out[i] = uint64(l)
	}
	return out
}

func floatBits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// spanGraph is one input of the differential table, with every layout built.
type spanGraph struct {
	name string
	g    *graph.Graph
}

// spanGraphs builds the table's inputs: adversarial shapes, a long chain, a
// road lattice, a uniform random graph and RMAT both ways. Weights are small
// non-negative integers except where noted, so every path sum is exact.
func spanGraphs(t *testing.T) []spanGraph {
	t.Helper()
	e := func(s, d int, w float32) graph.Edge {
		return graph.Edge{Src: graph.VertexID(s), Dst: graph.VertexID(d), W: w}
	}
	var hub []graph.Edge
	for v := 1; v < 40; v++ {
		hub = append(hub, e(0, v, float32(v%5)), e(v, 0, 1))
		if v%3 == 0 {
			hub = append(hub, e(v, v-1, 2))
		}
	}
	ring := func(lo, hi int) []graph.Edge {
		var es []graph.Edge
		for v := lo; v < hi; v++ {
			next := v + 1
			if next == hi {
				next = lo
			}
			es = append(es, e(v, next, float32(1+v%3)))
		}
		return es
	}
	var chain []graph.Edge
	for v := 0; v < 99; v++ {
		chain = append(chain, e(v, v+1, 1))
	}
	road := gen.Road(gen.RoadOptions{Width: 24, Height: 24, Seed: 2})
	uniform := gen.Uniform(gen.UniformOptions{NumVertices: 500, NumEdges: 4000, Seed: 11, Weighted: true})
	rmat := gen.RMAT(gen.RMATOptions{Scale: 9, EdgeFactor: 8, Seed: 11})
	for i := range rmat.EdgeArray.Edges {
		// Non-integral weights: float32 path sums and float64 SpMV sums.
		rmat.EdgeArray.Edges[i].W = 0.25 + float32(i%7)/3
	}
	cases := []struct {
		name     string
		n        int
		edges    []graph.Edge
		directed bool
	}{
		{"no-edges", 5, nil, true},
		{"single-vertex", 1, nil, true},
		{"single-self-loop", 1, []graph.Edge{e(0, 0, 1)}, true},
		{"self-loops", 6, []graph.Edge{e(0, 0, 1), e(0, 1, 2), e(1, 1, 0), e(1, 2, 1), e(2, 2, 3), e(2, 0, 1), e(3, 3, 1), e(4, 5, 1)}, true},
		{"duplicate-edges", 5, []graph.Edge{e(0, 1, 3), e(0, 1, 1), e(0, 1, 2), e(1, 2, 1), e(1, 2, 1), e(2, 3, 5), e(2, 3, 4), e(3, 0, 1), e(3, 0, 1)}, true},
		{"one-hub", 40, hub, true},
		{"disconnected", 24, append(append(ring(0, 8), ring(8, 16)...), e(20, 21, 1)), true},
		{"undirected", 12, append(ring(0, 7), e(0, 0, 1), e(2, 5, 2), e(5, 2, 2), e(8, 9, 1), e(9, 10, 3)), false},
		{"chain-100", 100, chain, true},
		{"road-24", road.NumVertices(), road.EdgeArray.Edges, road.Directed},
		{"uniform-500", uniform.NumVertices(), uniform.EdgeArray.Edges, true},
		{"rmat-9", rmat.NumVertices(), rmat.EdgeArray.Edges, true},
		{"rmat-9-undirected", rmat.NumVertices(), rmat.EdgeArray.Edges, false},
	}
	out := make([]spanGraph, 0, len(cases))
	for _, c := range cases {
		if testing.Short() && len(c.edges) > 1000 {
			// The inputs of more than 1,000 edges (road, uniform, RMAT) are
			// what spreads a loop over several workers; the repeated -short
			// runs in CI keep the adversarial shapes and the chain.
			continue
		}
		g := graph.New(append([]graph.Edge(nil), c.edges...), c.n, c.directed)
		opt := prep.Options{Method: prep.RadixSort, Undirected: !c.directed}
		dir := prep.InOut
		if !c.directed {
			dir = prep.Out
		}
		if err := prep.BuildAdjacency(g, dir, opt); err != nil {
			t.Fatalf("%s: BuildAdjacency: %v", c.name, err)
		}
		if err := prep.BuildGrid(g, 4, opt); err != nil {
			t.Fatalf("%s: BuildGrid: %v", c.name, err)
		}
		out = append(out, spanGraph{c.name, g})
	}
	return out
}

// coarserGridGraphs returns copies of g whose grids are rebuilt at every
// coarser dimension, halving P (rounding up) down to 1x1. The copies share
// g's edge array and adjacencies.
func coarserGridGraphs(t *testing.T, g *graph.Graph) []*graph.Graph {
	t.Helper()
	var out []*graph.Graph
	for p := g.Grid.P; p > 1; {
		p = (p + 1) / 2
		cg := *g
		if err := prep.BuildGrid(&cg, p, prep.Options{Undirected: !g.Directed}); err != nil {
			t.Fatalf("BuildGrid at P=%d: %v", p, err)
		}
		if cg.Grid.P != p {
			t.Fatalf("BuildGrid at P=%d built P=%d", p, cg.Grid.P)
		}
		out = append(out, &cg)
	}
	return out
}

// admittedConfigs enumerates every static {layout, flow, sync} combination
// ValidateTechniques admits, plus the adaptive flow.
func admittedConfigs() []Config {
	cfgs := []Config{{Flow: Auto, Layout: graph.LayoutAdjacency}}
	for _, layout := range []graph.Layout{graph.LayoutEdgeArray, graph.LayoutAdjacency, graph.LayoutAdjacencySorted, graph.LayoutGrid} {
		for _, flow := range []Flow{Push, Pull, PushPull} {
			for _, sync := range []SyncMode{SyncLocks, SyncAtomics, SyncPartitionFree} {
				if ValidateTechniques(layout, flow, sync) == nil {
					cfgs = append(cfgs, Config{Layout: layout, Flow: flow, Sync: sync})
				}
			}
		}
	}
	return cfgs
}

// ownedOrder reports whether cfg applies each destination's updates from one
// worker in a fixed order at any worker count — the configurations whose
// floating-point results are bit-reproducible.
func ownedOrder(cfg Config) bool {
	switch {
	case cfg.Flow == Auto:
		return false
	case cfg.Layout == graph.LayoutGrid:
		return cfg.Sync == SyncPartitionFree
	case cfg.Layout == graph.LayoutAdjacency || cfg.Layout == graph.LayoutAdjacencySorted:
		return cfg.Flow == Pull
	}
	return false
}

// gridSource streams a resident grid's cells with the Source contract:
// columns are dealt to workers, each column's cells visited in ascending
// row order by its worker.
type gridSource struct {
	grid       *graph.Grid
	undirected bool
	stats      SourceStats
}

func (s *gridSource) NumVertices() int { return s.grid.NumVertices }
func (s *gridSource) NumEdges() int64  { return int64(len(s.grid.Pairs)) }
func (s *gridSource) GridP() int       { return s.grid.P }
func (s *gridSource) Undirected() bool { return s.undirected }
func (s *gridSource) Stats() SourceStats {
	return s.stats
}

func (s *gridSource) OutDegrees() []uint32 {
	deg := make([]uint32, s.grid.NumVertices)
	for _, e := range s.grid.Pairs {
		deg[e.Src]++
	}
	return deg
}

func (s *gridSource) StreamCells(opt StreamOptions, visit func(worker int, pairs []graph.Pair, weights []graph.Weight)) error {
	s.stats.Passes++
	p := s.grid.P
	workers := max(1, min(opt.Workers, p))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for col := w; col < p; col += workers {
				for row := 0; row < p; row++ {
					if pairs, weights := s.grid.Cell(row, col); len(pairs) > 0 {
						visit(w, pairs, weights)
					}
				}
			}
		}()
	}
	wg.Wait()
	return nil
}

// matchOracle fails t unless got is the oracle's want: bit for bit for an
// integral result, within 1e-9 relative for floating-point sums (the
// engine's summation order is the layout's, the oracle's its own).
func matchOracle(t *testing.T, got, want []uint64, integral bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("result length %d, oracle %d", len(got), len(want))
	}
	for v := range want {
		if got[v] == want[v] {
			continue
		}
		g, w := math.Float64frombits(got[v]), math.Float64frombits(want[v])
		if integral || !(math.Abs(g-w) <= 1e-9*math.Abs(w)) {
			t.Fatalf("vertex %d: got %#x, serial oracle %#x", v, got[v], want[v])
		}
	}
}

// TestKernelsMatchSerialOracles is the differential table of the span
// contract: for each shipped algorithm with a serial oracle, on each input,
// every admitted configuration at 1 and 4 workers — static grid ones also
// on grids built at every coarser P, push iterations on the
// caller and on the gang, in memory and streamed, Auto over a graph whose
// only layouts are the grid and the edge array, plus one leased run per
// layout — must leave the
// oracle's result: integral results exactly, floating-point sums within
// 1e-9 relative. A configuration that fixes each destination's update
// order (ownedOrder, and every streamed one) must also leave the same bits
// at 4 workers as at 1.
func TestKernelsMatchSerialOracles(t *testing.T) {
	for _, sg := range spanGraphs(t) {
		src := &gridSource{grid: sg.g.Grid, undirected: !sg.g.Directed}
		gridOnly := &graph.Graph{EdgeArray: sg.g.EdgeArray, Grid: sg.g.Grid, Directed: sg.g.Directed}
		coarse := coarserGridGraphs(t, sg.g)
		for _, a := range spanAlgos {
			want := a.oracle(sg.g)
			check := func(t *testing.T, run func(Algorithm) error) []uint64 {
				t.Helper()
				alg, result := a.make()
				if err := run(alg); err != nil {
					t.Fatal(err)
				}
				got := result()
				matchOracle(t, got, want, a.integral)
				return got
			}
			// The 1-worker results of the order-fixing rows, by row name.
			solo := make(map[string][]uint64)
			row := func(name string, workers int, ordered bool, run func(Algorithm) error) {
				t.Run(fmt.Sprintf("%s/%s/w%d/%s", sg.name, a.name, workers, name), func(t *testing.T) {
					got := check(t, run)
					if !ordered {
						return
					}
					if workers == 1 {
						solo[name] = got
					} else if ref, ok := solo[name]; ok && !slices.Equal(got, ref) {
						t.Fatalf("bits differ from the same configuration at 1 worker")
					}
				})
			}
			for _, workers := range []int{1, 4} {
				for _, cfg := range admittedConfigs() {
					cfg.Workers = workers
					name := fmt.Sprintf("%v-%v-%v", cfg.Layout, cfg.Flow, cfg.Sync)
					run := func(alg Algorithm) error {
						_, err := Run(sg.g, alg, cfg)
						return err
					}
					row(name, workers, ownedOrder(cfg), run)
					if workers > 1 && pushesRows(cfg) {
						atCallerPushExtremes(t, fmt.Sprintf("%s/%s/w%d/%s", sg.name, a.name, workers, name), func(t *testing.T) {
							check(t, run)
						})
					}
					if cfg.Layout == graph.LayoutGrid && cfg.Flow != Auto {
						// A grid runs at the P it was built with; grids built
						// at every coarser P hand the kernels wider cells,
						// down to one cell holding every edge.
						for _, cg := range coarse {
							row(fmt.Sprintf("%v%d-%v-%v", cfg.Layout, cg.Grid.P, cfg.Flow, cfg.Sync), workers, ownedOrder(cfg), func(alg Algorithm) error {
								_, err := Run(cg, alg, cfg)
								return err
							})
						}
					}
					if cfg.Flow == Auto || (cfg.Layout == graph.LayoutGrid && cfg.Sync == SyncPartitionFree) {
						// Streamed cells are owned whatever the flow.
						row("streamed/"+name, workers, true, func(alg Algorithm) error {
							_, err := RunStreamed(src, alg, cfg)
							return err
						})
					}
				}
				row("grid-only/auto", workers, false, func(alg Algorithm) error {
					_, err := Run(gridOnly, alg, Config{Flow: Auto, Workers: workers})
					return err
				})
			}
			for _, cfg := range leasedConfigs {
				cfg.Workers = 4
				row(fmt.Sprintf("leased/%v-%v-%v", cfg.Layout, cfg.Flow, cfg.Sync), 4, false, func(alg Algorithm) error {
					lease := sched.DefaultPool().Lease(cfg.Workers)
					defer lease.Release()
					cfg.Lease = lease
					_, err := Run(sg.g, alg, cfg)
					return err
				})
			}
		}
	}
}

// leasedConfigs are the table's leased rows, one per layout.
var leasedConfigs = []Config{
	{Layout: graph.LayoutEdgeArray, Flow: Push, Sync: SyncAtomics},
	{Layout: graph.LayoutAdjacency, Flow: PushPull, Sync: SyncAtomics},
	{Layout: graph.LayoutAdjacencySorted, Flow: Pull, Sync: SyncPartitionFree},
	{Layout: graph.LayoutGrid, Flow: Push, Sync: SyncLocks},
}

// TestRunAndRunStreamedIterateAlike: Run and RunStreamed are one iteration
// loop behind two step functions, so the same grid run in memory
// (grid/pull/no-lock) and through the streamed source takes the same
// iterations over the same frontiers under the same plans and leaves the
// same bits, through both of
// the loop's exits: PageRank (dense) stops at the MaxIterations cap, BFS
// (tracked) on the empty frontier.
func TestRunAndRunStreamedIterateAlike(t *testing.T) {
	// PageRank would run 3 iterations of its own: the cap of 2 ends the run.
	caps := map[string]int{"pagerank": 2, "bfs": 0}
	for _, sg := range spanGraphs(t) {
		src := &gridSource{grid: sg.g.Grid, undirected: !sg.g.Directed}
		for _, a := range spanAlgos {
			maxIterations, ok := caps[a.name]
			if !ok {
				continue
			}
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/w%d", sg.name, a.name, workers), func(t *testing.T) {
					cfg := Config{Layout: graph.LayoutGrid, Flow: Pull, Sync: SyncPartitionFree,
						Workers: workers, MaxIterations: maxIterations}
					memAlg, memResult := a.make()
					mem, err := Run(sg.g, memAlg, cfg)
					if err != nil {
						t.Fatalf("Run: %v", err)
					}
					strAlg, strResult := a.make()
					str, err := RunStreamed(src, strAlg, cfg)
					if err != nil {
						t.Fatalf("RunStreamed: %v", err)
					}
					if maxIterations > 0 && mem.Iterations != maxIterations {
						t.Fatalf("Run took %d iterations, want the cap %d", mem.Iterations, maxIterations)
					}
					if str.Iterations != mem.Iterations || len(str.PerIteration) != len(mem.PerIteration) {
						t.Fatalf("iterations: streamed %d (%d recorded), in-memory %d (%d recorded)",
							str.Iterations, len(str.PerIteration), mem.Iterations, len(mem.PerIteration))
					}
					for i, m := range mem.PerIteration {
						s := str.PerIteration[i]
						if s.ActiveVertices != m.ActiveVertices {
							t.Fatalf("iteration %d: streamed %d active vertices, in-memory %d", i, s.ActiveVertices, m.ActiveVertices)
						}
						if s.Plan != m.Plan {
							t.Fatalf("iteration %d: streamed plan %q, in-memory %q", i, s.Plan, m.Plan)
						}
					}
					got, want := strResult(), memResult()
					for v := range want {
						if got[v] != want[v] {
							t.Fatalf("vertex %d: streamed %#x, in-memory %#x", v, got[v], want[v])
						}
					}
				})
			}
		}
	}
}

// TestSpanIterationAllocatesNothing: a steady-state iteration — one span
// call per chunk, frontier buffers recycled — performs no heap allocation,
// on the span kernels and on the locked pushes of SyncLocks alike.
func TestSpanIterationAllocatesNothing(t *testing.T) {
	g := rmatTestGraph(t)
	plans := []StepPlan{
		{Layout: graph.LayoutAdjacency, Flow: Pull, Sync: SyncPartitionFree},
		{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics},
		{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncLocks},
		{Layout: graph.LayoutEdgeArray, Flow: Push, Sync: SyncAtomics},
		{Layout: graph.LayoutGrid, Flow: Pull, Sync: SyncPartitionFree},
		{Layout: graph.LayoutGrid, Flow: Push, Sync: SyncAtomics},
	}
	for _, a := range spanAlgos {
		for _, plan := range plans {
			t.Run(fmt.Sprintf("%s/%v", a.name, plan), func(t *testing.T) {
				alg, _ := a.make()
				// The setup iterate does for a 2-worker run.
				if rb, ok := alg.(RunBound); ok {
					rb.BindRun(2, nil)
				}
				alg.Init(g)
				frontier := alg.InitialFrontier(g)
				plan.Tracked = !alg.Dense()
				r := newRunner(g, alg, Config{}, 2)
				// Warm the frontier buffers and the worker pool. Fed the same
				// frontier every time, a tracked algorithm converges within
				// the graph's diameter and later iterations activate nothing.
				for i := 0; i < 16; i++ {
					r.execute(plan, frontier)
				}
				if n := testing.AllocsPerRun(5, func() { r.execute(plan, frontier) }); n != 0 {
					t.Fatalf("steady-state iteration allocates %v objects, want 0", n)
				}
			})
		}
	}

	// Pull and push alternating on one runner: every push consumes the
	// frontier a pull built a word at a time, so it lists that dense frontier
	// first — into the recycled frontier's buffer. One worker keeps the push
	// side's per-worker lists at a fixed split, so their capacity is warm too.
	t.Run("flood/pull-push", func(t *testing.T) {
		var alg flood
		r := newRunner(g, alg, Config{}, 1)
		pull := StepPlan{Layout: graph.LayoutAdjacency, Flow: Pull, Sync: SyncPartitionFree, Tracked: true}
		push := StepPlan{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics, Tracked: true}
		frontier := alg.InitialFrontier(g)
		step := func() {
			built, _ := r.execute(pull, frontier)
			if !built.IsDense() || built.IsEmpty() {
				t.Fatalf("pull emitted dense=%v with %d vertices, want a non-empty dense frontier", built.IsDense(), built.Count())
			}
			frontier, _ = r.execute(push, built)
		}
		for i := 0; i < 8; i++ {
			step()
		}
		if n := testing.AllocsPerRun(5, step); n != 0 {
			t.Fatalf("steady-state pull+push pair allocates %v objects, want 0", n)
		}
	})
}

// flood activates, every iteration, every vertex an active vertex has an
// edge to, in whichever direction the iteration runs: its frontiers never
// drain, so a runner can alternate pull and push on it indefinitely.
type flood struct{}

func (flood) Name() string                                      { return "flood" }
func (flood) Init(*graph.Graph)                                 {}
func (flood) Dense() bool                                       { return false }
func (flood) PushEdge(_, _ graph.VertexID, _ graph.Weight) bool { return true }
func (flood) BeforeIteration(int)                               {}
func (flood) AfterIteration(int) bool                           { return false }

func (flood) InitialFrontier(g *graph.Graph) *graph.Frontier {
	return graph.FullFrontier(g.NumVertices())
}

// PullRows activates every vertex of [lo, hi) with an active in-neighbour.
func (flood) PullRows(s *graph.Span, worker int, in *graph.Adjacency, lo, hi int) {
	for base := lo; base < hi; base += 64 {
		var next uint64
		for v := base; v < min(base+64, hi); v++ {
			for _, u := range in.Targets[in.Index[v]:in.Index[v+1]] {
				if s.Active(u) {
					next |= 1 << (v & 63)
					break
				}
			}
		}
		if next != 0 {
			s.Next.SetWord(worker, base>>6, next)
		}
	}
}

func (flood) PushRows(s *graph.Span, worker int, out *graph.Adjacency, active []graph.VertexID) {
	for _, u := range active {
		for _, v := range out.Targets[out.Index[u]:out.Index[u+1]] {
			s.Next.Add(worker, v)
		}
	}
}

func (flood) PushEdges(s *graph.Span, worker int, edges []graph.Edge) {
	for _, e := range edges {
		if s.Active(e.Src) {
			s.Next.Add(worker, e.Dst)
		}
		if s.Mirror && s.Active(e.Dst) {
			s.Next.Add(worker, e.Src)
		}
	}
}

func (flood) Cells(s *graph.Span, worker int, pairs []graph.Pair, _ []graph.Weight) {
	for _, e := range pairs {
		if s.Active(e.Src) {
			s.Next.Add(worker, e.Dst)
		}
	}
}

// pullChunks is flood whose PullRows records the row range of every pull
// chunk instead of pulling.
type pullChunks struct {
	flood
	mu     sync.Mutex
	ranges [][2]int
}

func (a *pullChunks) PullRows(_ *graph.Span, _ int, _ *graph.Adjacency, lo, hi int) {
	a.mu.Lock()
	a.ranges = append(a.ranges, [2]int{lo, hi})
	a.mu.Unlock()
}

// TestPullChunksOwnWholeBlocks: every pull chunk starts on a 128-byte block
// of the vertex bitmaps (1024 vertices) and ends on one or at the last
// vertex, so no two workers write one cache line of the next frontier or of
// BFS's visited bitmap.
func TestPullChunksOwnWholeBlocks(t *testing.T) {
	const n, block = 5000, 1024 // n is not a multiple of block
	edges := make([]graph.Edge, n)
	for v := range edges {
		edges[v] = graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID((7*v + 1) % n), W: 1}
	}
	g := graph.New(edges, n, true)
	if err := prep.BuildAdjacency(g, prep.InOut, prep.Options{Method: prep.RadixSort}); err != nil {
		t.Fatalf("BuildAdjacency: %v", err)
	}
	pull := StepPlan{Layout: graph.LayoutAdjacency, Flow: Pull, Sync: SyncPartitionFree, Tracked: true}
	for _, workers := range []int{2, 8} {
		alg := &pullChunks{}
		r := newRunner(g, alg, Config{}, workers)
		r.execute(pull, alg.InitialFrontier(g))
		covered := 0
		for _, rg := range alg.ranges {
			lo, hi := rg[0], rg[1]
			if lo%block != 0 || (hi%block != 0 && hi != n) {
				t.Fatalf("workers=%d: pull chunk [%d, %d) splits a %d-vertex block", workers, lo, hi, block)
			}
			covered += hi - lo
		}
		if covered != n {
			t.Fatalf("workers=%d: pull chunks cover %d of %d rows", workers, covered, n)
		}
	}
}
