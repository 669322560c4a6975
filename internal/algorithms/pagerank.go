package algorithms

import (
	"math"

	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/sched"
)

// PageRank ranks vertices by their link structure (Page et al.). It is the
// paper's canonical whole-graph algorithm: every iteration touches every
// edge, so the pre-processing cost of fancy layouts can be amortized (the
// grid wins end-to-end, Figure 5b) and lock removal matters (Figure 8).
// The paper runs it for a fixed 10 iterations; that is the default here.
type PageRank struct {
	// Iterations is the fixed number of iterations (default 10, as in the
	// paper's evaluation).
	Iterations int
	// Damping is the damping factor (default 0.85).
	Damping float64

	// Rank holds the current rank of every vertex.
	Rank []float64

	n         int
	acc       []uint64  // accumulated contributions, float64 bits (atomic mode)
	contrib   []float64 // rank[u]/outdeg[u] of the iteration being run
	outDeg    []uint32
	presetDeg []uint32 // degrees supplied by a streamed engine (see SetOutDegrees)
	base      float64  // (1-Damping)/n, read by the AfterIteration sweeps
	workers   int      // hook parallelism (0 = all CPUs), set by the engine
	// pfor is the engine-supplied loop executor (the run's lease for leased
	// runs); Init falls back to the process-wide pool.
	pfor func(begin, end, chunk, p int, body func(worker, lo, hi int))

	// The vertex sweeps, bound once in Init so that the hooks allocate
	// nothing: firstBody readies the first iteration, stepBody ends one
	// iteration and readies the next, rankBody ends the last.
	firstBody func(worker, lo, hi int)
	stepBody  func(worker, lo, hi int)
	rankBody  func(worker, lo, hi int)
}

// hookChunk is the chunk size of the Before/AfterIteration vertex sweeps:
// large enough that the per-chunk overhead vanishes on the streaming loops.
const hookChunk = 8192

// NewPageRank creates a PageRank with the paper's defaults (10 iterations,
// damping 0.85).
func NewPageRank() *PageRank { return &PageRank{Iterations: 10, Damping: 0.85} }

// Name implements Algorithm.
func (pr *PageRank) Name() string { return "pagerank" }

// BindRun implements the engine's RunBound extension: the per-iteration
// sweeps honour the run's configured worker count, so worker-scaling
// experiments measure what they claim to, and run on the executor the
// engine hands over — a lease's loops for leased runs — instead of always
// escaping to the process-wide pool (a nil pfor keeps that pool).
func (pr *PageRank) BindRun(workers int, pfor func(begin, end, chunk, p int, body func(worker, lo, hi int))) {
	pr.workers, pr.pfor = workers, pfor
}

// SetOutDegrees supplies the per-vertex out-degree table ahead of Init, for
// out-of-core execution where no resident edge array exists to derive it
// from (the streamed engine reads the table from the store's metadata). The
// slice is retained, not copied; it must count the edges as stored — i.e.
// already doubled for mirrored (undirected) stores.
func (pr *PageRank) SetOutDegrees(deg []uint32) { pr.presetDeg = deg }

// Dense implements Algorithm: every vertex is active every iteration.
func (pr *PageRank) Dense() bool { return true }

// Init implements Algorithm.
func (pr *PageRank) Init(g *graph.Graph) {
	if pr.Iterations <= 0 {
		pr.Iterations = 10
	}
	if pr.Damping == 0 {
		pr.Damping = 0.85
	}
	pr.n = g.NumVertices()
	pr.Rank = make([]float64, pr.n)
	pr.acc = make([]uint64, pr.n)
	pr.contrib = make([]float64, pr.n)
	pr.outDeg = pr.presetDeg
	if pr.outDeg == nil {
		pr.outDeg = outDegrees(g)
	}
	if pr.pfor == nil {
		pr.pfor = sched.ParallelForWorker
	}
	// The accumulators start at zero, as make leaves them.
	pr.firstBody = func(_, lo, hi int) {
		rank, contrib, deg := pr.Rank[lo:hi], pr.contrib[lo:hi], pr.outDeg[lo:hi]
		initial := 1.0 / float64(pr.n)
		for i := range rank {
			rank[i] = initial
			contrib[i] = contribution(initial, deg[i])
		}
	}
	// These two run after the iteration's loops have joined, so they read
	// the accumulators with plain loads.
	pr.stepBody = func(_, lo, hi int) {
		rank, acc, contrib, deg := pr.Rank[lo:hi], pr.acc[lo:hi], pr.contrib[lo:hi], pr.outDeg[lo:hi]
		base, damping := pr.base, pr.Damping
		for i := range rank {
			r := base + damping*math.Float64frombits(acc[i])
			rank[i] = r
			contrib[i] = contribution(r, deg[i])
			acc[i] = 0
		}
	}
	pr.rankBody = func(_, lo, hi int) {
		rank, acc := pr.Rank[lo:hi], pr.acc[lo:hi]
		base, damping := pr.base, pr.Damping
		for i := range rank {
			rank[i] = base + damping*math.Float64frombits(acc[i])
		}
	}
}

// contribution is rank r divided by out-degree d, and +0 for a dangling
// vertex (d == 0), without a branch: RMAT's many dangling vertices made the
// d > 0 test mispredict. For d > 0 the product with 1 is exact, so the bits
// are those of r / d.
func contribution(r float64, d uint32) float64 {
	return r / float64(max(d, 1)) * float64(min(d, 1))
}

// outDegrees returns the out-degree table a whole-graph algorithm divides
// by: the number of times each vertex is a source in one traversal of g. It
// comes from the out-adjacency's index when that is resident (O(V)), and
// otherwise from the edge array's degree tables, which are counted once per
// graph and shared by every later run. The result may be shared: callers
// must not modify it.
func outDegrees(g *graph.Graph) []uint32 {
	if g.Directed && g.Out != nil {
		deg := make([]uint32, g.NumVertices())
		for v := range deg {
			deg[v] = uint32(g.Out.Degree(graph.VertexID(v)))
		}
		return deg
	}
	out := g.EdgeArray.SharedOutDegrees()
	if g.Directed {
		return out
	}
	// On undirected datasets each stored edge is traversed in both
	// directions, so the effective out-degree of a vertex is its total
	// degree.
	in := g.EdgeArray.SharedInDegrees()
	deg := make([]uint32, len(out))
	for v := range deg {
		deg[v] = out[v] + in[v]
	}
	return deg
}

// InitialFrontier implements Algorithm.
func (pr *PageRank) InitialFrontier(g *graph.Graph) *graph.Frontier {
	return graph.FullFrontier(g.NumVertices())
}

// BeforeIteration implements Algorithm. Before the first iteration it sets
// every rank to 1/n and takes the first contributions, in one parallel
// sweep. Before every later one it does nothing: the previous
// AfterIteration took the contributions.
func (pr *PageRank) BeforeIteration(iteration int) {
	if iteration == 0 {
		pr.pfor(0, pr.n, hookChunk, pr.workers, pr.firstBody)
	}
}

// AfterIteration implements Algorithm: apply the damping update and stop
// after the fixed iteration count. Unless this was the last iteration, the
// same vertex sweep snapshots each vertex's next contribution (rank divided
// by out-degree) and clears its accumulator, so every iteration reads the
// contributions of the previous one whatever the processing order: push and
// pull produce identical results. The sweep is vertex-parallel; every vertex
// is written independently, so the parallel result is the serial one.
func (pr *PageRank) AfterIteration(iteration int) bool {
	pr.base = (1 - pr.Damping) / float64(pr.n)
	last := iteration+1 >= pr.Iterations
	body := pr.stepBody
	if last {
		body = pr.rankBody
	}
	pr.pfor(0, pr.n, hookChunk, pr.workers, body)
	return last
}

// PushEdge implements Algorithm: u adds its contribution to v's accumulator.
func (pr *PageRank) PushEdge(u, v graph.VertexID, _ graph.Weight) bool {
	storeFloat64(&pr.acc[v], loadFloat64(&pr.acc[v])+pr.contrib[u])
	return false
}

// Span kernels (the engine's Algorithm contract). PageRank is dense: the
// engine feeds it the full frontier every iteration, so the kernels never
// test membership. Each destination's sum is accumulated in span order, so
// an owned path's bits depend only on the layout's edge order.

// PullRows sums each destination's in-contributions in a register and
// stores the accumulator once: the calling worker owns acc[lo:hi]. A row
// starts where the previous one ended, so each row reads one Index entry.
func (pr *PageRank) PullRows(_ *graph.Span, _ int, in *graph.Adjacency, lo, hi int) {
	acc, contrib := pr.acc[lo:hi], pr.contrib
	idx, tgt := in.Index[lo:hi+1], in.Targets
	start := idx[0]
	for i, end := range idx[1:] {
		sum := math.Float64frombits(acc[i])
		for _, u := range tgt[start:end] {
			sum += contrib[u]
		}
		acc[i] = math.Float64bits(sum)
		start = end
	}
}

// PushRows adds each active vertex's contribution to its out-neighbours
// atomically.
func (pr *PageRank) PushRows(_ *graph.Span, _ int, out *graph.Adjacency, active []graph.VertexID) {
	acc, contrib := pr.acc, pr.contrib
	idx, tgt := out.Index, out.Targets
	for _, u := range active {
		c := contrib[u]
		for _, v := range tgt[idx[u]:idx[u+1]] {
			atomicAddFloat64(&acc[v], c)
		}
	}
}

// PushEdges applies a flat edge slice: plain read-modify-write when the
// worker owns the destinations, atomic adds otherwise.
func (pr *PageRank) PushEdges(s *graph.Span, _ int, edges []graph.Edge) {
	acc, contrib := pr.acc, pr.contrib
	if !s.Atomic {
		for _, e := range edges {
			acc[e.Dst] = math.Float64bits(math.Float64frombits(acc[e.Dst]) + contrib[e.Src])
		}
		return
	}
	mirror := s.Mirror
	for _, e := range edges {
		atomicAddFloat64(&acc[e.Dst], contrib[e.Src])
		if mirror && e.Src != e.Dst {
			atomicAddFloat64(&acc[e.Src], contrib[e.Dst])
		}
	}
}

// PullEdges is PushEdges: every destination pulls every iteration, and the
// pull update is the same addition.
func (pr *PageRank) PullEdges(s *graph.Span, worker int, edges []graph.Edge) {
	pr.PushEdges(s, worker, edges)
}

// TotalRank returns the sum of all ranks (used by the mass-conservation
// property tests; with dangling-vertex mass dropped the sum stays ≤ 1 and
// ≥ (1-Damping)).
func (pr *PageRank) TotalRank() float64 {
	sum := 0.0
	for _, r := range pr.Rank {
		sum += r
	}
	return sum
}

// Top returns the indices of the k highest-ranked vertices (small k; simple
// selection). Used by the examples.
func (pr *PageRank) Top(k int) []graph.VertexID {
	if k > pr.n {
		k = pr.n
	}
	picked := make([]graph.VertexID, 0, k)
	used := make(map[graph.VertexID]bool, k)
	for len(picked) < k {
		best := graph.VertexID(0)
		bestRank := -1.0
		for v := 0; v < pr.n; v++ {
			id := graph.VertexID(v)
			if used[id] {
				continue
			}
			if pr.Rank[v] > bestRank {
				bestRank = pr.Rank[v]
				best = id
			}
		}
		used[best] = true
		picked = append(picked, best)
	}
	return picked
}
