package algorithms

import (
	"math"

	"github.com/epfl-repro/everythinggraph/internal/graph"
)

// SSSP computes single-source shortest paths with a frontier-driven
// Bellman-Ford relaxation: active vertices relax their outgoing edges and
// activate any destination whose distance improved. It behaves like BFS
// with the difference the paper highlights in Section 8: a vertex can be
// updated many times, so both the iteration count and the per-iteration
// frontier sizes are larger.
type SSSP struct {
	// Source is the origin of the paths.
	Source graph.VertexID

	// dist holds the tentative distances as float32 bit patterns so the
	// atomic edge functions can CAS them.
	dist []uint32
}

// NewSSSP creates an SSSP instance rooted at source.
func NewSSSP(source graph.VertexID) *SSSP { return &SSSP{Source: source} }

// Name implements Algorithm.
func (s *SSSP) Name() string { return "sssp" }

// Dense implements Algorithm.
func (s *SSSP) Dense() bool { return false }

// Init implements Algorithm.
func (s *SSSP) Init(g *graph.Graph) {
	n := g.NumVertices()
	s.dist = make([]uint32, n)
	inf := math.Float32bits(float32(math.Inf(1)))
	for v := range s.dist {
		s.dist[v] = inf
	}
	storeFloat32(&s.dist[s.Source], 0)
}

// InitialFrontier implements Algorithm.
func (s *SSSP) InitialFrontier(g *graph.Graph) *graph.Frontier {
	return graph.NewFrontierFromSparse(g.NumVertices(), []graph.VertexID{s.Source})
}

// BeforeIteration implements Algorithm.
func (s *SSSP) BeforeIteration(int) {}

// AfterIteration implements Algorithm: relaxation stops when no distance
// improves (empty frontier).
func (s *SSSP) AfterIteration(int) bool { return false }

// PushEdge implements Algorithm: relax u -> v.
func (s *SSSP) PushEdge(u, v graph.VertexID, w graph.Weight) bool {
	nd := loadFloat32(&s.dist[u]) + float32(w)
	if nd < loadFloat32(&s.dist[v]) {
		storeFloat32(&s.dist[v], nd)
		return true
	}
	return false
}

// PushEdgeAtomic implements Algorithm: relax with an atomic minimum.
func (s *SSSP) PushEdgeAtomic(u, v graph.VertexID, w graph.Weight) bool {
	nd := loadFloat32(&s.dist[u]) + float32(w)
	return atomicMinFloat32(&s.dist[v], nd)
}

// PullActive implements Algorithm: every vertex may still improve.
func (s *SSSP) PullActive(graph.VertexID) bool { return true }

// PullEdge implements Algorithm: v relaxes over the active in-neighbour u.
func (s *SSSP) PullEdge(v, u graph.VertexID, w graph.Weight) (bool, bool) {
	nd := loadFloat32(&s.dist[u]) + float32(w)
	if nd < loadFloat32(&s.dist[v]) {
		storeFloat32(&s.dist[v], nd)
		return true, false
	}
	return false, false
}

// Span kernels (the engine's SpanAlgorithm contract). A distance is read as
// a source by other workers while its owner lowers it, so every access to
// dist stays atomic; what the kernels save is the call per edge, the reload
// of the destination's own distance, and the store on edges that do not
// improve it.

// PullRows relaxes each owned destination over its active in-neighbours,
// keeping its tentative distance in a register. Improvements are stored as
// they happen, so a self-loop reads what the per-edge path would.
func (s *SSSP) PullRows(sp *graph.Span, worker int, in *graph.Adjacency, lo, hi int) {
	dist := s.dist
	idx, tgt, wts := in.Index, in.Targets, in.Weights
	for v := lo; v < hi; v++ {
		row := tgt[idx[v]:idx[v+1]]
		ws := wts[idx[v]:idx[v+1]][:len(row)]
		cur := loadFloat32(&dist[v])
		changed := false
		for j, u := range row {
			if !sp.Active(u) {
				continue
			}
			if nd := loadFloat32(&dist[u]) + ws[j]; nd < cur {
				cur, changed = nd, true
				storeFloat32(&dist[v], nd)
			}
		}
		if changed {
			sp.Next.AddUnsynced(worker, graph.VertexID(v))
		}
	}
}

// PushRows relaxes the out-edges of the active vertices with atomic minima.
func (s *SSSP) PushRows(sp *graph.Span, worker int, out *graph.Adjacency, active []graph.VertexID) {
	dist := s.dist
	idx, tgt, wts := out.Index, out.Targets, out.Weights
	for _, u := range active {
		row := tgt[idx[u]:idx[u+1]]
		ws := wts[idx[u]:idx[u+1]][:len(row)]
		for j, v := range row {
			if atomicMinFloat32(&dist[v], loadFloat32(&dist[u])+ws[j]) {
				sp.Next.Add(worker, v)
			}
		}
	}
}

// PushEdges relaxes a flat edge slice.
func (s *SSSP) PushEdges(sp *graph.Span, worker int, edges []graph.Edge) {
	dist := s.dist
	if !sp.Atomic {
		for _, e := range edges {
			if !sp.Active(e.Src) {
				continue
			}
			if nd := loadFloat32(&dist[e.Src]) + e.W; nd < loadFloat32(&dist[e.Dst]) {
				storeFloat32(&dist[e.Dst], nd)
				sp.Next.Add(worker, e.Dst)
			}
		}
		return
	}
	for _, e := range edges {
		if sp.Active(e.Src) && atomicMinFloat32(&dist[e.Dst], loadFloat32(&dist[e.Src])+e.W) {
			sp.Next.Add(worker, e.Dst)
		}
		if sp.Mirror && e.Src != e.Dst && sp.Active(e.Dst) && atomicMinFloat32(&dist[e.Src], loadFloat32(&dist[e.Dst])+e.W) {
			sp.Next.Add(worker, e.Src)
		}
	}
}

// PullEdges is PushEdges: every vertex may still improve, and pulling over
// an edge is the same relaxation.
func (s *SSSP) PullEdges(sp *graph.Span, worker int, edges []graph.Edge) {
	s.PushEdges(sp, worker, edges)
}

// Distance returns the computed distance of v (+Inf if unreachable).
func (s *SSSP) Distance(v graph.VertexID) float32 {
	return loadFloat32(&s.dist[v])
}

// Distances copies all distances into a new slice.
func (s *SSSP) Distances() []float32 {
	out := make([]float32, len(s.dist))
	for v := range s.dist {
		out[v] = loadFloat32(&s.dist[uint32(v)])
	}
	return out
}

// Reached counts the vertices with a finite distance.
func (s *SSSP) Reached() int {
	count := 0
	for v := range s.dist {
		if !math.IsInf(float64(loadFloat32(&s.dist[v])), 1) {
			count++
		}
	}
	return count
}
