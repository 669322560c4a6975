package algorithms

import (
	"math"

	"github.com/epfl-repro/everythinggraph/internal/graph"
)

// SpMV multiplies the adjacency matrix of the graph (edge weights are the
// matrix entries) by a dense input vector: y[dst] += w(src,dst) * x[src].
// It is the paper's canonical single-pass algorithm — it touches every edge
// exactly once and therefore never amortizes any pre-processing, which is
// why the edge array is the best layout for it end-to-end (Figure 3c,
// Table 6).
type SpMV struct {
	// X is the input vector; if nil, Init fills it with ones.
	X []float64
	// y accumulates the result as float64 bit patterns (atomic mode).
	y []uint64
}

// NewSpMV creates an SpMV with an all-ones input vector.
func NewSpMV() *SpMV { return &SpMV{} }

// Name implements Algorithm.
func (m *SpMV) Name() string { return "spmv" }

// Dense implements Algorithm: the single pass touches the whole graph.
func (m *SpMV) Dense() bool { return true }

// Init implements Algorithm.
func (m *SpMV) Init(g *graph.Graph) {
	n := g.NumVertices()
	if m.X == nil || len(m.X) != n {
		m.X = make([]float64, n)
		for i := range m.X {
			m.X[i] = 1
		}
	}
	m.y = make([]uint64, n)
}

// InitialFrontier implements Algorithm.
func (m *SpMV) InitialFrontier(g *graph.Graph) *graph.Frontier {
	return graph.FullFrontier(g.NumVertices())
}

// BeforeIteration implements Algorithm.
func (m *SpMV) BeforeIteration(int) {}

// AfterIteration implements Algorithm: one pass suffices.
func (m *SpMV) AfterIteration(int) bool { return true }

// PushEdge implements Algorithm.
func (m *SpMV) PushEdge(u, v graph.VertexID, w graph.Weight) bool {
	storeFloat64(&m.y[v], loadFloat64(&m.y[v])+float64(w)*m.X[u])
	return false
}

// Span kernels (the engine's Algorithm contract). SpMV is dense, so the
// kernels never test frontier membership; each row's products are summed in
// span order.

// PullRows computes each owned row's dot product in a register.
func (m *SpMV) PullRows(_ *graph.Span, _ int, in *graph.Adjacency, lo, hi int) {
	y, x := m.y, m.X
	idx, tgt := in.Index, in.Targets
	for v := lo; v < hi; v++ {
		row := tgt[idx[v]:idx[v+1]]
		ws := in.RowWeights(idx[v], idx[v+1])[:len(row)]
		sum := math.Float64frombits(y[v])
		for j, u := range row {
			sum += float64(ws[j]) * x[u]
		}
		y[v] = math.Float64bits(sum)
	}
}

// PushRows scatters each active column's products atomically.
func (m *SpMV) PushRows(_ *graph.Span, _ int, out *graph.Adjacency, active []graph.VertexID) {
	y, x := m.y, m.X
	idx, tgt := out.Index, out.Targets
	for _, u := range active {
		row := tgt[idx[u]:idx[u+1]]
		ws := out.RowWeights(idx[u], idx[u+1])[:len(row)]
		xu := x[u]
		for j, v := range row {
			atomicAddFloat64(&y[v], float64(ws[j])*xu)
		}
	}
}

// PushEdges applies a flat edge slice: plain read-modify-write when the
// worker owns the destinations, atomic adds otherwise.
func (m *SpMV) PushEdges(s *graph.Span, _ int, edges []graph.Edge) {
	y, x := m.y, m.X
	if !s.Atomic {
		for _, e := range edges {
			y[e.Dst] = math.Float64bits(math.Float64frombits(y[e.Dst]) + float64(e.W)*x[e.Src])
		}
		return
	}
	mirror := s.Mirror
	for _, e := range edges {
		atomicAddFloat64(&y[e.Dst], float64(e.W)*x[e.Src])
		if mirror && e.Src != e.Dst {
			atomicAddFloat64(&y[e.Src], float64(e.W)*x[e.Dst])
		}
	}
}

// PullEdges is PushEdges: every row pulls, and the update is the same.
func (m *SpMV) PullEdges(s *graph.Span, worker int, edges []graph.Edge) {
	m.PushEdges(s, worker, edges)
}

// Result returns the output vector y.
func (m *SpMV) Result() []float64 {
	out := make([]float64, len(m.y))
	for i := range m.y {
		out[i] = loadFloat64(&m.y[i])
	}
	return out
}
