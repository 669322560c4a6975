package algorithms

import (
	"sync/atomic"

	"github.com/epfl-repro/everythinggraph/internal/graph"
)

// WCC computes weakly connected components by label propagation: every
// vertex starts with its own id as label and repeatedly adopts the minimum
// label among its neighbours; vertices whose label changed stay active.
// WCC runs on the undirected view of the graph (Section 8), which is what
// makes adjacency-list pre-processing expensive for it (edges must be
// inserted at both endpoints) and edge arrays attractive on low-diameter
// graphs.
type WCC struct {
	// Labels[v] is the component label of v (the minimum vertex id of the
	// component once converged).
	Labels []uint32
}

// NewWCC creates a WCC instance.
func NewWCC() *WCC { return &WCC{} }

// Name implements Algorithm.
func (w *WCC) Name() string { return "wcc" }

// Dense implements Algorithm: only vertices whose label changed stay active.
func (w *WCC) Dense() bool { return false }

// Init implements Algorithm.
func (w *WCC) Init(g *graph.Graph) {
	n := g.NumVertices()
	w.Labels = make([]uint32, n)
	for v := range w.Labels {
		w.Labels[v] = uint32(v)
	}
}

// InitialFrontier implements Algorithm: every vertex is initially active.
func (w *WCC) InitialFrontier(g *graph.Graph) *graph.Frontier {
	n := g.NumVertices()
	all := make([]graph.VertexID, n)
	for v := range all {
		all[v] = graph.VertexID(v)
	}
	return graph.NewFrontierFromSparse(n, all)
}

// BeforeIteration implements Algorithm.
func (w *WCC) BeforeIteration(int) {}

// AfterIteration implements Algorithm: label propagation stops when the
// frontier drains.
func (w *WCC) AfterIteration(int) bool { return false }

// PushEdge implements Algorithm: propagate u's label to v if smaller.
func (w *WCC) PushEdge(u, v graph.VertexID, _ graph.Weight) bool {
	lu := atomic.LoadUint32(&w.Labels[u])
	if lu < atomic.LoadUint32(&w.Labels[v]) {
		atomic.StoreUint32(&w.Labels[v], lu)
		return true
	}
	return false
}

// Span kernels (the engine's Algorithm contract). A label is read as a
// source by other workers while its owner lowers it, so every access to
// Labels stays atomic; what the kernels save is the call per edge, the
// reload of the destination's own label, and the store on edges that do not
// lower it.

// PullRows lowers each owned destination's label over its active
// in-neighbours, keeping the label in a register. Improvements are stored
// as they happen, so a self-loop reads the lowered label. The
// changed destinations of each 64-vertex word are marked with one SetWord.
func (w *WCC) PullRows(s *graph.Span, worker int, in *graph.Adjacency, lo, hi int) {
	labels := w.Labels
	idx, tgt := in.Index, in.Targets
	for base := lo; base < hi; base += 64 {
		var next uint64
		for v := base; v < min(base+64, hi); v++ {
			cur := atomic.LoadUint32(&labels[v])
			changed := false
			for _, u := range tgt[idx[v]:idx[v+1]] {
				if !s.Active(u) {
					continue
				}
				if lu := atomic.LoadUint32(&labels[u]); lu < cur {
					cur, changed = lu, true
					atomic.StoreUint32(&labels[v], lu)
				}
			}
			if changed {
				next |= 1 << (v & 63)
			}
		}
		if next != 0 {
			s.Next.SetWord(worker, base>>6, next)
		}
	}
}

// PushRows propagates the active vertices' labels with atomic minima.
func (w *WCC) PushRows(s *graph.Span, worker int, out *graph.Adjacency, active []graph.VertexID) {
	labels := w.Labels
	idx, tgt := out.Index, out.Targets
	for _, u := range active {
		for _, v := range tgt[idx[u]:idx[u+1]] {
			if atomicMinUint32(&labels[v], atomic.LoadUint32(&labels[u])) {
				s.Next.Add(worker, v)
			}
		}
	}
}

// PushEdges propagates labels over a flat edge slice.
func (w *WCC) PushEdges(s *graph.Span, worker int, edges []graph.Edge) {
	labels := w.Labels
	if !s.Atomic {
		for _, e := range edges {
			if !s.Active(e.Src) {
				continue
			}
			if lu := atomic.LoadUint32(&labels[e.Src]); lu < atomic.LoadUint32(&labels[e.Dst]) {
				atomic.StoreUint32(&labels[e.Dst], lu)
				s.Next.Add(worker, e.Dst)
			}
		}
		return
	}
	for _, e := range edges {
		if s.Active(e.Src) && atomicMinUint32(&labels[e.Dst], atomic.LoadUint32(&labels[e.Src])) {
			s.Next.Add(worker, e.Dst)
		}
		if s.Mirror && e.Src != e.Dst && s.Active(e.Dst) && atomicMinUint32(&labels[e.Src], atomic.LoadUint32(&labels[e.Dst])) {
			s.Next.Add(worker, e.Src)
		}
	}
}

// PullEdges is PushEdges: every vertex may still improve, and pulling over
// an edge is the same minimum.
func (w *WCC) PullEdges(s *graph.Span, worker int, edges []graph.Edge) {
	w.PushEdges(s, worker, edges)
}

// NumComponents counts the distinct labels after convergence.
func (w *WCC) NumComponents() int {
	seen := make(map[uint32]struct{})
	for _, l := range w.Labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}

// ComponentSizes returns the size of each component keyed by its label.
func (w *WCC) ComponentSizes() map[uint32]int {
	sizes := make(map[uint32]int)
	for _, l := range w.Labels {
		sizes[l]++
	}
	return sizes
}
