package algorithms

import (
	"math"

	"github.com/epfl-repro/everythinggraph/internal/graph"
)

// SSSP computes single-source shortest paths with a frontier-driven
// relaxation: active vertices relax their outgoing edges and activate any
// destination whose distance improved. It behaves like BFS with the
// difference the paper highlights in Section 8: a vertex can be updated many
// times, so both the iteration count and the per-iteration frontier sizes
// are larger.
//
// The push span kernels bound how many times by delta-stepping (Meyer &
// Sanders, J. Algorithms 2003): they relax only the active vertices whose
// distance is below the current bucket bound and keep the others in the
// frontier unrelaxed, so a vertex mostly relaxes once its distance is close
// to final. When an iteration leaves only vertices at or beyond the bound —
// the least distance added to the next frontier is no smaller — the bucket
// is settled and the bound moves to the end of the bucket of width Δ holding
// that distance. Δ is ssspDeltaWeights times the largest edge weight; with
// no positive finite weight the bound is +Inf and every active vertex
// relaxes (plain frontier Bellman-Ford, as the pull kernels and the locked
// pushes of SyncLocks always run).
//
// The result does not depend on the bound or the relax order: no vertex
// leaves the frontier with an unrelaxed distance, so every order reaches the
// same fixpoint — each distance is the least float32 path sum, bit for bit.
type SSSP struct {
	// Source is the origin of the paths.
	Source graph.VertexID

	// dist holds the tentative distances as float32 bit patterns so the
	// atomic edge functions can CAS them.
	dist []uint32

	// delta is the bucket width Δ and bound the end of the open bucket: the
	// push kernels defer an active vertex whose distance is at or beyond it.
	delta, bound float32
	// least holds, per worker, the least distance it added to the next
	// frontier this iteration (+Inf if none); AfterIteration reads and
	// resets it.
	least []leastDist
}

// ssspDeltaWeights is Δ in units of the largest edge weight. Swept on
// warm.sssp.road (2 CPUs, weights 1–9), two runs each, s per op: 1 →
// 0.104–0.109, 2 → 0.086–0.098, 4 → 0.089–0.096, 8 → 0.095–0.103,
// 16 → 0.102–0.113, 32 → 0.148 (Bellman-Ford: 0.79). Narrower buckets add
// iterations, wider ones relaxations; 4 sits inside the flat range.
const ssspDeltaWeights = 4

// leastDist is a worker's least-distance slot, alone on a 128-byte block
// like the frontier builder's per-worker lists.
type leastDist struct {
	d float32
	_ [124]byte
}

var inf32 = float32(math.Inf(1))

// NewSSSP creates an SSSP instance rooted at source.
func NewSSSP(source graph.VertexID) *SSSP { return &SSSP{Source: source} }

// Name implements Algorithm.
func (s *SSSP) Name() string { return "sssp" }

// Root implements the engine's Rooted extension.
func (s *SSSP) Root() graph.VertexID { return s.Source }

// Dense implements Algorithm.
func (s *SSSP) Dense() bool { return false }

// BindRun implements the engine's RunBound extension: the span kernels are
// handed worker ids below workers, one least-distance slot each. SSSP runs
// no loops of its own, so it ignores the executor. It must precede Init.
func (s *SSSP) BindRun(workers int, _ func(begin, end, chunk, p int, body func(worker, lo, hi int))) {
	if len(s.least) != workers {
		s.least = make([]leastDist, workers)
	}
}

// Init implements Algorithm. The largest weight is scanned once per edge
// array, not once per run.
func (s *SSSP) Init(g *graph.Graph) {
	n := g.NumVertices()
	s.dist = make([]uint32, n)
	inf := math.Float32bits(inf32)
	for v := range s.dist {
		s.dist[v] = inf
	}
	storeFloat32(&s.dist[s.Source], 0)
	for i := range s.least {
		s.least[i].d = inf32
	}
	s.delta = ssspDeltaWeights * g.EdgeArray.SharedMaxWeight()
	s.bound = s.delta
	if !(s.delta > 0) || math.IsInf(float64(s.delta), 1) {
		s.bound = inf32
	}
}

// InitialFrontier implements Algorithm.
func (s *SSSP) InitialFrontier(g *graph.Graph) *graph.Frontier {
	return graph.NewFrontierFromSparse(g.NumVertices(), []graph.VertexID{s.Source})
}

// BeforeIteration implements Algorithm.
func (s *SSSP) BeforeIteration(int) {}

// AfterIteration implements Algorithm: relaxation stops when no distance
// improves (empty frontier). If the least distance added to the next
// frontier is at or beyond the bound, the open bucket is settled and the
// one holding that distance opens; an iteration that added nothing through
// the span kernels leaves the bound where it is.
func (s *SSSP) AfterIteration(int) bool {
	m := inf32
	for i := range s.least {
		m = min(m, s.least[i].d)
		s.least[i].d = inf32
	}
	if m >= s.bound && m < inf32 {
		b := float32((math.Floor(float64(m)/float64(s.delta)) + 1) * float64(s.delta))
		// Past 2^24 widths, b can round down to m, which would defer m's
		// vertex forever.
		s.bound = max(b, math.Nextafter32(m, inf32))
	}
	return false
}

// PushEdge implements Algorithm: relax u -> v.
func (s *SSSP) PushEdge(u, v graph.VertexID, w graph.Weight) bool {
	nd := loadFloat32(&s.dist[u]) + float32(w)
	if nd < loadFloat32(&s.dist[v]) {
		storeFloat32(&s.dist[v], nd)
		return true
	}
	return false
}

// Span kernels (the engine's Algorithm contract). A distance is read as
// a source by other workers while its owner lowers it, so every access to
// dist stays atomic — except in push rows that one goroutine runs alone,
// where there is no other reader; what the kernels save is the call per
// edge, the reload of the destination's own distance, and the store on
// edges that do not improve it.

// PullRows relaxes each owned destination over its active in-neighbours,
// keeping its tentative distance in a register. Improvements are stored as
// they happen, so a self-loop reads the improved distance. The
// improved destinations of each 64-vertex word are marked with one SetWord.
func (s *SSSP) PullRows(sp *graph.Span, worker int, in *graph.Adjacency, lo, hi int) {
	dist := s.dist
	idx, tgt := in.Index, in.Targets
	for base := lo; base < hi; base += 64 {
		var next uint64
		for v := base; v < min(base+64, hi); v++ {
			row := tgt[idx[v]:idx[v+1]]
			ws := in.RowWeights(idx[v], idx[v+1])[:len(row)]
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
				next |= 1 << (v & 63)
			}
		}
		if next != 0 {
			sp.Next.SetWord(worker, base>>6, next)
		}
	}
}

// PushRows relaxes the out-edges of the active vertices below the bound and
// puts the others back in the frontier. A source's distance is read once
// per row: a worker that lowers it meanwhile adds the vertex to the next
// frontier, so it is relaxed again with the new value. A synchronized span
// relaxes with atomic minima; an unsynchronized one — the whole iteration on
// this goroutine — with plain stores and the frontier builder's owned add.
func (s *SSSP) PushRows(sp *graph.Span, worker int, out *graph.Adjacency, active []graph.VertexID) {
	dist, bound, owned := s.dist, s.bound, !sp.Atomic
	least := s.least[worker].d
	idx, tgt := out.Index, out.Targets
	for _, u := range active {
		du := loadFloat32(&dist[u])
		if du >= bound {
			if owned {
				sp.Next.AddOwned(worker, u)
			} else {
				sp.Next.Add(worker, u)
			}
			least = min(least, du)
			continue
		}
		row := tgt[idx[u]:idx[u+1]]
		ws := out.RowWeights(idx[u], idx[u+1])[:len(row)]
		for j, v := range row {
			nd := du + ws[j]
			if owned {
				if nd < math.Float32frombits(dist[v]) {
					dist[v] = math.Float32bits(nd)
					sp.Next.AddOwned(worker, v)
					least = min(least, nd)
				}
			} else if atomicMinFloat32(&dist[v], nd) {
				sp.Next.Add(worker, v)
				least = min(least, nd)
			}
		}
	}
	s.least[worker].d = least
}

// PushEdges relaxes a flat edge slice, deferring sources beyond the bound.
func (s *SSSP) PushEdges(sp *graph.Span, worker int, edges []graph.Edge) {
	s.relaxEdges(sp, worker, edges, s.bound)
}

// PullEdges relaxes like PushEdges, without a bound: every vertex may still
// improve, and pulling over an edge is the same relaxation.
func (s *SSSP) PullEdges(sp *graph.Span, worker int, edges []graph.Edge) {
	s.relaxEdges(sp, worker, edges, inf32)
}

// relaxEdges relaxes every edge of the slice whose active source is below
// bound and re-adds the active sources at or beyond it; a source with no
// edge in the slice is left to the spans that hold its edges.
func (s *SSSP) relaxEdges(sp *graph.Span, worker int, edges []graph.Edge, bound float32) {
	dist := s.dist
	least := s.least[worker].d
	if !sp.Atomic {
		for _, e := range edges {
			if !sp.Active(e.Src) {
				continue
			}
			du := loadFloat32(&dist[e.Src])
			if du >= bound {
				sp.Next.Add(worker, e.Src)
				least = min(least, du)
			} else if nd := du + e.W; nd < loadFloat32(&dist[e.Dst]) {
				storeFloat32(&dist[e.Dst], nd)
				sp.Next.Add(worker, e.Dst)
				least = min(least, nd)
			}
		}
		s.least[worker].d = least
		return
	}
	// relax applies u -> v for an active u with atomic minima.
	relax := func(u, v graph.VertexID, w graph.Weight) {
		du := loadFloat32(&dist[u])
		if du >= bound {
			sp.Next.Add(worker, u)
			least = min(least, du)
		} else if nd := du + w; atomicMinFloat32(&dist[v], nd) {
			sp.Next.Add(worker, v)
			least = min(least, nd)
		}
	}
	for _, e := range edges {
		if sp.Active(e.Src) {
			relax(e.Src, e.Dst, e.W)
		}
		if sp.Mirror && e.Src != e.Dst && sp.Active(e.Dst) {
			relax(e.Dst, e.Src, e.W)
		}
	}
	s.least[worker].d = least
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
