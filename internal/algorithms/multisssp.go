package algorithms

import (
	"math"
	"math/bits"

	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/sched"
)

// MultiSSSP batches up to 64 single-source shortest-path computations into
// one frontier-driven Bellman-Ford run, the label-correcting sibling of
// MultiBFS: each source owns one bit of the per-vertex frontier masks, the
// engine processes the union frontier, and scanning one edge relaxes it for
// every source whose bit is active on the origin. Unlike MultiBFS there is
// no Visited mask — a distance can improve repeatedly, so improved sources
// simply re-enter the Next mask. Like MultiBFS it runs through the engine's
// per-edge adapter until a benchmark/ workload runs it.
type MultiSSSP struct {
	// Sources are the batch's origins, one bit each; at most
	// graph.MaxMultiWidth.
	Sources []graph.VertexID

	// dist holds the tentative distances as float32 bit patterns, indexed
	// [int(v)*k + s], so the atomic edge functions can CAS per pair.
	dist []uint32

	mf      *graph.MultiFrontier
	k       int
	n       int
	workers int
	pfor    func(begin, end, chunk, p int, body func(worker, lo, hi int))
	advBody func(worker, lo, hi int)
}

// NewMultiSSSP creates a batched SSSP over the given origins.
func NewMultiSSSP(sources []graph.VertexID) *MultiSSSP {
	return &MultiSSSP{Sources: sources}
}

// Name implements Algorithm.
func (s *MultiSSSP) Name() string { return "multi-sssp" }

// Dense implements Algorithm.
func (s *MultiSSSP) Dense() bool { return false }

// MultiSource implements the engine's MultiSourceAlgorithm extension.
func (s *MultiSSSP) MultiSource() int { return len(s.Sources) }

// SetWorkers implements WorkerBound for the AfterIteration mask sweep.
func (s *MultiSSSP) SetWorkers(p int) { s.workers = p }

// SetParallelFor implements ParallelBound.
func (s *MultiSSSP) SetParallelFor(pfor func(begin, end, chunk, p int, body func(worker, lo, hi int))) {
	s.pfor = pfor
}

// Init implements Algorithm.
func (s *MultiSSSP) Init(g *graph.Graph) {
	s.k = len(s.Sources)
	s.n = g.NumVertices()
	s.mf = graph.NewMultiFrontier(s.n, s.k)
	s.dist = make([]uint32, s.n*s.k)
	inf := math.Float32bits(float32(math.Inf(1)))
	for i := range s.dist {
		s.dist[i] = inf
	}
	for src, v := range s.Sources {
		s.mf.Seed(v, src)
		s.dist[int(v)*s.k+src] = 0
	}
	s.advBody = func(_, lo, hi int) { s.mf.ShiftRange(lo, hi) }
}

// InitialFrontier implements Algorithm: the union of the origins.
func (s *MultiSSSP) InitialFrontier(g *graph.Graph) *graph.Frontier {
	uniq := make([]graph.VertexID, 0, len(s.Sources))
	seen := make(map[graph.VertexID]bool, len(s.Sources))
	for _, src := range s.Sources {
		if !seen[src] {
			seen[src] = true
			uniq = append(uniq, src)
		}
	}
	return graph.NewFrontierFromSparse(g.NumVertices(), uniq)
}

// BeforeIteration implements Algorithm.
func (s *MultiSSSP) BeforeIteration(int) {}

// AfterIteration implements Algorithm: shift Next to Cur (no Visited fold —
// label correction re-activates vertices). The engine stops when the union
// frontier drains, i.e. no source improved any distance.
func (s *MultiSSSP) AfterIteration(int) bool {
	if s.pfor != nil {
		s.pfor(0, s.n, hookChunk, s.workers, s.advBody)
	} else {
		sched.ParallelForWorker(0, s.n, hookChunk, s.workers, s.advBody)
	}
	return false
}

// PushEdge implements Algorithm: with exclusive access to v, relax u -> v
// for every source active on u.
func (s *MultiSSSP) PushEdge(u, v graph.VertexID, w graph.Weight) bool {
	mu := s.mf.Cur[u]
	if mu == 0 {
		return false
	}
	ubase, vbase := int(u)*s.k, int(v)*s.k
	var improved uint64
	for mm := mu; mm != 0; mm &= mm - 1 {
		sb := bits.TrailingZeros64(mm)
		// v's entries are written exclusively here, but other workers read
		// them as relaxation origins, so the store stays atomic (exactly as
		// in single-source SSSP).
		nd := loadFloat32(&s.dist[ubase+sb]) + float32(w)
		if nd < loadFloat32(&s.dist[vbase+sb]) {
			storeFloat32(&s.dist[vbase+sb], nd)
			improved |= uint64(1) << sb
		}
	}
	if improved == 0 {
		return false
	}
	s.mf.Fresh(v, improved)
	return true
}

// PushEdgeAtomic implements Algorithm: per-pair atomic minimum, then one
// atomic OR activates the improved sources.
func (s *MultiSSSP) PushEdgeAtomic(u, v graph.VertexID, w graph.Weight) bool {
	mu := s.mf.Cur[u]
	if mu == 0 {
		return false
	}
	ubase, vbase := int(u)*s.k, int(v)*s.k
	var improved uint64
	for mm := mu; mm != 0; mm &= mm - 1 {
		sb := bits.TrailingZeros64(mm)
		nd := loadFloat32(&s.dist[ubase+sb]) + float32(w)
		if atomicMinFloat32(&s.dist[vbase+sb], nd) {
			improved |= uint64(1) << sb
		}
	}
	if improved == 0 {
		return false
	}
	s.mf.FreshAtomic(v, improved)
	return true
}

// PullActive implements Algorithm: every vertex may still improve.
func (s *MultiSSSP) PullActive(graph.VertexID) bool { return true }

// PullEdge implements Algorithm: v relaxes over the active in-neighbour u
// for every source active on u.
func (s *MultiSSSP) PullEdge(v, u graph.VertexID, w graph.Weight) (bool, bool) {
	mu := s.mf.Cur[u]
	if mu == 0 {
		return false, false
	}
	ubase, vbase := int(u)*s.k, int(v)*s.k
	var improved uint64
	for mm := mu; mm != 0; mm &= mm - 1 {
		sb := bits.TrailingZeros64(mm)
		nd := loadFloat32(&s.dist[ubase+sb]) + float32(w)
		if nd < loadFloat32(&s.dist[vbase+sb]) {
			storeFloat32(&s.dist[vbase+sb], nd)
			improved |= uint64(1) << sb
		}
	}
	if improved == 0 {
		return false, false
	}
	s.mf.Fresh(v, improved)
	return true, false
}

// Distance returns source s's computed distance to v (+Inf if unreachable).
func (s *MultiSSSP) Distance(src int, v graph.VertexID) float32 {
	return loadFloat32(&s.dist[int(v)*s.k+src])
}

// Distances copies source src's distances into a new slice.
func (s *MultiSSSP) Distances(src int) []float32 {
	out := make([]float32, s.n)
	for v := range out {
		out[v] = loadFloat32(&s.dist[v*s.k+src])
	}
	return out
}

// Reached counts the vertices source src reaches.
func (s *MultiSSSP) Reached(src int) int {
	count := 0
	for v := 0; v < s.n; v++ {
		if !math.IsInf(float64(loadFloat32(&s.dist[v*s.k+src])), 1) {
			count++
		}
	}
	return count
}
