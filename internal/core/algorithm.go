package core

import (
	"sync"

	"github.com/epfl-repro/everythinggraph/internal/graph"
)

// Algorithm is the contract between the engine and a graph algorithm. The
// same algorithm implementation runs under every combination of layout,
// flow and synchronization mode — that is the paper's methodology: isolate
// the technique, keep the algorithm code constant.
//
// State discipline:
//
//   - PushEdge updates the destination's state and is called by the engine
//     only while it guarantees exclusive access to that destination (a held
//     lock, or ownership of the destination range by the calling worker).
//   - PushEdgeAtomic performs the same update using atomic operations and
//     may be called concurrently for the same destination.
//   - PullEdge updates only the *destination's own* state and is called by
//     the engine from the single worker that owns that destination in pull
//     mode, so it needs no synchronization — this is exactly the lock-free
//     advantage of pull mode discussed in Section 6.1.2.
type Algorithm interface {
	// Name identifies the algorithm in results.
	Name() string

	// Init allocates per-vertex state for the graph. It is called once
	// before the first iteration.
	Init(g *graph.Graph)

	// InitialFrontier returns the initially active vertices.
	InitialFrontier(g *graph.Graph) *graph.Frontier

	// Dense reports whether the algorithm processes the whole graph every
	// iteration (PageRank, SpMV, ALS). Dense algorithms skip frontier
	// tracking: the engine feeds them a full frontier each iteration and
	// relies on AfterIteration for termination.
	Dense() bool

	// PushEdge applies the edge (u -> v, w) on behalf of active vertex u,
	// assuming exclusive access to v's state. It returns true if v became
	// newly active for the next iteration.
	PushEdge(u, v graph.VertexID, w graph.Weight) bool

	// PushEdgeAtomic is the atomic variant of PushEdge.
	PushEdgeAtomic(u, v graph.VertexID, w graph.Weight) bool

	// PullActive reports whether destination v still needs to pull during
	// the current iteration (e.g. an undiscovered BFS vertex). The engine
	// skips vertices for which it returns false.
	PullActive(v graph.VertexID) bool

	// PullEdge lets v read u's state (u was active in the previous
	// iteration) and update its own. It returns changed=true if v became
	// newly active for the next iteration and done=true if v needs to scan
	// no further in-edges this iteration (the early-exit optimization of
	// Section 6.1.1).
	PullEdge(v, u graph.VertexID, w graph.Weight) (changed, done bool)

	// BeforeIteration is called at the start of every iteration.
	BeforeIteration(iteration int)

	// AfterIteration is called at the end of every iteration; returning
	// true stops the run (used by fixed-iteration algorithms and by
	// convergence tests). Frontier exhaustion also stops non-dense
	// algorithms.
	AfterIteration(iteration int) (converged bool)
}

// SpanAlgorithm is the engine's one call shape: instead of calling an edge
// function per edge, the engine hands the algorithm a whole chunk of the
// iteration — a CSR row range or a flat edge slice — together with the
// iteration's graph.Span (frontier bitmap, "frontier is full" flag, next
// frontier builder, ownership discipline), and the algorithm runs the loop
// itself with its update inlined.
//
// The per-edge Algorithm methods are enough to be correct: an algorithm that
// implements only them runs through a per-edge adapter that implements this
// interface on its behalf (as does every SyncLocks plan, where the mutex
// dwarfs the call). Implementing SpanAlgorithm as well is what makes an
// algorithm fast; the span methods must then visit each destination's edges
// in span order and leave exactly the state the per-edge methods would.
type SpanAlgorithm interface {
	// PullRows pulls for the destinations [lo, hi) of the in-adjacency: each
	// destination that still needs data reads its in-neighbours that are in
	// the frontier and updates only its own state. lo is a multiple of 64, so
	// the calling worker owns the destinations and their words of the next
	// frontier's bitmap: a kernel gathers the activations of each 64-vertex
	// word in a register and marks them with one s.Next.SetWord.
	PullRows(s *graph.Span, worker int, in *graph.Adjacency, lo, hi int)
	// PushRows pushes the out-edges of every vertex of active (a slice of
	// the frontier's vertex list). CSR rows partition sources, never
	// destinations, so while several workers share the iteration updates
	// are synchronized: atomically by span kernels when s.Atomic, under the
	// stripe locks by the adapter. When s.Atomic is false one goroutine runs
	// the whole iteration (fewer than callerPushEdges active out-edges, or
	// one worker): it owns every destination and every word of the next
	// frontier, so plain stores and s.Next.AddOwned are enough — an atomic
	// update stays correct too.
	PushRows(s *graph.Span, worker int, out *graph.Adjacency, active []graph.VertexID)
	// PushEdges applies, in slice order, every edge whose source is in the
	// frontier (edge-array chunk, grid cell, decoded or streamed cell),
	// honouring s.Atomic and s.Mirror.
	PushEdges(s *graph.Span, worker int, edges []graph.Edge)
	// PullEdges is PushEdges in pull mode: edges whose destination no longer
	// needs data (PullActive) are skipped as well.
	PullEdges(s *graph.Span, worker int, edges []graph.Edge)
}

// perEdge implements SpanAlgorithm for any Algorithm by calling its edge
// functions once per edge: the reference the span kernels are tested
// against, the path of algorithms that ship no span kernels, and the only
// path that takes the stripe locks.
type perEdge struct {
	alg Algorithm
	// locked reports that the executing plan synchronizes with locks; the
	// stripe table is allocated by the first such plan.
	locked bool
	locks  *vertexLocks
}

// push applies u -> v under the span's discipline and records an activation.
func (a *perEdge) push(s *graph.Span, worker int, u, v graph.VertexID, w graph.Weight) {
	var activated bool
	switch {
	case a.locked:
		a.locks.lock(v)
		activated = a.alg.PushEdge(u, v, w)
		a.locks.unlock(v)
	case s.Atomic:
		activated = a.alg.PushEdgeAtomic(u, v, w)
	default:
		activated = a.alg.PushEdge(u, v, w)
	}
	if activated && s.Next != nil {
		s.Next.Add(worker, v)
	}
}

func (a *perEdge) PullRows(s *graph.Span, worker int, in *graph.Adjacency, lo, hi int) {
	alg := a.alg
	idx, tgt := in.Index, in.Targets
	for base := lo; base < hi; base += 64 {
		var next uint64
		for vi := base; vi < min(base+64, hi); vi++ {
			v := graph.VertexID(vi)
			if !alg.PullActive(v) {
				continue
			}
			changedAny := false
			row := tgt[idx[v]:idx[v+1]]
			ws := in.RowWeights(idx[v], idx[v+1])[:len(row)]
			for j, u := range row {
				if !s.Active(u) {
					continue
				}
				changed, done := alg.PullEdge(v, u, ws[j])
				changedAny = changedAny || changed
				if done {
					break
				}
			}
			if changedAny {
				next |= 1 << (v & 63)
			}
		}
		if next != 0 && s.Next != nil {
			s.Next.SetWord(worker, base>>6, next)
		}
	}
}

func (a *perEdge) PushRows(s *graph.Span, worker int, out *graph.Adjacency, active []graph.VertexID) {
	idx, tgt := out.Index, out.Targets
	for _, u := range active {
		row := tgt[idx[u]:idx[u+1]]
		ws := out.RowWeights(idx[u], idx[u+1])[:len(row)]
		for j, v := range row {
			a.push(s, worker, u, v, ws[j])
		}
	}
}

func (a *perEdge) PushEdges(s *graph.Span, worker int, edges []graph.Edge) {
	for _, e := range edges {
		if s.Active(e.Src) {
			a.push(s, worker, e.Src, e.Dst, e.W)
		}
		if s.Mirror && e.Src != e.Dst && s.Active(e.Dst) {
			a.push(s, worker, e.Dst, e.Src, e.W)
		}
	}
}

func (a *perEdge) PullEdges(s *graph.Span, worker int, edges []graph.Edge) {
	alg := a.alg
	// Unowned pull cells synchronize the destination update through the
	// algorithm's push-edge functions, which perform the same state
	// transition under the locks/atomics discipline.
	owned := !s.Atomic && !a.locked
	for _, e := range edges {
		if !s.Active(e.Src) || !alg.PullActive(e.Dst) {
			continue
		}
		if !owned {
			a.push(s, worker, e.Src, e.Dst, e.W)
		} else if changed, _ := alg.PullEdge(e.Dst, e.Src, e.W); changed && s.Next != nil {
			s.Next.Add(worker, e.Dst)
		}
	}
}

// Rooted is implemented by single-source algorithms (BFS, SSSP), whose Init
// indexes per-vertex state with the root: Run and RunStreamed reject a root
// outside the graph before Init, as Batch rejects its sources.
type Rooted interface {
	Root() graph.VertexID
}

// ParallelFunc runs body over [begin, end) in chunks of chunk on at most p
// workers, handing each invocation a dense worker id < p. It is the shape of
// sched.ParallelForWorker and of a lease's ParallelForWorker (a type alias,
// so implementations never import this package).
type ParallelFunc = func(begin, end, chunk, p int, body func(worker, lo, hi int))

// RunBound is implemented by algorithms whose state or per-iteration hooks
// depend on the run's parallelism: PageRank's vertex sweeps, SSSP's
// per-worker slots. The engine calls BindRun before Init with the run's
// worker count and its loop executor — for a leased run the lease's own.
// Without them a Workers=1 run would still sweep on all CPUs and corrupt
// worker-scaling measurements, and a leased run's sweeps would escape onto
// the process-wide pool and contend with whatever runs there.
type RunBound interface {
	BindRun(workers int, pfor ParallelFunc)
}

// lockStripes is the number of striped destination locks used by SyncLocks.
// Striping bounds memory while keeping the collision probability between
// concurrently updated destinations negligible.
const lockStripes = 1 << 14

// vertexLocks is the striped lock table used when Config.Sync == SyncLocks.
type vertexLocks struct {
	locks [lockStripes]sync.Mutex
}

func newVertexLocks() *vertexLocks { return &vertexLocks{} }

// lock acquires the stripe of vertex v.
func (l *vertexLocks) lock(v graph.VertexID) { l.locks[v&(lockStripes-1)].Lock() }

// unlock releases the stripe of vertex v.
func (l *vertexLocks) unlock(v graph.VertexID) { l.locks[v&(lockStripes-1)].Unlock() }
