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
// The engine never calls an edge function per edge on its fast paths: it
// hands the algorithm a whole chunk of the iteration — a CSR row range or a
// flat edge slice — together with the iteration's graph.Span (frontier
// bitmap, "frontier is full" flag, next-frontier builder, ownership
// discipline), and the algorithm's span kernel runs the loop with its update
// inlined.
//
// State discipline:
//
//   - PullRows updates only the state of the destinations [lo, hi), which
//     the calling worker owns whatever the plan's sync mode, so it needs no
//     synchronization — the lock-free advantage of pull mode discussed in
//     Section 6.1.2.
//   - PushRows, PushEdges and PullEdges own their destinations exactly when
//     s.Atomic is false (a grid column, a streamed column, or one goroutine
//     running the whole iteration); otherwise other workers update the same
//     destinations concurrently and the kernels update atomically.
//   - PushEdge updates one destination and is called only under SyncLocks,
//     by the engine's push paths, while the destination's stripe lock is
//     held.
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

	// PullRows pulls for the destinations [lo, hi) of the in-adjacency: each
	// destination that still needs data reads its in-neighbours that are in
	// the frontier and updates only its own state. lo is a multiple of 64, so
	// the calling worker owns the destinations and their words of the next
	// frontier's bitmap: a kernel gathers the activations of each 64-vertex
	// word in a register and marks them with one s.Next.SetWord.
	PullRows(s *graph.Span, worker int, in *graph.Adjacency, lo, hi int)
	// PushRows pushes the out-edges of every vertex of active (a slice of
	// the frontier's vertex list). CSR rows partition sources, never
	// destinations, so while several workers share the iteration
	// (s.Atomic) updates are atomic. When s.Atomic is false one goroutine
	// runs the whole iteration (fewer than callerPushEdges active out-edges,
	// or one worker): it owns every destination and every word of the next
	// frontier, so plain stores and s.Next.AddOwned are enough — an atomic
	// update stays correct too.
	PushRows(s *graph.Span, worker int, out *graph.Adjacency, active []graph.VertexID)
	// PushEdges applies, in slice order, every edge whose source is in the
	// frontier (edge-array chunk, grid cell, decoded or streamed cell),
	// honouring s.Atomic and s.Mirror.
	PushEdges(s *graph.Span, worker int, edges []graph.Edge)
	// PullEdges is PushEdges in pull mode: each destination that still needs
	// data takes the update from its active in-neighbours in slice order.
	PullEdges(s *graph.Span, worker int, edges []graph.Edge)

	// PushEdge applies the edge (u -> v, w) on behalf of active vertex u. It
	// returns true if v became newly active for the next iteration. Only the
	// SyncLocks push paths call it, holding v's stripe lock, so it may
	// assume exclusive access to v's state; it must do nothing for a
	// destination that no longer needs data, because those paths run the
	// grid's pull cells through it too.
	PushEdge(u, v graph.VertexID, w graph.Weight) bool

	// BeforeIteration is called at the start of every iteration.
	BeforeIteration(iteration int)

	// AfterIteration is called at the end of every iteration; returning
	// true stops the run (used by fixed-iteration algorithms and by
	// convergence tests). Frontier exhaustion also stops non-dense
	// algorithms.
	AfterIteration(iteration int) (converged bool)
}

// lockedPush runs an iteration's push updates under SyncLocks (the "locks"
// configurations of Figures 7 and 8): one PushEdge call per edge, inside the
// destination's stripe lock. Pull rows own their destinations, so PullRows
// is the algorithm's own, through the embedded Algorithm.
type lockedPush struct {
	Algorithm
	locks *vertexLocks
}

// push applies u -> v under v's stripe lock and records an activation.
func (a *lockedPush) push(s *graph.Span, worker int, u, v graph.VertexID, w graph.Weight) {
	a.locks.lock(v)
	activated := a.PushEdge(u, v, w)
	a.locks.unlock(v)
	if activated && s.Next != nil {
		s.Next.Add(worker, v)
	}
}

func (a *lockedPush) PushRows(s *graph.Span, worker int, out *graph.Adjacency, active []graph.VertexID) {
	idx, tgt := out.Index, out.Targets
	for _, u := range active {
		row := tgt[idx[u]:idx[u+1]]
		ws := out.RowWeights(idx[u], idx[u+1])[:len(row)]
		for j, v := range row {
			a.push(s, worker, u, v, ws[j])
		}
	}
}

func (a *lockedPush) PushEdges(s *graph.Span, worker int, edges []graph.Edge) {
	for _, e := range edges {
		if s.Active(e.Src) {
			a.push(s, worker, e.Src, e.Dst, e.W)
		}
		if s.Mirror && e.Src != e.Dst && s.Active(e.Dst) {
			a.push(s, worker, e.Dst, e.Src, e.W)
		}
	}
}

// PullEdges runs a grid pull cell as locked pushes from its active sources
// (grid spans are never mirrored). Pulling skips a destination that needs no
// more data; every PushEdge already leaves such a destination alone — BFS a
// vertex with a parent, ALS a vertex off the side being updated, and
// PageRank, SpMV, SSSP and WCC have none — so the push is the pull.
func (a *lockedPush) PullEdges(s *graph.Span, worker int, edges []graph.Edge) {
	a.PushEdges(s, worker, edges)
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
