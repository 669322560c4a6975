package algorithms

import (
	"math/bits"

	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/sched"
)

// MultiBFS runs up to 64 breadth-first traversals in one engine run (the
// MS-BFS idea): each source owns one bit of a per-vertex mask word, the
// frontier handed to the engine is the UNION of the per-source frontiers,
// and a single scan of an active vertex's edges advances every traversal
// whose bit is set. The per-edge work is a handful of word operations
// regardless of how many of the 64 sources are active on it, which is where
// the batch's ns per (source x edge) win over sequential runs comes from.
//
// MultiBFS is an ordinary core.Algorithm — it runs under every layout, flow
// and synchronization combination, streamed or resident, and the planner
// sees the batch width through the MultiSource extension (the "x<k>" plan
// label), so batched sweeps keep their own measured costs. It ships no span
// kernels and runs through the engine's per-edge adapter until a
// benchmark/ workload runs it.
type MultiBFS struct {
	// Sources are the batch's roots, one traversal (and one mask bit) each;
	// at most graph.MaxMultiWidth. Duplicates are allowed and produce
	// identical per-source trees.
	Sources []graph.VertexID

	// Parent and Level are the per-(vertex, source) results, indexed
	// [int(v)*k + s] for batch width k: the BFS-tree parent of v in source
	// s's traversal (-1 if unreached; a root is its own parent) and the
	// depth of v (-1 if unreached). Levels are deterministic across every
	// plan; parents are valid but plan-dependent, exactly as for BFS.
	Parent []int32
	Level  []int32

	// Sweeps, when positive, switches the run to classic level-synchronous
	// full sweeps: every iteration scans the whole vertex set (discovery
	// still gated by the per-source masks, so results are unchanged) and
	// exactly Sweeps iterations execute, converged or not. Query serving
	// leaves it zero — frontier-driven, stopping when the union frontier
	// drains; the perf suite uses it to measure the steady-state cost of
	// one multi-source sweep with the PageRank-style Iterations=b.N idiom.
	Sweeps int

	mf       *graph.MultiFrontier
	k        int
	n        int
	curLevel int32
	workers  int
	pfor     func(begin, end, chunk, p int, body func(worker, lo, hi int))
	advBody  func(worker, lo, hi int)
}

// NewMultiBFS creates a batched BFS over the given roots.
func NewMultiBFS(sources []graph.VertexID) *MultiBFS {
	return &MultiBFS{Sources: sources}
}

// Name implements Algorithm.
func (b *MultiBFS) Name() string { return "multi-bfs" }

// Dense implements Algorithm: like BFS, only the frontier is processed —
// unless fixed full sweeps were requested (see Sweeps).
func (b *MultiBFS) Dense() bool { return b.Sweeps > 0 }

// MultiSource implements the engine's MultiSourceAlgorithm extension.
func (b *MultiBFS) MultiSource() int { return len(b.Sources) }

// SetWorkers implements WorkerBound for the AfterIteration mask sweep.
func (b *MultiBFS) SetWorkers(p int) { b.workers = p }

// SetParallelFor implements ParallelBound: the mask sweep runs on the
// engine's loop executor (a lease's, for leased runs).
func (b *MultiBFS) SetParallelFor(pfor func(begin, end, chunk, p int, body func(worker, lo, hi int))) {
	b.pfor = pfor
}

// Init implements Algorithm.
func (b *MultiBFS) Init(g *graph.Graph) {
	b.k = len(b.Sources)
	b.n = g.NumVertices()
	b.mf = graph.NewMultiFrontier(b.n, b.k)
	b.Parent = make([]int32, b.n*b.k)
	b.Level = make([]int32, b.n*b.k)
	for i := range b.Parent {
		b.Parent[i] = -1
		b.Level[i] = -1
	}
	for s, src := range b.Sources {
		b.mf.Seed(src, s)
		b.mf.Visited[src] |= uint64(1) << s
		b.Parent[int(src)*b.k+s] = int32(src)
		b.Level[int(src)*b.k+s] = 0
	}
	b.curLevel = 0
	b.advBody = func(_, lo, hi int) { b.mf.AdvanceRange(lo, hi) }
}

// InitialFrontier implements Algorithm: the union of the roots (the whole
// vertex set in Sweeps mode, where iterations are full scans).
func (b *MultiBFS) InitialFrontier(g *graph.Graph) *graph.Frontier {
	if b.Sweeps > 0 {
		return graph.FullFrontier(g.NumVertices())
	}
	uniq := make([]graph.VertexID, 0, len(b.Sources))
	seen := make(map[graph.VertexID]bool, len(b.Sources))
	for _, src := range b.Sources {
		if !seen[src] {
			seen[src] = true
			uniq = append(uniq, src)
		}
	}
	return graph.NewFrontierFromSparse(g.NumVertices(), uniq)
}

// BeforeIteration implements Algorithm.
func (b *MultiBFS) BeforeIteration(iteration int) {
	b.curLevel = int32(iteration + 1)
}

// AfterIteration implements Algorithm: retire the iteration's Next masks
// into Cur/Visited with a vertex-parallel sweep. The engine stops the run
// when the union frontier drains (or, in Sweeps mode, after exactly Sweeps
// full scans).
func (b *MultiBFS) AfterIteration(iteration int) bool {
	if b.pfor != nil {
		b.pfor(0, b.n, hookChunk, b.workers, b.advBody)
	} else {
		sched.ParallelForWorker(0, b.n, hookChunk, b.workers, b.advBody)
	}
	return b.Sweeps > 0 && iteration+1 >= b.Sweeps
}

// record writes the (parent, level) payload for every source bit in fresh —
// each (v, s) pair is claimed exactly once (see FreshAtomic), so the plain
// stores are race-free.
func (b *MultiBFS) record(u, v graph.VertexID, fresh uint64) {
	base := int(v) * b.k
	for mm := fresh; mm != 0; mm &= mm - 1 {
		s := bits.TrailingZeros64(mm)
		b.Parent[base+s] = int32(u)
		b.Level[base+s] = b.curLevel
	}
}

// PushEdge implements Algorithm: with exclusive access to v, discover v for
// every source that has u on its current frontier and has not seen v.
func (b *MultiBFS) PushEdge(u, v graph.VertexID, _ graph.Weight) bool {
	m := b.mf.Cur[u] &^ b.mf.Pending(v)
	if m == 0 {
		return false
	}
	fresh := b.mf.Fresh(v, m)
	if fresh == 0 {
		return false
	}
	b.record(u, v, fresh)
	return true
}

// PushEdgeAtomic implements Algorithm: one atomic OR claims v's undiscovered
// source bits, and only the claiming worker writes each pair's payload.
func (b *MultiBFS) PushEdgeAtomic(u, v graph.VertexID, _ graph.Weight) bool {
	m := b.mf.Cur[u] &^ b.mf.PendingAtomic(v)
	if m == 0 {
		return false
	}
	fresh := b.mf.FreshAtomic(v, m)
	if fresh == 0 {
		return false
	}
	b.record(u, v, fresh)
	return true
}

// PullActive implements Algorithm: v pulls while some source has not
// discovered it.
func (b *MultiBFS) PullActive(v graph.VertexID) bool {
	return b.mf.Pending(v) != b.mf.AllMask()
}

// PullEdge implements Algorithm: v adopts u for every source that reaches it
// and stops scanning once every source has it (the batched form of BFS's
// pull early exit).
func (b *MultiBFS) PullEdge(v, u graph.VertexID, _ graph.Weight) (changed, done bool) {
	m := b.mf.Cur[u] &^ b.mf.Pending(v)
	if m == 0 {
		return false, b.mf.Pending(v) == b.mf.AllMask()
	}
	b.mf.Fresh(v, m)
	b.record(u, v, m)
	return true, b.mf.Pending(v) == b.mf.AllMask()
}

// ParentOf returns v's parent in source s's traversal (-1 if unreached).
func (b *MultiBFS) ParentOf(s int, v graph.VertexID) int32 { return b.Parent[int(v)*b.k+s] }

// LevelOf returns v's depth in source s's traversal (-1 if unreached).
func (b *MultiBFS) LevelOf(s int, v graph.VertexID) int32 { return b.Level[int(v)*b.k+s] }

// Levels copies source s's level array into a new slice.
func (b *MultiBFS) Levels(s int) []int32 {
	out := make([]int32, b.n)
	for v := range out {
		out[v] = b.Level[v*b.k+s]
	}
	return out
}

// Parents copies source s's parent array into a new slice.
func (b *MultiBFS) Parents(s int) []int32 {
	out := make([]int32, b.n)
	for v := range out {
		out[v] = b.Parent[v*b.k+s]
	}
	return out
}

// Reached returns the number of vertices source s discovered.
func (b *MultiBFS) Reached(s int) int {
	count := 0
	for v := 0; v < b.n; v++ {
		if b.Parent[v*b.k+s] >= 0 {
			count++
		}
	}
	return count
}
