package algorithms

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"github.com/epfl-repro/everythinggraph/internal/graph"
)

// BFS traverses the graph from a source vertex and builds a parent tree in
// breadth-first order. It is the paper's canonical "small active subset"
// algorithm: only the current frontier is processed per iteration, which is
// what makes vertex-centric push traversal win end-to-end (Figure 3a) and
// the pull direction attractive in the dense middle iterations (Figure 6).
// Because the pull skips visited vertices, each pull costs less than the
// one before, so the adaptive planner keeps pulling into the tail while the
// frontier holds at least |V|/24 vertices (Beamer's β).
//
// The pull (bottom-up) step works over bitmaps, as in Beamer et al.,
// "Direction-Optimizing Breadth-First Search" (SC'12). The candidates of a
// 64-vertex word are its vertices with an in-neighbour that are neither
// known visited nor in the frontier (what the previous iteration
// discovered): a few AND-NOTs of bitmap words, so a vertex with an empty row
// is never touched, and neither is one already known discovered. Each
// candidate still adopts its first active in-neighbour, and the word's
// discoveries reach the next frontier with one SetWord.
type BFS struct {
	// Source is the root of the traversal.
	Source graph.VertexID

	// Parent[v] is the BFS-tree parent of v, or -1 if v was not reached.
	// The source is its own parent.
	Parent []int32
	// Level[v] is the BFS depth of v, or -1 if unreached. Levels are
	// deterministic across every layout/flow/sync combination, so the
	// equivalence tests compare them rather than the (valid but ambiguous)
	// parents.
	Level []int32

	// visited has bit v set once a pull has seen v discovered: by itself,
	// in its frontier, or — for a vertex a push, edge-array or grid
	// iteration discovered before that — through Parent. Only the pull
	// writes it, through the words it owns, so those paths pay no atomic OR
	// on a shared bitmap per discovery (push-only BFS measured 25% slower
	// with one).
	visited []uint64
	// nonEmpty is the NonEmpty bitmap of the graph's pull adjacency, the
	// one PullRows is handed, fetched once per run (nil without one).
	nonEmpty []uint64

	curLevel int32
}

// NewBFS creates a BFS rooted at source.
func NewBFS(source graph.VertexID) *BFS { return &BFS{Source: source} }

// Name implements Algorithm.
func (b *BFS) Name() string { return "bfs" }

// Root implements the engine's Rooted extension.
func (b *BFS) Root() graph.VertexID { return b.Source }

// Dense implements Algorithm: BFS processes only the frontier.
func (b *BFS) Dense() bool { return false }

// Init implements Algorithm.
func (b *BFS) Init(g *graph.Graph) {
	n := g.NumVertices()
	unreached := g.EdgeArray.SharedMinusOnes()
	b.Parent = slices.Clone(unreached)
	b.Level = slices.Clone(unreached)
	b.Parent[b.Source] = int32(b.Source)
	b.Level[b.Source] = 0
	b.visited = make([]uint64, (n+63)/64)
	b.nonEmpty = nil
	if in := g.PullAdjacency(); in != nil {
		b.nonEmpty = in.NonEmpty()
	}
	b.curLevel = 0
}

// InitialFrontier implements Algorithm.
func (b *BFS) InitialFrontier(g *graph.Graph) *graph.Frontier {
	return graph.NewFrontierFromSparse(g.NumVertices(), []graph.VertexID{b.Source})
}

// BeforeIteration implements Algorithm.
func (b *BFS) BeforeIteration(iteration int) {
	b.curLevel = int32(iteration + 1)
}

// AfterIteration implements Algorithm: BFS stops when the frontier drains.
func (b *BFS) AfterIteration(int) bool { return false }

// PushEdge implements Algorithm: discover v if it has no parent yet.
func (b *BFS) PushEdge(u, v graph.VertexID, _ graph.Weight) bool {
	if atomic.LoadInt32(&b.Parent[v]) >= 0 {
		return false
	}
	atomic.StoreInt32(&b.Parent[v], int32(u))
	atomic.StoreInt32(&b.Level[v], b.curLevel)
	return true
}

// Span kernels (the engine's Algorithm contract). A vertex's Parent and
// Level are written exactly once, by the worker that discovers it; nothing
// reads them before the iteration's barrier except the discovery test
// itself, so owned paths use plain loads and stores and unowned paths need
// only the claiming compare-and-swap.

// PullRows lets each undiscovered vertex of [lo, hi) with an in-neighbour
// adopt its first active in-neighbour and stop scanning. It walks the
// candidates of each owned word, nonEmpty &^ (visited | frontier), bit by
// bit; a candidate that Parent shows discovered is only marked visited.
func (b *BFS) PullRows(s *graph.Span, worker int, in *graph.Adjacency, lo, hi int) {
	parent, level, visited, nonEmpty, cur := b.Parent, b.Level, b.visited, b.nonEmpty, b.curLevel
	idx, tgt := in.Index, in.Targets
	front, full := s.Bits, s.Full
	for base := lo; base < hi; base += 64 {
		w := base >> 6
		// The current frontier is what the previous iteration discovered.
		seen := ^uint64(0)
		if !full {
			seen = visited[w] | front[w]
		}
		cand := nonEmpty[w] &^ seen
		if n := hi - base; n < 64 {
			cand &= 1<<n - 1
		}
		var next uint64
		for ; cand != 0; cand &= cand - 1 {
			i := bits.TrailingZeros64(cand)
			v := base + i
			if parent[v] >= 0 {
				// Discovered by a push before the previous iteration.
				seen |= 1 << i
				continue
			}
			for _, u := range tgt[idx[v]:idx[v+1]] {
				if full || front[u>>6]&(1<<(u&63)) != 0 {
					parent[v], level[v] = int32(u), cur
					next |= 1 << i
					break
				}
			}
		}
		visited[w] = seen | next
		if next != 0 {
			s.Next.SetWord(worker, w, next)
		}
	}
}

// claim makes u the parent of v if v is undiscovered, racing other workers.
// The load screens out the (common) already-discovered destinations before
// paying for the locked instruction.
func (b *BFS) claim(s *graph.Span, worker int, u, v graph.VertexID) {
	if atomic.LoadInt32(&b.Parent[v]) < 0 && atomic.CompareAndSwapInt32(&b.Parent[v], -1, int32(u)) {
		b.Level[v] = b.curLevel
		s.Next.Add(worker, v)
	}
}

// PushRows discovers the out-neighbours of the active vertices: claim,
// written out so the sparse-push loop carries no call. An unsynchronized
// span — the whole iteration on this goroutine — discovers with plain
// stores and the frontier builder's owned add.
func (b *BFS) PushRows(s *graph.Span, worker int, out *graph.Adjacency, active []graph.VertexID) {
	parent, level, cur, owned := b.Parent, b.Level, b.curLevel, !s.Atomic
	idx, tgt := out.Index, out.Targets
	for _, u := range active {
		for _, v := range tgt[idx[u]:idx[u+1]] {
			if owned {
				if parent[v] < 0 {
					parent[v], level[v] = int32(u), cur
					s.Next.AddOwned(worker, v)
				}
			} else if atomic.LoadInt32(&parent[v]) < 0 && atomic.CompareAndSwapInt32(&parent[v], -1, int32(u)) {
				level[v] = cur
				s.Next.Add(worker, v)
			}
		}
	}
}

// PushEdges discovers destinations over a flat edge slice.
func (b *BFS) PushEdges(s *graph.Span, worker int, edges []graph.Edge) {
	if !s.Atomic {
		parent, level, cur := b.Parent, b.Level, b.curLevel
		for _, e := range edges {
			if s.Active(e.Src) && parent[e.Dst] < 0 {
				parent[e.Dst], level[e.Dst] = int32(e.Src), cur
				s.Next.Add(worker, e.Dst)
			}
		}
		return
	}
	for _, e := range edges {
		if s.Active(e.Src) {
			b.claim(s, worker, e.Src, e.Dst)
		}
		if s.Mirror && e.Src != e.Dst && s.Active(e.Dst) {
			b.claim(s, worker, e.Dst, e.Src)
		}
	}
}

// PullEdges is PushEdges: "destination still undiscovered" is both the pull
// guard and the push test, and both adopt the edge's source.
func (b *BFS) PullEdges(s *graph.Span, worker int, edges []graph.Edge) {
	b.PushEdges(s, worker, edges)
}

// Reached returns the number of vertices discovered by the traversal.
func (b *BFS) Reached() int {
	count := 0
	for _, p := range b.Parent {
		if p >= 0 {
			count++
		}
	}
	return count
}

// MaxLevel returns the depth of the BFS tree (the eccentricity of the
// source within its component).
func (b *BFS) MaxLevel() int32 {
	var maxL int32
	for _, l := range b.Level {
		if l > maxL {
			maxL = l
		}
	}
	return maxL
}
