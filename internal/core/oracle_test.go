package core

import (
	"container/heap"
	"math"

	"github.com/epfl-repro/everythinggraph/internal/graph"
)

// The serial oracles: textbook algorithms that share nothing with the
// engine — no layout, no span kernel, no frontier builder, no worker. They
// walk the arcs the engine traverses: every stored edge, and its reverse
// (unless it is a self-loop) when the graph is undirected. Every test that
// checks an algorithm's result against a reference uses these.

// outArcs lists, per vertex, the arcs that leave it, in edge order.
func outArcs(g *graph.Graph) [][]graph.Edge {
	out := make([][]graph.Edge, g.NumVertices())
	for _, e := range g.EdgeArray.Edges {
		out[e.Src] = append(out[e.Src], e)
		if !g.Directed && e.Src != e.Dst {
			out[e.Dst] = append(out[e.Dst], graph.Edge{Src: e.Dst, Dst: e.Src, W: e.W})
		}
	}
	return out
}

// memOutDegrees is the out-degree table an in-memory PageRank divides by:
// the arcs leaving each vertex, except that an undirected self-loop counts
// twice (once as the stored edge's source, once as its destination), while a
// mirrored grid — all a streamed run has — holds it once.
func memOutDegrees(g *graph.Graph) []uint32 {
	deg := make([]uint32, g.NumVertices())
	for _, e := range g.EdgeArray.Edges {
		deg[e.Src]++
		if !g.Directed {
			deg[e.Dst]++
		}
	}
	return deg
}

// oraclePageRank is pull PageRank in float64: rank = (1-d)/n + d * the sum
// of rank/deg over in-arcs, from ranks of 1/n, with no redistribution of
// dangling mass (the engine's definition). deg is the run's out-degree table.
func oraclePageRank(g *graph.Graph, deg []uint32, iterations int, damping float64) []float64 {
	n := g.NumVertices()
	in := make([][]graph.VertexID, n)
	for u, arcs := range outArcs(g) {
		for _, e := range arcs {
			in[e.Dst] = append(in[e.Dst], graph.VertexID(u))
		}
	}
	rank := make([]float64, n)
	contrib := make([]float64, n)
	for v := range rank {
		rank[v] = 1 / float64(n)
	}
	base := (1 - damping) / float64(n)
	for it := 0; it < iterations; it++ {
		for u := range contrib {
			contrib[u] = 0
			if deg[u] > 0 {
				contrib[u] = rank[u] / float64(deg[u])
			}
		}
		for v := range rank {
			var sum float64
			for _, u := range in[v] {
				sum += contrib[u]
			}
			rank[v] = base + damping*sum
		}
	}
	return rank
}

// oracleBFS is FIFO-queue BFS; it returns each vertex's level, -1 where
// unreached.
func oracleBFS(g *graph.Graph, source graph.VertexID) []int32 {
	out := outArcs(g)
	level := make([]int32, len(out))
	for v := range level {
		level[v] = -1
	}
	level[source] = 0
	for queue := []graph.VertexID{source}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		for _, e := range out[u] {
			if level[e.Dst] < 0 {
				level[e.Dst] = level[u] + 1
				queue = append(queue, e.Dst)
			}
		}
	}
	return level
}

// oracleDijkstra is binary-heap Dijkstra in float32, the engine's distance
// type; unreached vertices keep +Inf. A vertex is pushed again whenever its
// distance improves, even after it was popped, so a negative edge without a
// negative cycle is handled too.
func oracleDijkstra(g *graph.Graph, source graph.VertexID) []float32 {
	out := outArcs(g)
	dist := make([]float32, len(out))
	for v := range dist {
		dist[v] = float32(math.Inf(1))
	}
	dist[source] = 0
	h := &distHeap{{0, source}}
	for h.Len() > 0 {
		top := heap.Pop(h).(distEntry)
		if top.d > dist[top.v] {
			continue
		}
		for _, e := range out[top.v] {
			if nd := top.d + e.W; nd < dist[e.Dst] {
				dist[e.Dst] = nd
				heap.Push(h, distEntry{nd, e.Dst})
			}
		}
	}
	return dist
}

// distHeap is a binary min-heap of (distance, vertex) entries.
type distHeap []distEntry

type distEntry struct {
	d float32
	v graph.VertexID
}

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distEntry)) }
func (h *distHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// oracleBellmanFordRounds counts the rounds of serial frontier Bellman-Ford
// from source: a round relaxes, in place and in ascending vertex order, the
// out-arcs of every vertex the previous round lowered, and the run ends
// after the first round that lowers none — the iterations of an SSSP with no
// buckets.
func oracleBellmanFordRounds(g *graph.Graph, source graph.VertexID) int {
	out := outArcs(g)
	dist := make([]float32, len(out))
	for v := range dist {
		dist[v] = float32(math.Inf(1))
	}
	dist[source] = 0
	active := make([]bool, len(out))
	active[source] = true
	rounds := 0
	for lowered := true; lowered; rounds++ {
		lowered = false
		next := make([]bool, len(out))
		for u, on := range active {
			if !on {
				continue
			}
			for _, e := range out[u] {
				if nd := dist[u] + e.W; nd < dist[e.Dst] {
					dist[e.Dst] = nd
					next[e.Dst], lowered = true, true
				}
			}
		}
		active = next
	}
	return rounds
}

// oracleSpMV is y = A x with A[dst][src] = w over the arcs, summed in float64.
func oracleSpMV(g *graph.Graph, x []float64) []float64 {
	y := make([]float64, g.NumVertices())
	for _, arcs := range outArcs(g) {
		for _, e := range arcs {
			y[e.Dst] += float64(e.W) * x[e.Src]
		}
	}
	return y
}

// oracleWCC is the serial min-label fixed point: every vertex starts with its
// own id and takes the least label over its in-arcs until nothing changes.
// On an undirected graph that is each component's least vertex id, as
// union-find gives it; on a directed one, the least id that reaches v.
func oracleWCC(g *graph.Graph) []uint32 {
	out := outArcs(g)
	label := make([]uint32, len(out))
	for v := range label {
		label[v] = uint32(v)
	}
	for changed := true; changed; {
		changed = false
		for u, arcs := range out {
			for _, e := range arcs {
				if label[u] < label[e.Dst] {
					label[e.Dst], changed = label[u], true
				}
			}
		}
	}
	return label
}
