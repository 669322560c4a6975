package main

import (
	"container/heap"
	"fmt"
	"math"

	eg "github.com/epfl-repro/everythinggraph"
	"github.com/epfl-repro/everythinggraph/internal/core"
)

// The oracles are serial and share nothing with the engine: they build their
// own CSR from the raw edge list and use the textbook algorithm. They are the
// reference every measured op is checked against.

// outcome is what one operation produced, or what the oracle expects.
type outcome struct {
	ranks  []float64      // PageRank
	levels [][]int32      // BFS, one array per source
	dists  [][]float32    // SSSP, one array per graph
	runs   []*core.Result // the op's engine runs (counts are read from them)
	budget int64          // streamed runs: the MemoryBudget the run was given
}

// rankTolerance bounds both the L1 distance and the total-mass difference
// between engine and oracle PageRank.
const rankTolerance = 1e-9

// verify reports how got differs from the oracle's want, nil if it does not.
func verify(got, want outcome) error {
	if want.ranks != nil {
		if len(got.ranks) != len(want.ranks) {
			return fmt.Errorf("pagerank: %d ranks, oracle has %d", len(got.ranks), len(want.ranks))
		}
		var l1, mass float64
		for v, r := range want.ranks {
			l1 += math.Abs(got.ranks[v] - r)
			mass += got.ranks[v] - r
		}
		if l1 > rankTolerance || math.Abs(mass) > rankTolerance || math.IsNaN(l1) {
			return fmt.Errorf("pagerank: L1 distance %g, mass difference %g from oracle", l1, mass)
		}
	}
	if len(got.levels) != len(want.levels) || len(got.dists) != len(want.dists) {
		return fmt.Errorf("%d traversals and %d distance arrays, oracle has %d and %d", len(got.levels), len(got.dists), len(want.levels), len(want.dists))
	}
	for i, lv := range want.levels {
		if v := firstDiff(got.levels[i], lv); v >= 0 {
			return fmt.Errorf("bfs %d: level differs from oracle at vertex %d", i, v)
		}
	}
	for i, d := range want.dists {
		if v := firstDiff(got.dists[i], d); v >= 0 {
			return fmt.Errorf("sssp %d: distance differs from oracle at vertex %d", i, v)
		}
	}
	if got.budget > 0 {
		if peak := got.runs[0].IO.PeakResidentBytes; peak > got.budget {
			return fmt.Errorf("stream: peak resident %d bytes over the %d-byte budget", peak, got.budget)
		}
	}
	return nil
}

// firstDiff returns the first index where a and b differ (a length mismatch
// counts as index 0), or -1 when they are equal.
func firstDiff[T comparable](a, b []T) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// numVertices is one plus the largest endpoint, which is how a graph loaded
// from a file with no vertex count gets its size.
func numVertices(edges []eg.Edge) int {
	n := 0
	for _, e := range edges {
		n = max(n, int(e.Src)+1, int(e.Dst)+1)
	}
	return n
}

// csr is a serial count-sort adjacency over n vertices.
type csr struct {
	off []int
	adj []uint32
	w   []float32
}

// buildCSR keys edges by destination (incoming lists) when byDst is set, by
// source otherwise; undirected inserts every edge at both endpoints.
func buildCSR(edges []eg.Edge, n int, byDst, undirected bool) csr {
	ends := func(e eg.Edge) (key, other uint32) {
		if byDst {
			return e.Dst, e.Src
		}
		return e.Src, e.Dst
	}
	c := csr{off: make([]int, n+1)}
	for _, e := range edges {
		k, o := ends(e)
		c.off[k+1]++
		if undirected {
			c.off[o+1]++
		}
	}
	for v := 0; v < n; v++ {
		c.off[v+1] += c.off[v]
	}
	c.adj = make([]uint32, c.off[n])
	c.w = make([]float32, c.off[n])
	next := append([]int(nil), c.off[:n]...)
	put := func(k, o uint32, w float32) {
		c.adj[next[k]], c.w[next[k]] = o, w
		next[k]++
	}
	for _, e := range edges {
		k, o := ends(e)
		put(k, o, e.W)
		if undirected {
			put(o, k, e.W)
		}
	}
	return c
}

// oraclePageRank is pull PageRank in float64 over a directed edge list:
// rank = (1-d)/n + d * sum of rank/outdegree over in-neighbours, with no
// redistribution of dangling mass (the engine's definition).
func oraclePageRank(edges []eg.Edge, n, iterations int, damping float64) []float64 {
	in := buildCSR(edges, n, true, false)
	outDeg := make([]int, n)
	for _, e := range edges {
		outDeg[e.Src]++
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
			if outDeg[u] > 0 {
				contrib[u] = rank[u] / float64(outDeg[u])
			}
		}
		for v := range rank {
			var sum float64
			for _, u := range in.adj[in.off[v]:in.off[v+1]] {
				sum += contrib[u]
			}
			rank[v] = base + damping*sum
		}
	}
	return rank
}

// oracleBFS is queue BFS over outgoing lists; unreached vertices keep -1.
func oracleBFS(out csr, source uint32) []int32 {
	level := make([]int32, len(out.off)-1)
	for v := range level {
		level[v] = -1
	}
	level[source] = 0
	queue := []uint32{source}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range out.adj[out.off[u]:out.off[u+1]] {
			if level[v] < 0 {
				level[v] = level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return level
}

// oracleDijkstra is binary-heap Dijkstra in float32, the engine's distance
// type; unreached vertices keep +Inf.
func oracleDijkstra(adj csr, source uint32) []float32 {
	dist := make([]float32, len(adj.off)-1)
	for v := range dist {
		dist[v] = float32(math.Inf(1))
	}
	dist[source] = 0
	h := &distHeap{{v: source}}
	for h.Len() > 0 {
		top := heap.Pop(h).(distEntry)
		if top.d > dist[top.v] {
			continue
		}
		for i := adj.off[top.v]; i < adj.off[top.v+1]; i++ {
			if nd := top.d + adj.w[i]; nd < dist[adj.adj[i]] {
				dist[adj.adj[i]] = nd
				heap.Push(h, distEntry{v: adj.adj[i], d: nd})
			}
		}
	}
	return dist
}

type distEntry struct {
	v uint32
	d float32
}

type distHeap []distEntry

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distEntry)) }
func (h *distHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
