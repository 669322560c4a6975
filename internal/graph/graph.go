// Package graph contains the in-memory graph representations studied by the
// paper (Section 3.1 and 5.1):
//
//   - the edge array, the default input layout with zero pre-processing cost;
//   - adjacency lists in compressed sparse row (CSR) form, with outgoing
//     and/or incoming per-vertex edge arrays, optionally sorted by
//     destination;
//   - the grid layout adapted from GridGraph, a 2-D array of cells where
//     cell (i,j) holds the edges whose source falls in vertex range i and
//     whose destination falls in vertex range j.
//
// It also contains the frontier (active-vertex set) abstraction used by the
// engine, with sparse and dense representations and conversions between
// them.
package graph

import (
	"fmt"
	"math"
	"sync"

	"github.com/epfl-repro/everythinggraph/internal/sched"
)

// VertexID identifies a vertex. Graphs in the evaluated size range (up to a
// few hundred million vertices) fit comfortably in 32 bits, which matches
// the memory layout assumptions of the paper (4-byte vertex identifiers).
type VertexID = uint32

// Weight is an edge weight. SSSP, SpMV and ALS use it; BFS, WCC and
// PageRank ignore it. An adjacency whose weights are all 1 stores none
// (Adjacency.Weights is nil).
type Weight = float32

// Edge is a directed edge with an optional weight. The input format of the
// paper is an array of (source, destination) pairs; weights are stored
// alongside so that the same array serves SSSP/SpMV/ALS.
type Edge struct {
	Src VertexID
	Dst VertexID
	W   Weight
}

// EdgeArray is the simplest layout: the raw list of edges, as mapped from
// the input file. It incurs no pre-processing cost (Section 3.2) and
// supports only edge-centric computation (a full scan per step).
type EdgeArray struct {
	// Edges holds every directed edge. For undirected computation the array
	// is interpreted symmetrically by the engine (each stored edge is
	// traversed in both directions); no doubling is required, matching the
	// paper's observation that edge arrays need no extra pre-processing for
	// undirected algorithms such as WCC.
	Edges []Edge
	// NumVertices is one greater than the largest vertex id that appears in
	// Edges (isolated trailing vertices may raise it further).
	NumVertices int

	// Degree tables and the largest weight, shared by every run over this
	// edge array (see SharedOutDegrees, SharedMaxWeight), each found on
	// first use.
	sharedMu      sync.Mutex
	outDeg, inDeg sharedDegrees
	maxW          sharedMaxWeight
	minusOnes     []int32 // see SharedMinusOnes
}

// sharedMaxWeight is the largest weight with the edge count it was taken
// over.
type sharedMaxWeight struct {
	w       Weight
	edges   int
	scanned bool
}

// sharedDegrees is a degree table with the edge count it was counted over.
type sharedDegrees struct {
	deg   []uint32
	edges int
}

// NumEdges returns the number of stored (directed) edges.
func (ea *EdgeArray) NumEdges() int { return len(ea.Edges) }

// edgeScanChunk is the number of edges a worker takes at a time in the
// scans over the whole edge array below; a smaller array is scanned serially.
const edgeScanChunk = 1 << 16

// MaxVertex scans the edges (in parallel) and returns one plus the largest
// endpoint, i.e. the minimal consistent NumVertices value.
func MaxVertex(edges []Edge) int {
	if len(edges) == 0 {
		return 0
	}
	maxV := sched.ParallelReduce(0, len(edges), edgeScanChunk, 0, VertexID(0), func(lo, hi int, acc VertexID) VertexID {
		for _, e := range edges[lo:hi] {
			acc = max(acc, e.Src, e.Dst)
		}
		return acc
	}, func(a, b VertexID) VertexID { return max(a, b) })
	return int(maxV) + 1
}

// NewEdgeArray wraps a slice of edges into an EdgeArray. If numVertices is
// zero it is derived from the edges.
func NewEdgeArray(edges []Edge, numVertices int) *EdgeArray {
	if numVertices <= 0 {
		numVertices = MaxVertex(edges)
	}
	return &EdgeArray{Edges: edges, NumVertices: numVertices}
}

// Validate checks that every endpoint is within [0, NumVertices).
func (ea *EdgeArray) Validate() error {
	n := VertexID(ea.NumVertices)
	for i, e := range ea.Edges {
		if e.Src >= n || e.Dst >= n {
			return fmt.Errorf("graph: edge %d (%d->%d) out of range (numVertices=%d)", i, e.Src, e.Dst, ea.NumVertices)
		}
	}
	return nil
}

// Layout enumerates the data layouts studied by the paper.
type Layout int

const (
	// LayoutEdgeArray streams the raw edge list (edge-centric, X-Stream).
	LayoutEdgeArray Layout = iota
	// LayoutAdjacency uses CSR per-vertex edge arrays (vertex-centric, Ligra).
	LayoutAdjacency
	// LayoutAdjacencySorted is LayoutAdjacency with each per-vertex edge
	// array sorted by destination id (the cache optimization evaluated and
	// rejected in Section 5.2).
	LayoutAdjacencySorted
	// LayoutGrid partitions edges into a 2-D grid of cells (GridGraph).
	LayoutGrid
	// LayoutGridCompressed labels the grid streamed from a compressed
	// (version-2) store: the same cell structure and visit order, a fraction
	// of the bytes read, a per-cell decode on the way in. No resident graph
	// carries it.
	LayoutGridCompressed
)

// String returns the short name used in benchmark tables.
func (l Layout) String() string {
	switch l {
	case LayoutEdgeArray:
		return "edge-array"
	case LayoutAdjacency:
		return "adjacency"
	case LayoutAdjacencySorted:
		return "adjacency-sorted"
	case LayoutGrid:
		return "grid"
	case LayoutGridCompressed:
		return "compressed"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// Graph bundles the layouts that have been materialized for a dataset. At
// minimum the edge array is present (it is the input format); other layouts
// are attached by the pre-processing package and consumed by the engine.
type Graph struct {
	// EdgeArray always holds the input edges.
	EdgeArray *EdgeArray
	// Out is the CSR over outgoing edges (nil until built).
	Out *Adjacency
	// In is the CSR over incoming edges (nil until built).
	In *Adjacency
	// Grid is the grid layout (nil until built).
	Grid *Grid
	// Directed records whether the graph is traversed as directed.
	// Undirected graphs store each edge once in the edge array; adjacency
	// lists and the grid hold both directions, and edge-centric iterations
	// mirror each edge. Layouts must be built under the setting recorded
	// here: the engine reads nothing else.
	Directed bool
}

// PullAdjacency returns the adjacency that pull iterations scan: the
// in-adjacency, or — when none was built — the out-adjacency, whose
// (doubled) lists of an undirected dataset are its in-lists as well
// (Section 6.1.3). nil if neither is built.
func (g *Graph) PullAdjacency() *Adjacency {
	if g.In != nil {
		return g.In
	}
	return g.Out
}

// NumVertices returns the number of vertices of the dataset.
func (g *Graph) NumVertices() int { return g.EdgeArray.NumVertices }

// NumEdges returns the number of input edges (not doubled for undirected
// datasets).
func (g *Graph) NumEdges() int { return g.EdgeArray.NumEdges() }

// New creates a Graph from raw edges.
func New(edges []Edge, numVertices int, directed bool) *Graph {
	return &Graph{
		EdgeArray: NewEdgeArray(edges, numVertices),
		Directed:  directed,
	}
}

// SharedOutDegrees returns the out-degree table, counted by one scan of the
// edges on first use and shared by every later call: degrees do not change
// when pre-processing permutes the edges, so repeated runs over a graph pay
// the scan once. The table is recounted if Edges has changed length since.
// Callers must not modify it; OutDegrees returns a private copy.
func (ea *EdgeArray) SharedOutDegrees() []uint32 { return ea.shared(&ea.outDeg, ea.OutDegrees) }

// SharedInDegrees is SharedOutDegrees for in-degrees.
func (ea *EdgeArray) SharedInDegrees() []uint32 { return ea.shared(&ea.inDeg, ea.InDegrees) }

func (ea *EdgeArray) shared(t *sharedDegrees, count func() []uint32) []uint32 {
	ea.sharedMu.Lock()
	defer ea.sharedMu.Unlock()
	if t.deg == nil || t.edges != len(ea.Edges) || len(t.deg) != ea.NumVertices {
		t.deg, t.edges = count(), len(ea.Edges)
	}
	return t.deg
}

// SharedMinusOnes returns a vertex array with every entry -1, filled by one
// parallel pass on first use and shared by every later call like
// SharedOutDegrees: per-vertex state that starts at -1 (BFS parents and
// levels) is cloned from it, and slices.Clone copies without the zeroing
// pass that make followed by a fill pays. It is refilled if NumVertices has
// changed since. Callers must not modify it.
func (ea *EdgeArray) SharedMinusOnes() []int32 {
	ea.sharedMu.Lock()
	defer ea.sharedMu.Unlock()
	if len(ea.minusOnes) != ea.NumVertices {
		m := make([]int32, ea.NumVertices)
		sched.ParallelForChunked(0, len(m), edgeScanChunk, 0, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				m[v] = -1
			}
		})
		ea.minusOnes = m
	}
	return ea.minusOnes
}

// SharedMaxWeight returns the largest edge weight, found by one parallel
// scan on first use and shared by every later call like SharedOutDegrees:
// weights travel with their edges through pre-processing. It is -Inf for no
// edges and NaN if any weight is NaN, and rescanned if Edges has changed
// length since.
func (ea *EdgeArray) SharedMaxWeight() Weight {
	ea.sharedMu.Lock()
	defer ea.sharedMu.Unlock()
	if !ea.maxW.scanned || ea.maxW.edges != len(ea.Edges) {
		ea.maxW = sharedMaxWeight{w: maxWeight(ea.Edges), edges: len(ea.Edges), scanned: true}
	}
	return ea.maxW.w
}

// maxWeight is the largest weight of edges; the builtin max propagates NaN.
func maxWeight(edges []Edge) Weight {
	return sched.ParallelReduce(0, len(edges), edgeScanChunk, 0, Weight(math.Inf(-1)), func(lo, hi int, acc Weight) Weight {
		for _, e := range edges[lo:hi] {
			acc = max(acc, e.W)
		}
		return acc
	}, func(a, b Weight) Weight { return max(a, b) })
}

// OutDegrees computes the out-degree of every vertex from the edge array.
func (ea *EdgeArray) OutDegrees() []uint32 { return ea.degrees(false) }

// InDegrees computes the in-degree of every vertex from the edge array.
func (ea *EdgeArray) InDegrees() []uint32 { return ea.degrees(true) }

// degrees counts the edges per source (or destination, if byDst). Workers
// count chunks of the edge array into tables of their own, which are then
// summed; a table per worker is only worth its zeroing and summing when the
// edges outnumber the vertices, so the worker count is capped by that ratio.
func (ea *EdgeArray) degrees(byDst bool) []uint32 {
	n, edges := ea.NumVertices, ea.Edges
	p := min(sched.MaxWorkers(), len(edges)/max(n, 1)+1)
	partial := make([][]uint32, p)
	partial[0] = make([]uint32, n)
	sched.ParallelForWorker(0, len(edges), edgeScanChunk, p, func(w, lo, hi int) {
		if partial[w] == nil {
			partial[w] = make([]uint32, n)
		}
		deg := partial[w]
		if byDst {
			for _, e := range edges[lo:hi] {
				deg[e.Dst]++
			}
		} else {
			for _, e := range edges[lo:hi] {
				deg[e.Src]++
			}
		}
	})
	deg := partial[0]
	sched.ParallelForChunked(0, n, edgeScanChunk, p, func(lo, hi int) {
		for _, other := range partial[1:] {
			if other != nil {
				for v := lo; v < hi; v++ {
					deg[v] += other[v]
				}
			}
		}
	})
	return deg
}
