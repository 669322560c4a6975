// Package prep implements the pre-processing techniques studied in Section 3
// of the paper: converting the raw edge array into adjacency lists (CSR) or
// into the grid layout, using one of three construction methods:
//
//   - Dynamic: per-vertex edge arrays are allocated and resized as edges are
//     discovered while scanning the input (the paper overlaps it with
//     loading, Section 3.4; here it runs after the load);
//   - CountSort: two passes over the edge array — count per-vertex degrees,
//     then place every edge at its final offset (the approach used by most
//     frameworks, optimal in number of scans);
//   - RadixSort: the paper's fastest method when the input is already in
//     memory, because every pass writes a small number of sequential
//     streams. The paper sorts the edge array with 8-bit digits and slices
//     it into CSR; the builder here (radix.go) reads the input once for
//     per-chunk histograms, partitions it by the key's high bits into
//     buckets whose vertex range fits the L1 cache, and counting-sorts each
//     bucket straight into the CSR arrays — two scatters whatever the key
//     width.
//
// Only the radix builder keeps a vertex's edges in input order, which makes
// its output byte-identical for every worker count; the other two place
// edges from parallel chunks in the order the chunks happen to run. All
// three hold the same edges per vertex; their cost and cache behaviour
// differ, which is the trade-off Table 2 and Figure 2 measure. Every builder
// rejects an edge whose endpoint is outside [0, NumVertices) with an error.
//
// An undirected build mirrors each edge in the builder's own passes (its
// mirror argument): the edge with key k and target t is placed, and then,
// unless k == t, the edge with key t and target k. A vertex's row then holds
// every edge that touches it, once, in input order — the same row whichever
// end keys the build — and the radix builder's output is the stable sort of
// the list with each edge followed by its mirror.
package prep

import (
	"fmt"

	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/sched"
)

// Method selects how adjacency lists and grids are built from the edge
// array.
type Method int

const (
	// RadixSort partitions the edges by the high bits of the key (source or
	// destination vertex) and counting-sorts each bucket into CSR. It is
	// the zero Method, so a zero Options builds the same bytes at every
	// worker count.
	RadixSort Method = iota
	// Dynamic allocates and grows per-vertex edge arrays while scanning the
	// input once.
	Dynamic
	// CountSort counts per-vertex degrees in a first pass and places edges
	// at their final offsets in a second pass.
	CountSort
)

// String returns the name used in benchmark tables.
func (m Method) String() string {
	switch m {
	case Dynamic:
		return "dynamic"
	case CountSort:
		return "count-sort"
	case RadixSort:
		return "radix-sort"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Direction selects which per-vertex edge arrays to build.
type Direction int

const (
	// Out builds only outgoing per-vertex edge arrays (push-only execution).
	Out Direction = iota
	// In builds only incoming per-vertex edge arrays (pull-only execution).
	In
	// InOut builds both, as required by push-pull on directed graphs
	// (Section 6.1.3).
	InOut
)

// String returns the name used in benchmark tables.
func (d Direction) String() string {
	switch d {
	case Out:
		return "out"
	case In:
		return "in"
	case InOut:
		return "in-out"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Options configures a build.
type Options struct {
	// Method selects the construction technique (default RadixSort).
	Method Method
	// Workers bounds the parallelism (0 = all CPUs).
	Workers int
	// SortNeighbors additionally sorts each per-vertex edge array by
	// neighbour id (the Section 5 optimization); it applies only to
	// adjacency builds.
	SortNeighbors bool
	// Undirected makes each builder mirror every edge as its passes read
	// it, so that the edge appears in the arrays of both endpoints (needed
	// by WCC, Section 8): an edge (s, d, w) yields s->d and, unless s == d,
	// d->s with the same weight. No mirrored copy of the input is made.
	Undirected bool
}

// BuildAdjacency builds the requested per-vertex edge arrays from the
// graph's edge array and attaches them to g (g.Out and/or g.In). An edge
// with an endpoint outside [0, NumVertices) is an error, whatever the method.
// An adjacency gets a Weights column only if some edge weighs other than 1.
func BuildAdjacency(g *graph.Graph, dir Direction, opt Options) error {
	edges := g.EdgeArray.Edges
	n := g.NumVertices()
	// The radix builder checks the range and the weights in its histogram
	// read.
	weighted := false
	if opt.Method != RadixSort {
		var err error
		if weighted, err = checkRange(edges, n, opt.Workers); err != nil {
			return err
		}
	}
	build := func(byDst bool) (*graph.Adjacency, error) {
		switch opt.Method {
		case Dynamic:
			return buildDynamic(edges, n, byDst, opt.Undirected, weighted, opt.Workers), nil
		case CountSort:
			return buildCountSort(edges, n, byDst, opt.Undirected, weighted, opt.Workers), nil
		case RadixSort:
			return buildRadixSort(edges, n, byDst, opt.Undirected, opt.Workers)
		default:
			return nil, fmt.Errorf("prep: unknown method %v", opt.Method)
		}
	}
	if dir == Out || dir == InOut {
		out, err := build(false)
		if err != nil {
			return err
		}
		if opt.SortNeighbors {
			out.SortNeighborsParallel(opt.Workers)
		}
		g.Out = out
	}
	if dir == In || dir == InOut {
		in, err := build(true)
		if err != nil {
			return err
		}
		if opt.SortNeighbors {
			in.SortNeighborsParallel(opt.Workers)
		}
		g.In = in
	}
	return nil
}

// BuildGrid builds the grid layout (Section 5.1) and attaches it to g.
// requestedP is the desired grid dimension (0 selects the paper's 256,
// clamped for small graphs).
func BuildGrid(g *graph.Graph, requestedP int, opt Options) error {
	edges := g.EdgeArray.Edges
	n := g.NumVertices()
	if _, err := checkRange(edges, n, opt.Workers); err != nil {
		return err
	}
	var grid *graph.Grid
	var err error
	switch opt.Method {
	case Dynamic:
		grid = buildGridDynamic(edges, n, requestedP, opt.Undirected)
	case CountSort, RadixSort:
		// Count sort and radix bucketing coincide for the grid: edges are
		// bucketed by cell id, which is a single-digit (cell-granularity)
		// radix pass. The paper builds its grids with the radix approach.
		grid = buildGridRadix(edges, n, requestedP, opt.Undirected, opt.Workers)
	default:
		err = fmt.Errorf("prep: unknown method %v", opt.Method)
	}
	if err != nil {
		return err
	}
	g.Grid = grid
	return nil
}

// checkRange returns rangeError for the first edge with an endpoint outside
// [0, numVertices), which every builder would otherwise index out of range,
// and else whether any edge weighs other than 1.
func checkRange(edges []graph.Edge, numVertices, workers int) (weighted bool, err error) {
	type scan struct {
		first    int
		weighted bool
	}
	s := sched.ParallelReduce(0, len(edges), 1<<16, workers, scan{first: len(edges)}, func(lo, hi int, s scan) scan {
		for i := lo; i < min(hi, s.first); i++ {
			if int(edges[i].Src) >= numVertices || int(edges[i].Dst) >= numVertices {
				s.first = i
				break
			}
			s.weighted = s.weighted || edges[i].W != 1
		}
		return s
	}, func(a, b scan) scan { return scan{min(a.first, b.first), a.weighted || b.weighted} })
	if s.first < len(edges) {
		return false, rangeError(edges, s.first, numVertices)
	}
	return s.weighted, nil
}

func rangeError(edges []graph.Edge, i, numVertices int) error {
	return fmt.Errorf("prep: edge %d (%d->%d) out of range (numVertices=%d)", i, edges[i].Src, edges[i].Dst, numVertices)
}

// edgeKey returns the sort key of an edge for the requested direction.
func edgeKey(e graph.Edge, byDst bool) graph.VertexID {
	if byDst {
		return e.Dst
	}
	return e.Src
}

// otherEnd returns the endpoint stored as the CSR target for the requested
// direction: the destination for out-adjacency, the source for in-adjacency.
func otherEnd(e graph.Edge, byDst bool) graph.VertexID {
	if byDst {
		return e.Src
	}
	return e.Dst
}
