package prep

import (
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/sched"
)

// buildGridRadix builds the grid by bucketing edges by their cell id, using
// the same chunked histogram + stable scatter machinery as the radix sort
// ("Instead of bucketing edges by source vertex, we bucket them by the cell
// to which they belong", Section 5.1). One pass suffices because the cell id
// is the sort key.
func buildGridRadix(edges []graph.Edge, numVertices, requestedP, workers int) *graph.Grid {
	p := graph.GridPFor(numVertices, requestedP)
	rangeSize := (numVertices + p - 1) / p
	if rangeSize == 0 {
		rangeSize = 1
	}
	numCells := p * p
	n := len(edges)

	g := &graph.Grid{
		P:           p,
		RangeSize:   rangeSize,
		NumVertices: numVertices,
		Edges:       make([]graph.Edge, n),
		CellIndex:   make([]uint64, numCells+1),
	}
	if n == 0 {
		g.BuildPyramid()
		return g
	}

	if workers <= 0 {
		workers = sched.MaxWorkers()
	}
	chunkSize := (n + workers - 1) / workers
	numChunks := (n + chunkSize - 1) / chunkSize

	cellOf := func(e graph.Edge) int {
		return (int(e.Src)/rangeSize)*p + int(e.Dst)/rangeSize
	}

	// Per-chunk histograms over cells.
	counts := make([][]uint64, numChunks)
	sched.ParallelForChunked(0, numChunks, 1, workers, func(cLo, cHi int) {
		for c := cLo; c < cHi; c++ {
			cnt := make([]uint64, numCells)
			lo := c * chunkSize
			hi := lo + chunkSize
			if hi > n {
				hi = n
			}
			for i := lo; i < hi; i++ {
				cnt[cellOf(edges[i])]++
			}
			counts[c] = cnt
		}
	})

	// Exclusive scan in (cell-major, chunk-minor) order; also fills the
	// grid's cell index.
	var running uint64
	for cell := 0; cell < numCells; cell++ {
		g.CellIndex[cell] = running
		for c := 0; c < numChunks; c++ {
			v := counts[c][cell]
			counts[c][cell] = running
			running += v
		}
	}
	g.CellIndex[numCells] = running

	// Scatter.
	sched.ParallelForChunked(0, numChunks, 1, workers, func(cLo, cHi int) {
		for c := cLo; c < cHi; c++ {
			offs := counts[c]
			lo := c * chunkSize
			hi := lo + chunkSize
			if hi > n {
				hi = n
			}
			for i := lo; i < hi; i++ {
				cell := cellOf(edges[i])
				g.Edges[offs[cell]] = edges[i]
				offs[cell]++
			}
		}
	})
	// The pyramid's level tables are part of pre-processing: building them
	// here is what keeps per-iteration level switches allocation-free.
	g.BuildPyramid()
	return g
}

// buildGridDynamic builds the grid by appending each edge to a growable
// per-cell slice while scanning the input once, then flattening — the
// dynamic counterpart the paper compares against when the graph is loaded
// from slow storage (Section 5.1: "dynamically building the grid is faster
// otherwise").
func buildGridDynamic(edges []graph.Edge, numVertices, requestedP int) *graph.Grid {
	p := graph.GridPFor(numVertices, requestedP)
	rangeSize := (numVertices + p - 1) / p
	if rangeSize == 0 {
		rangeSize = 1
	}
	numCells := p * p

	cells := make([][]graph.Edge, numCells)
	for _, e := range edges {
		cell := (int(e.Src)/rangeSize)*p + int(e.Dst)/rangeSize
		cells[cell] = append(cells[cell], e)
	}

	g := &graph.Grid{
		P:           p,
		RangeSize:   rangeSize,
		NumVertices: numVertices,
		Edges:       make([]graph.Edge, 0, len(edges)),
		CellIndex:   make([]uint64, numCells+1),
	}
	for cell := 0; cell < numCells; cell++ {
		g.CellIndex[cell] = uint64(len(g.Edges))
		g.Edges = append(g.Edges, cells[cell]...)
	}
	g.CellIndex[numCells] = uint64(len(g.Edges))
	g.BuildPyramid()
	return g
}
