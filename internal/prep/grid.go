package prep

import (
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/sched"
)

// buildGridRadix builds the grid by bucketing edges by their cell id, using
// the same chunked histogram + stable scatter machinery as the radix sort
// ("Instead of bucketing edges by source vertex, we bucket them by the cell
// to which they belong", Section 5.1). One pass suffices because the cell id
// is the sort key. With mirror, every edge other than a self-loop is
// followed by its mirror in both passes.
func buildGridRadix(edges []graph.Edge, numVertices, requestedP int, mirror bool, workers int) *graph.Grid {
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
		Edges:       []graph.Edge{},
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
			for _, e := range edges[c*chunkSize : min((c+1)*chunkSize, n)] {
				cnt[cellOf(e)]++
				if mirror && e.Src != e.Dst {
					cnt[cellOf(mirrorEdge(e))]++
				}
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
	g.Edges = make([]graph.Edge, running)
	sched.ParallelForChunked(0, numChunks, 1, workers, func(cLo, cHi int) {
		for c := cLo; c < cHi; c++ {
			offs := counts[c]
			put := func(e graph.Edge) {
				cell := cellOf(e)
				g.Edges[offs[cell]] = e
				offs[cell]++
			}
			for _, e := range edges[c*chunkSize : min((c+1)*chunkSize, n)] {
				put(e)
				if mirror && e.Src != e.Dst {
					put(mirrorEdge(e))
				}
			}
		}
	})
	// The pyramid's level tables are part of pre-processing: building them
	// here is what keeps per-iteration level switches allocation-free.
	g.BuildPyramid()
	return g
}

// buildGridDynamic builds the grid by appending each edge (and its mirror,
// if mirror) to a growable per-cell slice while scanning the input once,
// then flattening — the dynamic counterpart the paper compares against when
// the graph is loaded from slow storage (Section 5.1: "dynamically building
// the grid is faster otherwise").
func buildGridDynamic(edges []graph.Edge, numVertices, requestedP int, mirror bool) *graph.Grid {
	p := graph.GridPFor(numVertices, requestedP)
	rangeSize := (numVertices + p - 1) / p
	if rangeSize == 0 {
		rangeSize = 1
	}
	numCells := p * p

	cells := make([][]graph.Edge, numCells)
	slots := 0
	add := func(e graph.Edge) {
		cell := (int(e.Src)/rangeSize)*p + int(e.Dst)/rangeSize
		cells[cell] = append(cells[cell], e)
		slots++
	}
	for _, e := range edges {
		add(e)
		if mirror && e.Src != e.Dst {
			add(mirrorEdge(e))
		}
	}

	g := &graph.Grid{
		P:           p,
		RangeSize:   rangeSize,
		NumVertices: numVertices,
		Edges:       make([]graph.Edge, 0, slots),
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

// mirrorEdge returns e reversed, with its weight.
func mirrorEdge(e graph.Edge) graph.Edge { return graph.Edge{Src: e.Dst, Dst: e.Src, W: e.W} }
