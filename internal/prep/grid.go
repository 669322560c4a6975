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
// followed by its mirror in both passes. Cells hold (src, dst) pairs, plus
// a weight plane only when weighted.
func buildGridRadix(edges []graph.Edge, numVertices, requestedP int, mirror, weighted bool, workers int) *graph.Grid {
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
		Pairs:       []graph.Pair{},
		CellIndex:   make([]uint64, numCells+1),
	}
	if n == 0 {
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
	g.Pairs = make([]graph.Pair, running)
	if weighted {
		g.Weights = make([]graph.Weight, running)
	}
	sched.ParallelForChunked(0, numChunks, 1, workers, func(cLo, cHi int) {
		for c := cLo; c < cHi; c++ {
			offs := counts[c]
			put := func(e graph.Edge) {
				cell := cellOf(e)
				g.Pairs[offs[cell]] = graph.Pair{Src: e.Src, Dst: e.Dst}
				if weighted {
					g.Weights[offs[cell]] = e.W
				}
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
	return g
}

// buildGridDynamic builds the grid by appending each edge (and its mirror,
// if mirror) to a growable per-cell slice while scanning the input once,
// then flattening — the dynamic counterpart the paper compares against when
// the graph is loaded from slow storage (Section 5.1: "dynamically building
// the grid is faster otherwise").
func buildGridDynamic(edges []graph.Edge, numVertices, requestedP int, mirror, weighted bool) *graph.Grid {
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
		Pairs:       make([]graph.Pair, 0, slots),
		CellIndex:   make([]uint64, numCells+1),
	}
	if weighted {
		g.Weights = make([]graph.Weight, 0, slots)
	}
	for cell := 0; cell < numCells; cell++ {
		g.CellIndex[cell] = uint64(len(g.Pairs))
		for _, e := range cells[cell] {
			g.Pairs = append(g.Pairs, graph.Pair{Src: e.Src, Dst: e.Dst})
			if weighted {
				g.Weights = append(g.Weights, e.W)
			}
		}
	}
	g.CellIndex[numCells] = uint64(len(g.Pairs))
	return g
}

// mirrorEdge returns e reversed, with its weight.
func mirrorEdge(e graph.Edge) graph.Edge { return graph.Edge{Src: e.Dst, Dst: e.Src, W: e.W} }
