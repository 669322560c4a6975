package graph

import "fmt"

// Grid is the cache-locality layout adapted from GridGraph (Section 5.1 and
// Figure 4): vertices are divided into P contiguous ranges, and cell (i,j)
// holds every edge whose source lies in range i and whose destination lies
// in range j. Iterating cell by cell keeps the metadata of the (at most
// NumVertices/P) vertices touched by a cell resident in the last-level
// cache.
//
// The grid also gives a natural lock-free parallelization (Section 6.1.2):
// cells in different columns have disjoint destination ranges, so assigning
// whole columns to workers makes push updates race-free; cells in different
// rows have disjoint source ranges, so assigning whole rows to workers makes
// pull updates race-free.
//
// Cells are stored in a single contiguous edge slice (CellIndex delimits
// them) so that streaming a cell has the same prefetch-friendly behaviour as
// streaming the edge array.
type Grid struct {
	// P is the number of ranges per dimension; the grid has P*P cells.
	P int
	// RangeSize is the number of vertex ids covered by each range
	// (ceil(NumVertices/P)); the last range may be partially used.
	RangeSize int
	// NumVertices is the vertex count of the underlying graph.
	NumVertices int
	// Edges holds all edges grouped by cell in row-major order: first every
	// cell of row 0 (source range 0), then row 1, and so on.
	Edges []Edge
	// CellIndex has P*P+1 entries; cell (i,j) occupies
	// Edges[CellIndex[i*P+j]:CellIndex[i*P+j+1]].
	CellIndex []uint64
	// Levels is the grid pyramid: virtual coarser resolutions (P, then
	// halving down to 1) sharing this grid's edge slice, built once at prep
	// time by BuildPyramid. Levels[0] is the grid itself. Empty on grids
	// whose pyramid was never built; the engine falls back to the fine
	// level.
	Levels []GridLevel
}

// DefaultGridP is the grid dimension found experimentally best in the paper
// for the Twitter and RMAT26 graphs (a 256x256 grid).
const DefaultGridP = 256

// GridVertexMetaBytes is the per-vertex metadata footprint the grid's cache
// argument is sized against: the 8-byte accumulator (PageRank's float64
// rank) that every destination update touches. It is what multiplies a
// range's vertex count into the working-set bytes compared against the LLC.
const GridVertexMetaBytes = 8

// DefaultLLCBytes is the last-level cache capacity every cache-fit
// decision is sized against: 16 MiB, the LLC of the paper's machine B, not
// the host's. GridPFor caps oversized requests against it, and the
// planner's grid-level priors price range misfit against it, so both give
// the same answer on every machine.
const DefaultLLCBytes = 16 << 20

// gridLLCRangeDivisor sets the per-range working-set target of the LLC-fit
// cap: a range whose destination metadata is below LLC/8 already leaves the
// rest of the cache to source metadata, frontier bitmaps and streamed edges
// (the paper's best 256x256 grid on RMAT26 puts ~2 MiB of a 16 MiB LLC in
// each range — exactly LLC/8), so splitting it further buys no locality and
// only multiplies cells.
const gridLLCRangeDivisor = 8

// GridPFor picks a grid dimension for a graph with numVertices vertices.
// The paper uses 256x256 for its large graphs; for small graphs a finer
// grid than one vertex per range is pointless, so P is capped so that each
// range holds at least a handful of vertices. Requests beyond the paper's
// default are additionally capped by LLC fit: halving P is free while the
// coarser ranges' vertex metadata still fits the per-range target of
// DefaultLLCBytes, so an oversized request settles at the resolution the
// cache can actually exploit. Requests at or below DefaultGridP are never
// reshaped — fixed-P runs stay reproducible.
func GridPFor(numVertices, requested int) int {
	p := requested
	if p <= 0 {
		p = DefaultGridP
	}
	const target = DefaultLLCBytes / gridLLCRangeDivisor
	for p > DefaultGridP && int64(numVertices)*GridVertexMetaBytes/int64(p/2) <= target {
		p /= 2
	}
	// Keep at least 4 vertices per range so cells are not degenerate on
	// small test graphs.
	for p > 1 && numVertices/p < 4 {
		p /= 2
	}
	if p < 1 {
		p = 1
	}
	return p
}

// RangeOf returns the range index that vertex v falls into.
func (g *Grid) RangeOf(v VertexID) int {
	return int(v) / g.RangeSize
}

// CellOf returns the cell coordinates of an edge.
func (g *Grid) CellOf(e Edge) (row, col int) {
	return g.RangeOf(e.Src), g.RangeOf(e.Dst)
}

// Cell returns the edge slice of cell (row, col) (shared storage).
func (g *Grid) Cell(row, col int) []Edge {
	idx := row*g.P + col
	return g.Edges[g.CellIndex[idx]:g.CellIndex[idx+1]]
}

// NumEdges returns the number of edges stored in the grid.
func (g *Grid) NumEdges() int { return len(g.Edges) }

// NumCells returns the number of cells (P*P).
func (g *Grid) NumCells() int { return g.P * g.P }

// Validate checks the grid invariants: index shape, monotonicity, and that
// every edge is stored in the cell its endpoints map to.
func (g *Grid) Validate() error {
	if g.P <= 0 {
		return fmt.Errorf("graph: grid has non-positive dimension %d", g.P)
	}
	if g.RangeSize <= 0 {
		return fmt.Errorf("graph: grid has non-positive range size %d", g.RangeSize)
	}
	if len(g.CellIndex) != g.P*g.P+1 {
		return fmt.Errorf("graph: grid cell index has %d entries, want %d", len(g.CellIndex), g.P*g.P+1)
	}
	if g.CellIndex[0] != 0 || g.CellIndex[g.P*g.P] != uint64(len(g.Edges)) {
		return fmt.Errorf("graph: grid cell index does not cover the edge slice")
	}
	for c := 0; c < g.P*g.P; c++ {
		if g.CellIndex[c] > g.CellIndex[c+1] {
			return fmt.Errorf("graph: grid cell index not monotone at cell %d", c)
		}
	}
	for row := 0; row < g.P; row++ {
		for col := 0; col < g.P; col++ {
			for _, e := range g.Cell(row, col) {
				r, c := g.CellOf(e)
				if r != row || c != col {
					return fmt.Errorf("graph: edge %d->%d stored in cell (%d,%d) but belongs to (%d,%d)",
						e.Src, e.Dst, row, col, r, c)
				}
			}
		}
	}
	if len(g.Levels) > 0 {
		return g.validatePyramid()
	}
	return nil
}
