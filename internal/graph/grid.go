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
// whole columns to workers makes destination updates race-free. Pull, like
// push, is column-owned: a pull updates destinations too.
//
// Cells are stored in a single contiguous slice of (src, dst) pairs
// (CellIndex delimits them) so that streaming a cell has the same
// prefetch-friendly behaviour as streaming the edge array, with a parallel
// weight plane only when some weight is not 1.
type Grid struct {
	// P is the number of ranges per dimension; the grid has P*P cells.
	P int
	// RangeSize is the number of vertex ids covered by each range
	// (ceil(NumVertices/P)); the last range may be partially used.
	RangeSize int
	// NumVertices is the vertex count of the underlying graph.
	NumVertices int
	// Pairs holds all edges grouped by cell in row-major order: first every
	// cell of row 0 (source range 0), then row 1, and so on.
	Pairs []Pair
	// Weights is the weight plane parallel to Pairs, nil when every weight
	// is 1 (an unweighted adjacency's rule); PairWeights reads either.
	Weights []Weight
	// CellIndex has P*P+1 entries; cell (i,j) occupies
	// Pairs[CellIndex[i*P+j]:CellIndex[i*P+j+1]].
	CellIndex []uint64
}

// DefaultGridP is the grid dimension found experimentally best in the paper
// for the Twitter and RMAT26 graphs (a 256x256 grid).
const DefaultGridP = 256

// gridVertexMetaBytes is the per-vertex metadata footprint the grid's cache
// argument is sized against: the 8-byte accumulator (PageRank's float64
// rank) that every destination update touches. It is what multiplies a
// range's vertex count into the working-set bytes compared against the LLC.
const gridVertexMetaBytes = 8

// defaultLLCBytes is the last-level cache capacity every cache-fit
// decision is sized against: 16 MiB, the LLC of the paper's machine B, not
// the host's. GridPFor caps oversized requests against it, so it gives the
// same answer on every machine.
const defaultLLCBytes = 16 << 20

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
// defaultLLCBytes, so an oversized request settles at the resolution the
// cache can actually exploit. Requests at or below DefaultGridP are never
// reshaped — fixed-P runs stay reproducible.
func GridPFor(numVertices, requested int) int {
	p := requested
	if p <= 0 {
		p = DefaultGridP
	}
	const target = defaultLLCBytes / gridLLCRangeDivisor
	for p > DefaultGridP && int64(numVertices)*gridVertexMetaBytes/int64(p/2) <= target {
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
func (g *Grid) CellOf(e Pair) (row, col int) {
	return g.RangeOf(e.Src), g.RangeOf(e.Dst)
}

// Cell returns the pairs of cell (row, col) and their weights, nil when the
// grid is unweighted (shared storage).
func (g *Grid) Cell(row, col int) ([]Pair, []Weight) {
	idx := row*g.P + col
	lo, hi := g.CellIndex[idx], g.CellIndex[idx+1]
	if g.Weights == nil {
		return g.Pairs[lo:hi], nil
	}
	return g.Pairs[lo:hi], g.Weights[lo:hi]
}

// NumEdges returns the number of edges stored in the grid.
func (g *Grid) NumEdges() int { return len(g.Pairs) }

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
	if g.CellIndex[0] != 0 || g.CellIndex[g.P*g.P] != uint64(len(g.Pairs)) {
		return fmt.Errorf("graph: grid cell index does not cover the pairs")
	}
	if g.Weights != nil && len(g.Weights) != len(g.Pairs) {
		return fmt.Errorf("graph: grid weight plane holds %d weights for %d pairs", len(g.Weights), len(g.Pairs))
	}
	for c := 0; c < g.P*g.P; c++ {
		if g.CellIndex[c] > g.CellIndex[c+1] {
			return fmt.Errorf("graph: grid cell index not monotone at cell %d", c)
		}
	}
	for row := 0; row < g.P; row++ {
		for col := 0; col < g.P; col++ {
			pairs, _ := g.Cell(row, col)
			for _, e := range pairs {
				r, c := g.CellOf(e)
				if r != row || c != col {
					return fmt.Errorf("graph: edge %d->%d stored in cell (%d,%d) but belongs to (%d,%d)",
						e.Src, e.Dst, row, col, r, c)
				}
			}
		}
	}
	return nil
}
