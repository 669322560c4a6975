package graph

import (
	"testing"
	"testing/quick"
)

// buildGridNaive builds a grid with the simplest possible method, used as a
// reference by the tests in this package (the production builders live in
// internal/prep and are tested against their own invariants there).
func buildGridNaive(edges []Edge, numVertices, p int) *Grid {
	rangeSize := (numVertices + p - 1) / p
	if rangeSize == 0 {
		rangeSize = 1
	}
	cells := make([][]Edge, p*p)
	for _, e := range edges {
		cell := (int(e.Src)/rangeSize)*p + int(e.Dst)/rangeSize
		cells[cell] = append(cells[cell], e)
	}
	g := &Grid{P: p, RangeSize: rangeSize, NumVertices: numVertices, CellIndex: make([]uint64, p*p+1)}
	for c := 0; c < p*p; c++ {
		g.CellIndex[c] = uint64(len(g.Edges))
		g.Edges = append(g.Edges, cells[c]...)
	}
	g.CellIndex[p*p] = uint64(len(g.Edges))
	return g
}

func TestGridPForClampsSmallGraphs(t *testing.T) {
	if p := GridPFor(1<<20, 0); p != DefaultGridP {
		t.Fatalf("large graph should keep default P, got %d", p)
	}
	if p := GridPFor(16, 0); p > 4 {
		t.Fatalf("small graph should clamp P, got %d", p)
	}
	if p := GridPFor(0, 0); p < 1 {
		t.Fatalf("P must stay positive, got %d", p)
	}
	if p := GridPFor(1024, 8); p != 8 {
		t.Fatalf("explicit request should be honoured, got %d", p)
	}
}

func TestGridPaperExample(t *testing.T) {
	// The example of Figure 4: 4 vertices, ranges {0,1} and {2,3}.
	edges := []Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 0}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 2, Dst: 3},
	}
	g := buildGridNaive(edges, 4, 2)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := len(g.Cell(0, 0)); got != 2 {
		t.Fatalf("cell (0,0) has %d edges, want 2", got) // (0,1) and (1,0)
	}
	if got := len(g.Cell(0, 1)); got != 2 {
		t.Fatalf("cell (0,1) has %d edges, want 2", got) // (0,2) and (0,3)
	}
	if got := len(g.Cell(1, 1)); got != 1 {
		t.Fatalf("cell (1,1) has %d edges, want 1", got) // (2,3)
	}
	if got := len(g.Cell(1, 0)); got != 0 {
		t.Fatalf("cell (1,0) has %d edges, want 0", got)
	}
}

func TestGridValidateCatchesMisplacedEdge(t *testing.T) {
	g := buildGridNaive([]Edge{{Src: 0, Dst: 3}}, 4, 2)
	// Corrupt: move the edge into the wrong cell by editing the index.
	g.Edges[0] = Edge{Src: 3, Dst: 0}
	if err := g.Validate(); err == nil {
		t.Fatal("expected misplaced-edge error")
	}
}

func TestGridForEachCellVisitsEveryEdgeOnce(t *testing.T) {
	f := func(seed int64) bool {
		edges := randomEdges(50, 300, seed)
		g := buildGridNaive(edges, 50, 4)
		count := 0
		for row := 0; row < g.P; row++ {
			for col := 0; col < g.P; col++ {
				cell := g.Cell(row, col)
				for _, e := range cell {
					r, c := g.CellOf(e)
					if r != row || c != col {
						t.Fatalf("edge %v reported in wrong cell", e)
					}
				}
				count += len(cell)
			}
		}
		return count == len(edges)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGridCellContainmentProperty(t *testing.T) {
	f := func(seed int64) bool {
		edges := randomEdges(64, 256, seed)
		g := buildGridNaive(edges, 64, 8)
		return g.Validate() == nil && g.NumEdges() == len(edges) && g.NumCells() == 64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
