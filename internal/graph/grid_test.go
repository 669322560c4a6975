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
		g.CellIndex[c] = uint64(len(g.Pairs))
		for _, e := range cells[c] {
			g.Pairs = append(g.Pairs, Pair{Src: e.Src, Dst: e.Dst})
		}
	}
	g.CellIndex[p*p] = uint64(len(g.Pairs))
	return g
}

// cellLen returns the edge count of cell (row, col).
func cellLen(g *Grid, row, col int) int {
	pairs, _ := g.Cell(row, col)
	return len(pairs)
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
	if got := cellLen(g, 0, 0); got != 2 {
		t.Fatalf("cell (0,0) has %d edges, want 2", got) // (0,1) and (1,0)
	}
	if got := cellLen(g, 0, 1); got != 2 {
		t.Fatalf("cell (0,1) has %d edges, want 2", got) // (0,2) and (0,3)
	}
	if got := cellLen(g, 1, 1); got != 1 {
		t.Fatalf("cell (1,1) has %d edges, want 1", got) // (2,3)
	}
	if got := cellLen(g, 1, 0); got != 0 {
		t.Fatalf("cell (1,0) has %d edges, want 0", got)
	}
}

func TestGridValidateCatchesMisplacedEdge(t *testing.T) {
	g := buildGridNaive([]Edge{{Src: 0, Dst: 3}}, 4, 2)
	// Corrupt: move the edge into the wrong cell by editing the index.
	g.Pairs[0] = Pair{Src: 3, Dst: 0}
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
				cell, _ := g.Cell(row, col)
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

func TestGridPForCapsOversizedRequests(t *testing.T) {
	for _, tc := range []struct {
		name                string
		numVertices, req, p int
	}{
		// A small graph cannot use a 4096-wide grid: per-range metadata is
		// far below the LLC target at that resolution, so the request caps
		// — but never below the paper's default.
		{"oversized request on a small graph", 1 << 20, 4096, DefaultGridP},
		// A graph whose metadata demands the finer grid keeps it: 2^28
		// vertices at 8 B/vertex is 2 GiB of metadata; even /512 ranges
		// exceed the per-range target, so the request stands.
		{"justified large request", 1 << 28, 512, 512},
		// Requests at or below the default are never reshaped (fixed-P
		// reproducibility), regardless of fit.
		{"default-sized request", 1 << 20, 256, 256},
		{"small request", 1 << 20, 64, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if p := GridPFor(tc.numVertices, tc.req); p != tc.p {
				t.Fatalf("GridPFor(%d, %d) = %d, want %d", tc.numVertices, tc.req, p, tc.p)
			}
		})
	}
}
