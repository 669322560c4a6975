package prep

import (
	"testing"
	"testing/quick"

	"github.com/epfl-repro/everythinggraph/internal/graph"
)

func TestGridBuildersAgree(t *testing.T) {
	g := randomGraph(256, 3000, 4)
	gRadix := &graph.Graph{EdgeArray: g.EdgeArray, Directed: true}
	if err := BuildGrid(gRadix, 8, Options{Method: RadixSort}); err != nil {
		t.Fatalf("radix grid: %v", err)
	}
	gDyn := &graph.Graph{EdgeArray: g.EdgeArray, Directed: true}
	if err := BuildGrid(gDyn, 8, Options{Method: Dynamic}); err != nil {
		t.Fatalf("dynamic grid: %v", err)
	}
	if err := gRadix.Grid.Validate(); err != nil {
		t.Fatalf("radix grid invalid: %v", err)
	}
	if err := gDyn.Grid.Validate(); err != nil {
		t.Fatalf("dynamic grid invalid: %v", err)
	}
	if gRadix.Grid.P != gDyn.Grid.P {
		t.Fatalf("grid dimensions differ: %d vs %d", gRadix.Grid.P, gDyn.Grid.P)
	}
	// Cell-by-cell edge counts must match (ordering inside a cell may
	// differ between the builders).
	for row := 0; row < gRadix.Grid.P; row++ {
		for col := 0; col < gRadix.Grid.P; col++ {
			a, _ := gRadix.Grid.Cell(row, col)
			b, _ := gDyn.Grid.Cell(row, col)
			if len(a) != len(b) {
				t.Fatalf("cell (%d,%d): radix has %d edges, dynamic has %d", row, col, len(a), len(b))
			}
		}
	}
}

// gridEdges returns a grid's cells as edges, each pair with its weight.
func gridEdges(g *graph.Grid) []graph.Edge {
	ws := graph.PairWeights(g.Weights, len(g.Pairs))
	edges := make([]graph.Edge, len(g.Pairs))
	for i, e := range g.Pairs {
		edges[i] = graph.Edge{Src: e.Src, Dst: e.Dst, W: ws[i]}
	}
	return edges
}

// TestGridWeightPlaneOnlyWhenWeighted: both builders give a grid whose
// weights are all 1 no weight plane, and a weighted one a plane that keeps
// every edge's weight (checked through the multiset of triples).
func TestGridWeightPlaneOnlyWhenWeighted(t *testing.T) {
	unit := []graph.Edge{{Src: 0, Dst: 5, W: 1}, {Src: 6, Dst: 1, W: 1}}
	weighted := []graph.Edge{{Src: 0, Dst: 5, W: 1}, {Src: 6, Dst: 1, W: 3}, {Src: 2, Dst: 2, W: 0}}
	for _, m := range []Method{Dynamic, RadixSort} {
		g := graph.New(unit, 8, true)
		if err := BuildGrid(g, 2, Options{Method: m}); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if g.Grid.Weights != nil {
			t.Errorf("%v: unit-weight grid carries a %d-weight plane", m, len(g.Grid.Weights))
		}
		g = graph.New(weighted, 8, true)
		if err := BuildGrid(g, 2, Options{Method: m}); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if err := g.Grid.Validate(); err != nil || len(g.Grid.Weights) != len(weighted) {
			t.Fatalf("%v: weighted grid has %d weights for %d edges (%v)", m, len(g.Grid.Weights), len(weighted), err)
		}
		if got, want := sortedTriples(gridEdges(g.Grid)), sortedTriples(weighted); !equalTriples(got, want) {
			t.Errorf("%v: weighted grid holds %v, want %v", m, got, want)
		}
	}
}

func TestGridContainsAllEdges(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(128, 1000, seed)
		gc := &graph.Graph{EdgeArray: g.EdgeArray, Directed: true}
		if err := BuildGrid(gc, 4, Options{Method: RadixSort}); err != nil {
			return false
		}
		return gc.Grid.Validate() == nil && gc.Grid.NumEdges() == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGridUndirectedDoubling(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 5, W: 1}}
	g := graph.New(edges, 8, false)
	if err := BuildGrid(g, 2, Options{Method: RadixSort, Undirected: true}); err != nil {
		t.Fatalf("BuildGrid: %v", err)
	}
	if g.Grid.NumEdges() != 2 {
		t.Fatalf("undirected grid has %d edges, want 2", g.Grid.NumEdges())
	}
}

func TestGridEmptyGraph(t *testing.T) {
	g := graph.New(nil, 4, true)
	for _, m := range []Method{Dynamic, RadixSort} {
		gc := &graph.Graph{EdgeArray: g.EdgeArray, Directed: true}
		if err := BuildGrid(gc, 2, Options{Method: m}); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if err := gc.Grid.Validate(); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if gc.Grid.NumEdges() != 0 {
			t.Fatalf("%v: expected empty grid", m)
		}
	}
}

func TestGridUnknownMethod(t *testing.T) {
	g := randomGraph(10, 20, 1)
	if err := BuildGrid(g, 2, Options{Method: Method(99)}); err == nil {
		t.Fatal("expected error for unknown method")
	}
}
