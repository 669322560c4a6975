package prep

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/graph"
)

// randomGraph builds a reproducible random directed graph.
func randomGraph(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{
			Src: graph.VertexID(rng.Intn(n)),
			Dst: graph.VertexID(rng.Intn(n)),
			W:   graph.Weight(rng.Intn(16) + 1),
		}
	}
	return graph.New(edges, n, true)
}

// canonical returns the sorted (src,dst,weight) triples represented by an
// out-adjacency, so structurally different but equivalent CSRs compare
// equal.
func canonical(a *graph.Adjacency) [][3]uint32 {
	edges := a.Edges()
	out := make([][3]uint32, len(edges))
	for i, e := range edges {
		out[i] = [3]uint32{e.Src, e.Dst, uint32(e.W)}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		if out[i][1] != out[j][1] {
			return out[i][1] < out[j][1]
		}
		return out[i][2] < out[j][2]
	})
	return out
}

func equalTriples(a, b [][3]uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestAllMethodsProduceEquivalentOutAdjacency(t *testing.T) {
	g := randomGraph(200, 2000, 1)
	var ref [][3]uint32
	for _, m := range []Method{Dynamic, CountSort, RadixSort} {
		t.Run(m.String(), func(t *testing.T) {
			gc := &graph.Graph{EdgeArray: g.EdgeArray, Directed: true}
			if err := BuildAdjacency(gc, Out, Options{Method: m}); err != nil {
				t.Fatalf("BuildAdjacency: %v", err)
			}
			if err := gc.Out.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			got := canonical(gc.Out)
			if ref == nil {
				ref = got
				return
			}
			if !equalTriples(ref, got) {
				t.Fatal("adjacency differs between construction methods")
			}
		})
	}
}

func TestInAdjacencyContainsReversedEdges(t *testing.T) {
	g := randomGraph(100, 800, 2)
	if err := BuildAdjacency(g, InOut, Options{Method: RadixSort}); err != nil {
		t.Fatalf("BuildAdjacency: %v", err)
	}
	if err := g.Out.Validate(); err != nil {
		t.Fatalf("out: %v", err)
	}
	if err := g.In.Validate(); err != nil {
		t.Fatalf("in: %v", err)
	}
	// For every edge (u,v) in the input, v's in-neighbours contain u.
	inSet := make(map[[2]uint32]int)
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.In.Neighbors(graph.VertexID(v)) {
			inSet[[2]uint32{uint32(v), u}]++
		}
	}
	for _, e := range g.EdgeArray.Edges {
		key := [2]uint32{e.Dst, e.Src}
		if inSet[key] == 0 {
			t.Fatalf("in-adjacency missing edge %d<-%d", e.Dst, e.Src)
		}
		inSet[key]--
	}
}

func TestUndirectedDoublesEdges(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 2, W: 1}}
	g := graph.New(edges, 3, false)
	if err := BuildAdjacency(g, Out, Options{Method: CountSort, Undirected: true}); err != nil {
		t.Fatalf("BuildAdjacency: %v", err)
	}
	if g.Out.NumEdges() != 4 {
		t.Fatalf("undirected adjacency has %d edges, want 4", g.Out.NumEdges())
	}
	if g.Out.Degree(1) != 2 {
		t.Fatalf("degree(1) = %d, want 2", g.Out.Degree(1))
	}
}

func TestSortNeighborsOption(t *testing.T) {
	g := randomGraph(64, 512, 3)
	if err := BuildAdjacency(g, Out, Options{Method: RadixSort, SortNeighbors: true}); err != nil {
		t.Fatalf("BuildAdjacency: %v", err)
	}
	if !g.Out.SortedByTarget {
		t.Fatal("SortedByTarget not set")
	}
	if err := g.Out.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuildAdjacencyEmptyGraph(t *testing.T) {
	g := graph.New(nil, 10, true)
	for _, m := range []Method{Dynamic, CountSort, RadixSort} {
		gc := &graph.Graph{EdgeArray: g.EdgeArray, Directed: true}
		if err := BuildAdjacency(gc, InOut, Options{Method: m}); err != nil {
			t.Fatalf("%v on empty graph: %v", m, err)
		}
		if gc.Out.NumEdges() != 0 || gc.In.NumEdges() != 0 {
			t.Fatalf("%v: expected empty adjacency", m)
		}
		if err := gc.Out.Validate(); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

func TestBuildAdjacencySingleVertexSelfLoops(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 0, W: 1}, {Src: 0, Dst: 0, W: 2}}
	for _, m := range []Method{Dynamic, CountSort, RadixSort} {
		g := graph.New(edges, 1, true)
		if err := BuildAdjacency(g, Out, Options{Method: m}); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if g.Out.Degree(0) != 2 {
			t.Fatalf("%v: degree = %d, want 2", m, g.Out.Degree(0))
		}
	}
}

func TestRadixPasses(t *testing.T) {
	cases := []struct {
		vertices int
		want     int
	}{
		{1, 1}, {2, 1}, {256, 1}, {257, 2}, {65536, 2}, {65537, 3}, {1 << 24, 3}, {1<<24 + 1, 4},
	}
	for _, c := range cases {
		if got := RadixPasses(c.vertices); got != c.want {
			t.Errorf("RadixPasses(%d) = %d, want %d", c.vertices, got, c.want)
		}
	}
}

func TestMethodAndDirectionStrings(t *testing.T) {
	if Dynamic.String() != "dynamic" || CountSort.String() != "count-sort" || RadixSort.String() != "radix-sort" {
		t.Fatal("unexpected method names")
	}
	if Out.String() != "out" || In.String() != "in" || InOut.String() != "in-out" {
		t.Fatal("unexpected direction names")
	}
	if Method(42).String() == "" || Direction(42).String() == "" {
		t.Fatal("unknown values must still render")
	}
}

func TestBuildAdjacencyUnknownMethod(t *testing.T) {
	g := randomGraph(10, 20, 1)
	if err := BuildAdjacency(g, Out, Options{Method: Method(99)}); err == nil {
		t.Fatal("expected error for unknown method")
	}
}
