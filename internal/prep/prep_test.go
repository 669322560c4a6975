package prep

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

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
func canonical(a *graph.Adjacency) [][3]uint32 { return sortedTriples(a.Edges()) }

// sortedTriples returns the sorted (src,dst,weight) triples of edges.
func sortedTriples(edges []graph.Edge) [][3]uint32 {
	out := make([][3]uint32, len(edges))
	for i, e := range edges {
		out[i] = [3]uint32{e.Src, e.Dst, uint32(e.W)}
	}
	slices.SortFunc(out, func(a, b [3]uint32) int { return slices.Compare(a[:], b[:]) })
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

// TestUndirectedBuildsMirrorEdges: every builder, adjacency (keyed by
// either end) and grid, places each edge at both endpoints with its weight
// and a self-loop once.
func TestUndirectedBuildsMirrorEdges(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1, W: 2}, {Src: 2, Dst: 2, W: 3}, {Src: 1, Dst: 2, W: 4}}
	want := [][3]uint32{{0, 1, 2}, {1, 0, 2}, {1, 2, 4}, {2, 1, 4}, {2, 2, 3}}
	for _, m := range []Method{Dynamic, CountSort, RadixSort} {
		for _, dir := range []Direction{Out, In} {
			g := graph.New(edges, 3, false)
			if err := BuildAdjacency(g, dir, Options{Method: m, Undirected: true}); err != nil {
				t.Fatalf("%v %v: %v", m, dir, err)
			}
			adj := g.Out
			if dir == In {
				adj = g.In
			}
			if got := canonical(adj); !equalTriples(got, want) {
				t.Errorf("%v %v: adjacency %v, want %v", m, dir, got, want)
			}
		}
		g := graph.New(edges, 3, false)
		if err := BuildGrid(g, 2, Options{Method: m, Undirected: true}); err != nil {
			t.Fatalf("%v grid: %v", m, err)
		}
		if got := sortedTriples(gridEdges(g.Grid)); !equalTriples(got, want) {
			t.Errorf("%v grid: edges %v, want %v", m, got, want)
		}
	}
}

// TestUndirectedBuildsPreserveDegreeSum: on random edge lists, every
// undirected adjacency and grid build fills 2m - selfLoops slots.
func TestUndirectedBuildsPreserveDegreeSum(t *testing.T) {
	f := func(raw []uint16) bool {
		var edges []graph.Edge
		selfLoops := 0
		for i := 0; i+1 < len(raw); i += 2 {
			e := graph.Edge{Src: graph.VertexID(raw[i] % 64), Dst: graph.VertexID(raw[i+1] % 64), W: 1}
			edges = append(edges, e)
			if e.Src == e.Dst {
				selfLoops++
			}
		}
		slots := 2*len(edges) - selfLoops
		for _, m := range []Method{Dynamic, CountSort, RadixSort} {
			g := graph.New(edges, 64, false)
			if BuildAdjacency(g, Out, Options{Method: m, Workers: 2, Undirected: true}) != nil || g.Out.NumEdges() != slots {
				return false
			}
			if BuildGrid(g, 4, Options{Method: m, Workers: 2, Undirected: true}) != nil || g.Grid.NumEdges() != slots {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestUndirectedDoublesEdges: in an undirected build keyed by either end,
// each vertex's degree is its directed out-degree plus in-degree, less its
// self-loops, which appear once.
func TestUndirectedDoublesEdges(t *testing.T) {
	const n = 200
	g0 := randomGraph(n, 3000, 11)
	edges := append(g0.EdgeArray.Edges,
		graph.Edge{Src: 5, Dst: 5, W: 7}, graph.Edge{Src: 5, Dst: 5, W: 9}, graph.Edge{Src: 0, Dst: 0, W: 1})
	want := make([]int, n)
	for _, e := range edges {
		want[e.Src]++
		if e.Src != e.Dst {
			want[e.Dst]++
		}
	}
	for _, m := range []Method{Dynamic, CountSort, RadixSort} {
		for _, dir := range []Direction{Out, In} {
			g := graph.New(edges, n, true)
			if err := BuildAdjacency(g, dir, Options{Method: m, Workers: 3, Undirected: true}); err != nil {
				t.Fatalf("%v %v: %v", m, dir, err)
			}
			adj := g.Out
			if dir == In {
				adj = g.In
			}
			for v := range n {
				if got := adj.Degree(graph.VertexID(v)); got != want[v] {
					t.Fatalf("%v %v: degree(%d) = %d, want %d", m, dir, v, got, want[v])
				}
			}
		}
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
