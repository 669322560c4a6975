package prep

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
)

// referenceCSR is the serial definition of a stable build: every edge is
// appended to its key vertex's list in input order.
func referenceCSR(edges []graph.Edge, numVertices int, byDst bool) *graph.Adjacency {
	lists := make([][]graph.Edge, numVertices)
	for _, e := range edges {
		k := edgeKey(e, byDst)
		lists[k] = append(lists[k], e)
	}
	adj := &graph.Adjacency{Index: make([]uint64, numVertices+1), NumVertices: numVertices}
	for v, list := range lists {
		for _, e := range list {
			adj.Targets = append(adj.Targets, otherEnd(e, byDst))
			adj.Weights = append(adj.Weights, e.W)
		}
		adj.Index[v+1] = uint64(len(adj.Targets))
	}
	return adj
}

// mirrored is the serial definition of the list an undirected build sorts:
// every edge followed by its mirror, with the same weight, unless it is a
// self-loop.
func mirrored(edges []graph.Edge) []graph.Edge {
	out := make([]graph.Edge, 0, 2*len(edges))
	for _, e := range edges {
		out = append(out, e)
		if e.Src != e.Dst {
			out = append(out, graph.Edge{Src: e.Dst, Dst: e.Src, W: e.W})
		}
	}
	return out
}

// randomEdges draws m edges with both endpoints in [lo, hi) and distinct
// weights, so that an order change inside a vertex's list shows.
func randomEdges(m, lo, hi int, seed int64) []graph.Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{
			Src: graph.VertexID(lo + rng.Intn(hi-lo)),
			Dst: graph.VertexID(lo + rng.Intn(hi-lo)),
			W:   graph.Weight(i),
		}
	}
	return edges
}

type radixCase struct {
	name        string
	edges       []graph.Edge
	numVertices int
}

func radixCases() []radixCase {
	cases := []radixCase{
		{"empty", nil, 10},
		{"one-edge", []graph.Edge{{Src: 3, Dst: 1, W: 2}}, 5},
		{"self-loops-on-one-vertex", randomEdges(300, 7, 8, 1), 9},
		{"fewer-edges-than-workers", randomEdges(3, 0, 1000, 2), 1000},
		// Every edge touches vertex 5: one key when built by source.
		{"single-hub", nil, 5000},
		// 70,000 vertices give 35 buckets of 2048; all keys land in bucket 3.
		{"one-high-bits-bucket", randomEdges(20000, 3*2048, 4*2048, 3), 70000},
	}
	hub := randomEdges(20000, 0, 5000, 4)
	for i := range hub {
		hub[i].Src = 5
	}
	cases[4].edges = hub
	// Vertex counts around the digit and bucket-split boundaries; the edges
	// stop short of the last vertices, which stay isolated.
	for _, n := range []int{1, 255, 256, 257, 65536, 65537, 1<<20 + 3} {
		cases = append(cases, radixCase{fmt.Sprintf("n=%d", n), randomEdges(30000, 0, max(n-2, 1), int64(n)), n})
	}
	rmat := gen.RMAT(gen.RMATOptions{Scale: 14, Seed: 5, Weighted: true})
	return append(cases, radixCase{"rmat-14", rmat.EdgeArray.Edges, rmat.NumVertices()})
}

func equalCSR(a, b *graph.Adjacency) bool {
	return slices.Equal(a.Index, b.Index) && slices.Equal(a.Targets, b.Targets) && slices.Equal(a.Weights, b.Weights)
}

// TestRadixMatchesStableReference requires the radix builder's arrays — not
// just the multiset of edges — to equal the serial stable reference, for
// every direction and worker count, and the input to come back untouched.
// The undirected build's reference is the stable build of the mirrored list.
func TestRadixMatchesStableReference(t *testing.T) {
	for _, c := range radixCases() {
		before := slices.Clone(c.edges)
		wantOut := referenceCSR(c.edges, c.numVertices, false)
		wantIn := referenceCSR(c.edges, c.numVertices, true)
		wantUndirected := referenceCSR(mirrored(c.edges), c.numVertices, false)
		for _, workers := range []int{1, 2, 3, 8} {
			g := graph.New(c.edges, c.numVertices, true)
			if err := BuildAdjacency(g, InOut, Options{Method: RadixSort, Workers: workers}); err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			u := graph.New(c.edges, c.numVertices, false)
			if err := BuildAdjacency(u, Out, Options{Method: RadixSort, Workers: workers, Undirected: true}); err != nil {
				t.Fatalf("%s workers=%d undirected: %v", c.name, workers, err)
			}
			if !equalCSR(g.Out, wantOut) || !equalCSR(g.In, wantIn) || !equalCSR(u.Out, wantUndirected) {
				t.Errorf("%s workers=%d: out %v in %v undirected %v (true = identical to the stable reference)",
					c.name, workers, equalCSR(g.Out, wantOut), equalCSR(g.In, wantIn), equalCSR(u.Out, wantUndirected))
			}
		}
		if !slices.Equal(before, c.edges) {
			t.Errorf("%s: the build modified its input", c.name)
		}
	}
}

// TestBuildRejectsOutOfRangeEndpoint: a vertex count too small by one is an
// error from every builder, not an index panic, and the error numbers the
// edge as the input does — also in an undirected build, where the edges
// before it are mirrored and, in the second input, every third is a
// self-loop that is not.
func TestBuildRejectsOutOfRangeEndpoint(t *testing.T) {
	edges := randomEdges(5000, 0, 100, 6)
	edges[1234] = graph.Edge{Src: 7, Dst: 100, W: 1}
	edges[4321] = graph.Edge{Src: 100, Dst: 7, W: 1}
	loops := slices.Clone(edges)
	for i := 0; i < 1234; i += 3 {
		loops[i].Dst = loops[i].Src
	}
	const want = "prep: edge 1234 (7->100) out of range (numVertices=100)"
	for input, list := range [][]graph.Edge{edges, loops} {
		for _, m := range []Method{Dynamic, CountSort, RadixSort} {
			for _, c := range []struct {
				name string
				dir  Direction
				und  bool
			}{{"out", Out, false}, {"in", In, false}, {"undirected", Out, true}} {
				g := graph.New(list, 100, !c.und)
				err := BuildAdjacency(g, c.dir, Options{Method: m, Workers: 3, Undirected: c.und})
				if err == nil || err.Error() != want {
					t.Errorf("input %d %v %s: error %v, want %s", input, m, c.name, err, want)
				}
			}
			for _, und := range []bool{false, true} {
				g := graph.New(list, 100, !und)
				if err := BuildGrid(g, 4, Options{Method: m, Undirected: und}); err == nil || !strings.HasPrefix(err.Error(), want) {
					t.Errorf("input %d %v grid undirected=%v: error %v, want %s", input, m, und, err, want)
				}
			}
		}
	}
	g := graph.New(edges[:1234], 100, true)
	if err := BuildAdjacency(g, InOut, Options{Method: RadixSort}); err != nil {
		t.Errorf("in-range prefix rejected: %v", err)
	}
}
