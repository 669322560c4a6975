package graph

import (
	"sort"
	"testing"
	"testing/quick"
)

// buildCSRNaive builds an out-adjacency CSR with the simplest possible
// method, used as a reference in these tests.
func buildCSRNaive(edges []Edge, numVertices int) *Adjacency {
	per := make([][]Edge, numVertices)
	for _, e := range edges {
		per[e.Src] = append(per[e.Src], e)
	}
	adj := &Adjacency{
		Index:       make([]uint64, numVertices+1),
		NumVertices: numVertices,
	}
	for v := 0; v < numVertices; v++ {
		adj.Index[v] = uint64(len(adj.Targets))
		for _, e := range per[v] {
			adj.Targets = append(adj.Targets, e.Dst)
			adj.Weights = append(adj.Weights, e.W)
		}
	}
	adj.Index[numVertices] = uint64(len(adj.Targets))
	return adj
}

func TestCSRNeighborsAndDegrees(t *testing.T) {
	edges := []Edge{{Src: 0, Dst: 1, W: 5}, {Src: 0, Dst: 2, W: 6}, {Src: 2, Dst: 0, W: 7}}
	adj := buildCSRNaive(edges, 3)
	if err := adj.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if adj.Degree(0) != 2 || adj.Degree(1) != 0 || adj.Degree(2) != 1 {
		t.Fatalf("unexpected degrees: %d %d %d", adj.Degree(0), adj.Degree(1), adj.Degree(2))
	}
	if got := adj.Neighbors(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Neighbors(0) = %v", got)
	}
	if got := adj.NeighborWeights(0); got[0] != 5 || got[1] != 6 {
		t.Fatalf("NeighborWeights(0) = %v", got)
	}
	if adj.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d", adj.NumEdges())
	}
}

func TestCSRValidateCatchesCorruption(t *testing.T) {
	adj := buildCSRNaive([]Edge{{Src: 0, Dst: 1}}, 2)

	broken := *adj
	broken.Index = []uint64{0, 2} // wrong length
	if err := broken.Validate(); err == nil {
		t.Error("expected error for wrong index length")
	}

	broken2 := buildCSRNaive([]Edge{{Src: 0, Dst: 1}}, 2)
	broken2.Targets[0] = 9 // out of range
	if err := broken2.Validate(); err == nil {
		t.Error("expected error for out-of-range target")
	}

	broken3 := buildCSRNaive([]Edge{{Src: 0, Dst: 1}}, 2)
	broken3.Index[1] = 5 // not monotone / exceeds
	if err := broken3.Validate(); err == nil {
		t.Error("expected error for broken index")
	}

	broken4 := buildCSRNaive([]Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 0}}, 2)
	broken4.SortedByTarget = true // 1,0 is not sorted
	if err := broken4.Validate(); err == nil {
		t.Error("expected error for false sorted flag")
	}
}

func TestSortNeighborsSortsAndKeepsWeightsAligned(t *testing.T) {
	edges := []Edge{
		{Src: 0, Dst: 3, W: 30}, {Src: 0, Dst: 1, W: 10}, {Src: 0, Dst: 2, W: 20},
		{Src: 1, Dst: 0, W: 1},
	}
	adj := buildCSRNaive(edges, 4)
	adj.SortNeighbors()
	if !adj.SortedByTarget {
		t.Fatal("SortedByTarget not set")
	}
	if err := adj.Validate(); err != nil {
		t.Fatalf("Validate after sort: %v", err)
	}
	nb := adj.Neighbors(0)
	w := adj.NeighborWeights(0)
	for i := range nb {
		if Weight(nb[i]*10) != w[i] {
			t.Fatalf("weight misaligned after sort: neighbor %d has weight %v", nb[i], w[i])
		}
	}
}

func TestCSREdgesRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		edges := randomEdges(40, 200, seed)
		adj := buildCSRNaive(edges, 40)
		back := adj.Edges()
		if len(back) != len(edges) {
			return false
		}
		// The multiset of edges must be preserved.
		key := func(e Edge) [3]uint32 { return [3]uint32{e.Src, e.Dst, uint32(e.W)} }
		a := make(map[[3]uint32]int)
		for _, e := range edges {
			a[key(e)]++
		}
		for _, e := range back {
			a[key(e)]--
		}
		for _, c := range a {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCSRSortedPropertyHolds(t *testing.T) {
	f := func(seed int64) bool {
		edges := randomEdges(32, 128, seed)
		adj := buildCSRNaive(edges, 32)
		adj.SortNeighbors()
		for v := 0; v < adj.NumVertices; v++ {
			nb := adj.Neighbors(VertexID(v))
			if !sort.SliceIsSorted(nb, func(i, j int) bool { return nb[i] < nb[j] }) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestCSRWithoutWeights: a nil Weights column reads as all ones through
// every accessor, and sorting permutes the targets alone.
func TestCSRWithoutWeights(t *testing.T) {
	edges := randomEdges(40, 400, 9)
	adj := buildCSRNaive(edges, 40)
	adj.Weights = nil
	if err := adj.Validate(); err != nil {
		t.Fatalf("Validate with nil weights: %v", err)
	}
	for i, e := range adj.Edges() {
		if e.W != 1 {
			t.Fatalf("Edges()[%d].W = %v, want 1", i, e.W)
		}
	}
	for v := 0; v < adj.NumVertices; v++ {
		ws := adj.NeighborWeights(VertexID(v))
		if len(ws) != adj.Degree(VertexID(v)) {
			t.Fatalf("NeighborWeights(%d) has %d entries, want %d", v, len(ws), adj.Degree(VertexID(v)))
		}
		for _, w := range ws {
			if w != 1 {
				t.Fatalf("NeighborWeights(%d) holds %v", v, w)
			}
		}
	}

	want := buildCSRNaive(edges, 40)
	want.SortNeighborsParallel(2)
	adj.SortNeighborsParallel(2)
	if !adj.SortedByTarget || adj.Weights != nil {
		t.Fatalf("after sort: SortedByTarget %v, Weights %v", adj.SortedByTarget, adj.Weights)
	}
	if err := adj.Validate(); err != nil {
		t.Fatalf("Validate after sort: %v", err)
	}
	for i := range want.Targets {
		if adj.Targets[i] != want.Targets[i] {
			t.Fatalf("target %d = %d after a targets-only sort, %d after the weighted one", i, adj.Targets[i], want.Targets[i])
		}
	}

	short := buildCSRNaive(edges, 40)
	short.Weights = short.Weights[:len(short.Weights)-1]
	if err := short.Validate(); err == nil {
		t.Error("Validate accepted a Weights column shorter than Targets")
	}
	short.Weights = []Weight{}
	if err := short.Validate(); err == nil {
		t.Error("Validate accepted an empty non-nil Weights column")
	}
}
