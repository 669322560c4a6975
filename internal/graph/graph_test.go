package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestMaxVertex(t *testing.T) {
	cases := []struct {
		name  string
		edges []Edge
		want  int
	}{
		{"empty", nil, 0},
		{"single self loop", []Edge{{Src: 0, Dst: 0}}, 1},
		{"simple", []Edge{{Src: 0, Dst: 5}, {Src: 3, Dst: 2}}, 6},
		{"src max", []Edge{{Src: 9, Dst: 1}}, 10},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := MaxVertex(c.edges); got != c.want {
				t.Fatalf("MaxVertex = %d, want %d", got, c.want)
			}
		})
	}
}

func TestNewEdgeArrayDerivesVertexCount(t *testing.T) {
	ea := NewEdgeArray([]Edge{{Src: 2, Dst: 7}}, 0)
	if ea.NumVertices != 8 {
		t.Fatalf("NumVertices = %d, want 8", ea.NumVertices)
	}
	if ea.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", ea.NumEdges())
	}
}

func TestEdgeArrayValidate(t *testing.T) {
	ok := NewEdgeArray([]Edge{{Src: 0, Dst: 1}}, 2)
	if err := ok.Validate(); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	bad := &EdgeArray{Edges: []Edge{{Src: 0, Dst: 5}}, NumVertices: 2}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestUndirectMirrorsEdges(t *testing.T) {
	edges := []Edge{{Src: 0, Dst: 1, W: 2}, {Src: 2, Dst: 2, W: 3}}
	und := Undirect(edges)
	// 0->1 is mirrored; the self loop is not duplicated.
	if len(und) != 3 {
		t.Fatalf("len = %d, want 3", len(und))
	}
	if und[1] != (Edge{Src: 1, Dst: 0, W: 2}) {
		t.Fatalf("mirror edge = %+v", und[1])
	}
}

func TestUndirectPreservesDegreeSum(t *testing.T) {
	f := func(raw []uint16) bool {
		// Build a random edge list from pairs of uint16 (bounded vertex ids).
		var edges []Edge
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{Src: VertexID(raw[i] % 64), Dst: VertexID(raw[i+1] % 64), W: 1})
		}
		und := Undirect(edges)
		selfLoops := 0
		for _, e := range edges {
			if e.Src == e.Dst {
				selfLoops++
			}
		}
		return len(und) == 2*len(edges)-selfLoops
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOutInDegrees(t *testing.T) {
	edges := []Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 2}}
	ea := NewEdgeArray(edges, 3)
	out := ea.OutDegrees()
	in := ea.InDegrees()
	if out[0] != 2 || out[1] != 1 || out[2] != 0 {
		t.Fatalf("out degrees = %v", out)
	}
	if in[0] != 0 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("in degrees = %v", in)
	}
}

// TestParallelEdgeScansMatchSerial: above edgeScanChunk edges MaxVertex and
// the degree tables are reduced from per-worker partials; the results are
// those of one serial scan, including with fewer edges than vertices.
func TestParallelEdgeScansMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 1000, 1 << 20} {
		edges := make([]Edge, 5*edgeScanChunk+123)
		wantOut, wantIn := make([]uint32, n), make([]uint32, n)
		wantMax := 0
		for i := range edges {
			// Squaring skews the endpoints towards a few hub vertices.
			s, d := rng.Intn(n), rng.Intn(n)
			s, d = s*s/n, d*d/n
			edges[i] = Edge{Src: VertexID(s), Dst: VertexID(d)}
			wantOut[s]++
			wantIn[d]++
			wantMax = max(wantMax, s+1, d+1)
		}
		if got := MaxVertex(edges); got != wantMax {
			t.Errorf("n=%d: MaxVertex = %d, want %d", n, got, wantMax)
		}
		ea := NewEdgeArray(edges, n)
		if !slices.Equal(ea.OutDegrees(), wantOut) || !slices.Equal(ea.InDegrees(), wantIn) {
			t.Errorf("n=%d: parallel degree tables differ from the serial count", n)
		}
	}
}

// TestSharedDegreesCountedOncePerGraph: the shared tables come from one scan
// — later calls return the same array — and are recounted only when the
// edge slice has changed length.
func TestSharedDegreesCountedOncePerGraph(t *testing.T) {
	ea := NewEdgeArray([]Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 2, Dst: 0}}, 3)
	out, in := ea.SharedOutDegrees(), ea.SharedInDegrees()
	if want := []uint32{2, 0, 1}; !slices.Equal(out, want) {
		t.Fatalf("out-degrees %v, want %v", out, want)
	}
	if want := []uint32{1, 1, 1}; !slices.Equal(in, want) {
		t.Fatalf("in-degrees %v, want %v", in, want)
	}
	// Prep permutes the edges in place; degrees are unaffected and the
	// tables must not be recounted.
	ea.Edges[0], ea.Edges[2] = ea.Edges[2], ea.Edges[0]
	if &ea.SharedOutDegrees()[0] != &out[0] || &ea.SharedInDegrees()[0] != &in[0] {
		t.Fatal("second call recounted the tables")
	}
	ea.Edges = append(ea.Edges, Edge{Src: 1, Dst: 1})
	if want := []uint32{2, 1, 1}; !slices.Equal(ea.SharedOutDegrees(), want) {
		t.Fatalf("out-degrees after append %v, want %v", ea.SharedOutDegrees(), want)
	}
}

func TestLayoutString(t *testing.T) {
	cases := map[Layout]string{
		LayoutEdgeArray:       "edge-array",
		LayoutAdjacency:       "adjacency",
		LayoutAdjacencySorted: "adjacency-sorted",
		LayoutGrid:            "grid",
		Layout(99):            "Layout(99)",
	}
	for l, want := range cases {
		if got := l.String(); got != want {
			t.Errorf("Layout(%d).String() = %q, want %q", int(l), got, want)
		}
	}
}

func TestGraphAccessors(t *testing.T) {
	g := New([]Edge{{Src: 0, Dst: 1}}, 4, true)
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if !g.Directed {
		t.Fatal("expected directed graph")
	}
}

// randomEdges builds a reproducible random edge list for property tests.
func randomEdges(n, m int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{
			Src: VertexID(rng.Intn(n)),
			Dst: VertexID(rng.Intn(n)),
			W:   Weight(rng.Intn(10) + 1),
		}
	}
	return edges
}
