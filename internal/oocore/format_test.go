package oocore

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/prep"
)

// testGraph generates a small deterministic RMAT graph.
func testGraph(t testing.TB, scale int, weighted bool) *graph.Graph {
	t.Helper()
	return gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: 8, Seed: 7, Weighted: weighted})
}

// buildTestStore writes g as a store in a temp dir and opens it.
func buildTestStore(t *testing.T, g *graph.Graph, gridP int, undirected bool) *Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "graph.egs")
	if _, err := BuildStoreFromGraph(path, g, gridP, undirected); err != nil {
		t.Fatalf("BuildStoreFromGraph: %v", err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// memGrid builds the in-memory reference grid with the same dimensions.
func memGrid(t *testing.T, g *graph.Graph, gridP int, undirected bool) *graph.Grid {
	t.Helper()
	gg := &graph.Graph{EdgeArray: g.EdgeArray, Directed: g.Directed}
	if err := prep.BuildGrid(gg, gridP, prep.Options{Method: prep.RadixSort, Undirected: undirected}); err != nil {
		t.Fatalf("BuildGrid: %v", err)
	}
	return gg.Grid
}

func TestStoreRoundTripMatchesInMemoryGrid(t *testing.T) {
	g := testGraph(t, 10, true)
	const p = 8
	s := buildTestStore(t, g, p, false)
	grid := memGrid(t, g, p, false)

	h := s.Header()
	if h.NumVertices != g.NumVertices() || h.P != grid.P || h.RangeSize != grid.RangeSize {
		t.Fatalf("header %+v does not match grid (v=%d p=%d range=%d)",
			h, g.NumVertices(), grid.P, grid.RangeSize)
	}
	if h.NumEdges != int64(grid.NumEdges()) {
		t.Fatalf("store has %d edges, grid has %d", h.NumEdges, grid.NumEdges())
	}
	var buf []graph.Edge
	var err error
	for row := 0; row < p; row++ {
		for col := 0; col < p; col++ {
			buf, err = s.ReadCell(row, col, buf)
			if err != nil {
				t.Fatalf("ReadCell(%d,%d): %v", row, col, err)
			}
			want := grid.Cell(row, col)
			if len(buf) != len(want) {
				t.Fatalf("cell (%d,%d): %d edges, want %d", row, col, len(buf), len(want))
			}
			for i := range want {
				if buf[i] != want[i] {
					t.Fatalf("cell (%d,%d) edge %d: %v != %v", row, col, i, buf[i], want[i])
				}
			}
		}
	}
	wantDeg := g.EdgeArray.OutDegrees()
	gotDeg := s.OutDegrees()
	for v := range wantDeg {
		if gotDeg[v] != wantDeg[v] {
			t.Fatalf("degree[%d] = %d, want %d", v, gotDeg[v], wantDeg[v])
		}
	}
}

func TestStoreUndirectedMirrorsEdges(t *testing.T) {
	g := testGraph(t, 8, false)
	const p = 4
	s := buildTestStore(t, g, p, false)
	su := buildTestStore(t, g, p, true)
	gridU := memGrid(t, g, p, true)

	if !su.Undirected() || s.Undirected() {
		t.Fatalf("undirected flags: mirrored=%v plain=%v", su.Undirected(), s.Undirected())
	}
	if su.NumEdges() != int64(gridU.NumEdges()) {
		t.Fatalf("mirrored store has %d edges, undirected grid has %d", su.NumEdges(), gridU.NumEdges())
	}
	var buf []graph.Edge
	var err error
	for row := 0; row < p; row++ {
		for col := 0; col < p; col++ {
			buf, err = su.ReadCell(row, col, buf)
			if err != nil {
				t.Fatalf("ReadCell: %v", err)
			}
			want := gridU.Cell(row, col)
			if len(buf) != len(want) {
				t.Fatalf("cell (%d,%d): %d edges, want %d", row, col, len(buf), len(want))
			}
			for i := range want {
				if buf[i] != want[i] {
					t.Fatalf("cell (%d,%d) edge %d: %v != %v", row, col, i, buf[i], want[i])
				}
			}
		}
	}
}

// storeBytes builds a store and returns its raw file image plus the path.
func storeBytes(t *testing.T) (string, []byte) {
	t.Helper()
	g := testGraph(t, 8, false)
	path := filepath.Join(t.TempDir(), "graph.egs")
	if _, err := BuildStoreFromGraph(path, g, 4, false); err != nil {
		t.Fatalf("BuildStoreFromGraph: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	return path, raw
}

// reopen writes image to a fresh file and opens it, returning the error.
func reopen(t *testing.T, image []byte) error {
	t.Helper()
	path := filepath.Join(t.TempDir(), "mutated.egs")
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	s, err := Open(path)
	if err == nil {
		s.Close()
	}
	return err
}

func TestOpenRejectsCorruptHeader(t *testing.T) {
	_, raw := storeBytes(t)
	for _, off := range []int{0, 9, 17, 33, 41} { // magic, version, vertices, P, metaCRC
		img := append([]byte(nil), raw...)
		img[off] ^= 0xff
		if err := reopen(t, img); err == nil {
			t.Errorf("corrupting byte %d was not rejected", off)
		}
	}
}

func TestOpenRejectsCorruptMetadata(t *testing.T) {
	_, raw := storeBytes(t)
	img := append([]byte(nil), raw...)
	img[headerSize+3] ^= 0xff // inside the cell index
	if err := reopen(t, img); err == nil {
		t.Fatal("corrupt metadata was not rejected")
	}
}

func TestOpenRejectsTruncatedSegments(t *testing.T) {
	_, raw := storeBytes(t)
	for _, cut := range []int{1, 7, 12, 100} {
		img := raw[:len(raw)-cut]
		if err := reopen(t, img); err == nil {
			t.Errorf("truncating %d bytes was not rejected", cut)
		}
	}
	// Truncating into the metadata block must also fail.
	if err := reopen(t, raw[:headerSize+4]); err == nil {
		t.Fatal("metadata truncation was not rejected")
	}
	if err := reopen(t, raw[:10]); err == nil {
		t.Fatal("header truncation was not rejected")
	}
}

func TestBuildStoreRejectsOutOfRangeEdges(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 9, W: 1}}
	_, err := BuildStore(filepath.Join(t.TempDir(), "bad.egs"),
		BuildOptions{NumVertices: 4}, SliceStream(edges, 0))
	if err == nil {
		t.Fatal("out-of-range edge was not rejected")
	}
}

func TestBuildStoreRequiresNumVertices(t *testing.T) {
	if _, err := BuildStore(filepath.Join(t.TempDir(), "bad.egs"), BuildOptions{}, SliceStream(nil, 0)); err == nil {
		t.Fatal("missing NumVertices was not rejected")
	}
}

func TestSliceStreamChunks(t *testing.T) {
	edges := make([]graph.Edge, 10)
	for i := range edges {
		edges[i] = graph.Edge{Src: uint32(i), Dst: uint32(i), W: 1}
	}
	var got []graph.Edge
	chunks := 0
	err := SliceStream(edges, 4)(func(chunk []graph.Edge) error {
		chunks++
		got = append(got, chunk...)
		return nil
	})
	if err != nil {
		t.Fatalf("SliceStream: %v", err)
	}
	if chunks != 3 || len(got) != 10 {
		t.Fatalf("chunks=%d edges=%d, want 3 chunks of 10 edges", chunks, len(got))
	}
}

func TestEmptyStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.egs")
	if _, err := BuildStore(path, BuildOptions{NumVertices: 16, GridP: 2}, SliceStream(nil, 0)); err != nil {
		t.Fatalf("BuildStore: %v", err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if s.NumEdges() != 0 {
		t.Fatalf("empty store has %d edges", s.NumEdges())
	}
	if err := s.StreamCells(coreStreamOpts(1, 0), func(int, []graph.Edge) {
		t.Error("visit called on empty store")
	}); err != nil {
		t.Fatalf("StreamCells: %v", err)
	}
}
