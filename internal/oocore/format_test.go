package oocore

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/core"
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
			want := cellEdges(grid.Cell(row, col))
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
			want := cellEdges(gridU.Cell(row, col))
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

// TestOpenRejectsOversizedHeaderBeforeAllocating: a header whose checksum
// is valid is still not trusted. Dimensions past the 32-bit id space, a
// grid whose cell count overflows, or metadata running past the end of the
// file must fail NewStore with an error before anything is sized from them
// (an allocation that large kills the process, past any recover).
// FuzzOpenStore cannot reach these headers: its mutations break the header
// CRC, so each row here reseals it.
func TestOpenRejectsOversizedHeaderBeforeAllocating(t *testing.T) {
	_, raw := storeBytes(t)
	h, _, err := decodeHeader(raw)
	if err != nil {
		t.Fatalf("decodeHeader: %v", err)
	}
	for _, c := range []struct {
		name  string
		patch func(img []byte) []byte
	}{
		{"2^33 vertices", func(img []byte) []byte {
			binary.LittleEndian.PutUint64(img[16:24], 1<<33)
			return img
		}},
		{"2^60 vertices", func(img []byte) []byte {
			binary.LittleEndian.PutUint64(img[16:24], 1<<60)
			return img
		}},
		{"2^32 vertices in a small file", func(img []byte) []byte {
			binary.LittleEndian.PutUint64(img[16:24], 1<<32)
			return img
		}},
		{"P=2^31", func(img []byte) []byte {
			binary.LittleEndian.PutUint32(img[32:36], 1<<31)
			binary.LittleEndian.PutUint32(img[36:40], 1)
			return img
		}},
		{"metadata one byte past EOF", func(img []byte) []byte {
			return img[:headerSize+h.metaSize()-1]
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			img := c.patch(append([]byte(nil), raw...))
			binary.LittleEndian.PutUint32(img[44:48], crc32.ChecksumIEEE(img[0:44]))
			s, err := openImage(img)
			if err == nil {
				s.Close()
				t.Fatal("NewStore accepted the header")
			}
			if strings.Contains(err.Error(), "checksum") {
				t.Fatalf("rejected on a checksum, not on the dimensions: %v", err)
			}
		})
	}
}

// TestStoreRecordsBitExact: the weight bit patterns a decode through float
// values could alter — NaNs with payloads, -0, subnormals, the infinities —
// reach the kernel unchanged through BuildStore then StreamCells.
func TestStoreRecordsBitExact(t *testing.T) {
	bits := []uint32{0x7fc00001, 0xffc12345, 0x7f800001, 0x80000000, 0x00000001, 0x807fffff, 0x7f800000, 0xff800000}
	const n = 64
	edges := make([]graph.Edge, len(bits))
	for i, b := range bits {
		edges[i] = graph.Edge{Src: graph.VertexID(i * 7), Dst: graph.VertexID(n - 1 - i), W: math.Float32frombits(b)}
	}
	path := filepath.Join(t.TempDir(), "weights.egs")
	if _, err := BuildStore(path, BuildOptions{NumVertices: n, GridP: 4}, SliceStream(edges, 3)); err != nil {
		t.Fatalf("BuildStore: %v", err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	pairs, weights, err := streamOnce(s)
	got := cellEdges(pairs, weights)
	if err != nil || len(got) != len(edges) {
		t.Fatalf("streamed %d edges, %v; want %d", len(got), err, len(edges))
	}
	for _, e := range got {
		i := int(e.Src) / 7
		if want := bits[i]; e.Dst != edges[i].Dst || math.Float32bits(e.W) != want {
			t.Fatalf("edge %d->%d streamed with weight bits %#x, want %d->%d with %#x",
				e.Src, e.Dst, math.Float32bits(e.W), edges[i].Src, edges[i].Dst, want)
		}
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
	if math.MaxInt > 1<<32 {
		if _, err := BuildStore(filepath.Join(t.TempDir(), "bad.egs"), BuildOptions{NumVertices: math.MaxInt}, SliceStream(nil, 0)); err == nil {
			t.Fatal("a vertex count past the 32-bit id space was not rejected")
		}
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
	if err := s.StreamCells(coreStreamOpts(1, 0), func(int, []graph.Pair, []graph.Weight) {
		t.Error("visit called on empty store")
	}); err != nil {
		t.Fatalf("StreamCells: %v", err)
	}
}

// TestOpenRejectsVersion1Store: a store of the retired 12-byte-record
// layout (its header resealed, so only the version is wrong) is refused at
// open with an error naming its version and the command that rebuilds it,
// without a panic and without keeping a descriptor or a goroutine.
func TestOpenRejectsVersion1Store(t *testing.T) {
	path, img := storeBytes(t)
	binary.LittleEndian.PutUint32(img[8:12], 1)
	binary.LittleEndian.PutUint32(img[44:48], crc32.ChecksumIEEE(img[:44]))
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	fds, goroutines := openFDs(t), runtime.NumGoroutine()
	s, err := Open(path)
	if err == nil {
		s.Close()
		t.Fatal("Open accepted a version-1 store")
	}
	for _, want := range []string{"version 1", "gengraph -format store"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Open returned %q, want it to name %q", err, want)
		}
	}
	if n := openFDs(t); n != fds {
		t.Errorf("%d descriptors open after the refused Open, %d before", n, fds)
	}
	waitGoroutines(t, goroutines, "refused Open")
}

// buildFormat is the builder of one store format: version 4 (pair records)
// or version 3 (compressed).
func buildFormat(compressed bool) func(string, *graph.Graph, int, bool) (Header, error) {
	if compressed {
		return BuildCompressedStoreFromGraph
	}
	return BuildStoreFromGraph
}

// formatName names a store format as the pinned hashes do: "v3" for the
// compressed format, "v4" for pair records.
func formatName(compressed bool) string {
	if compressed {
		return "v3"
	}
	return "v4"
}

// TestUnitWeightStoreHasNoPlane: a graph whose weights are all 1 (RMAT)
// gets no weight plane in either format: the file is the header, the
// metadata (with per-cell CRCs in version 3) and the records or offsets of
// each edge, and streamed slices carry nil weights.
func TestUnitWeightStoreHasNoPlane(t *testing.T) {
	g := testGraph(t, 10, false)
	for _, compressed := range []bool{false, true} {
		t.Run(formatName(compressed), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "unit.egs")
			h, err := buildFormat(compressed)(path, g, 8, false)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if h.Weighted {
				t.Fatal("unit-weight store carries a weight plane")
			}
			if want := headerSize + h.metaSize() + int64(h.edgeBytes())*h.NumEdges; info.Size() != want {
				t.Fatalf("store holds %d bytes, want header + metadata + %d x %d edges = %d",
					info.Size(), h.edgeBytes(), h.NumEdges, want)
			}
			s, err := Open(path)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer s.Close()
			pairs, weights, err := streamOnce(s)
			if err != nil || len(pairs) != g.NumEdges() || weights != nil {
				t.Fatalf("streamed %d pairs and %d weights (%v), want %d pairs and no weights",
					len(pairs), len(weights), err, g.NumEdges())
			}
		})
	}
}

// TestZeroWeightStoreKeepsPlane: the weight rule is "a plane when some
// weight is not 1" in both formats, so a graph whose weights are all 0
// gets a plane (4 bytes an edge after its records or offsets) and streams
// its zeros back rather than the ones a plane-less slot stands for.
func TestZeroWeightStoreKeepsPlane(t *testing.T) {
	g := testGraph(t, 10, false)
	for i := range g.EdgeArray.Edges {
		g.EdgeArray.Edges[i].W = 0
	}
	for _, compressed := range []bool{false, true} {
		t.Run(formatName(compressed), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "zero.egs")
			h, err := buildFormat(compressed)(path, g, 8, false)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if want := headerSize + h.metaSize() + int64(h.edgeBytes()+4)*h.NumEdges; !h.Weighted || info.Size() != want {
				t.Fatalf("weighted=%v, %d bytes; want a weight plane and %d bytes", h.Weighted, info.Size(), want)
			}
			s, err := Open(path)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer s.Close()
			pairs, weights, err := streamOnce(s)
			if err != nil || len(pairs) != g.NumEdges() || len(weights) != len(pairs) {
				t.Fatalf("streamed %d pairs and %d weights (%v), want %d of each",
					len(pairs), len(weights), err, g.NumEdges())
			}
			for i, w := range weights {
				if w != 0 {
					t.Fatalf("weight %d streamed as %v, want 0", i, w)
				}
			}
		})
	}
}

// TestWeightedRoadStoreStreamsSSSPBitIdentical: a weighted road lattice's
// store carries a weight plane in either format (4 bytes an edge after its
// records or offsets), and SSSP streamed from it, pushing and pulling,
// gives distances bit-identical to SSSP over the in-memory adjacency and
// grid.
func TestWeightedRoadStoreStreamsSSSPBitIdentical(t *testing.T) {
	g := gen.Road(gen.RoadOptions{Width: 48, Height: 48, ShortcutFraction: 0.1, Seed: 5, Weighted: true})
	const p = 8
	stores := map[bool]*Store{}
	for _, compressed := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "road.egs")
		h, err := buildFormat(compressed)(path, g, p, true)
		if err != nil {
			t.Fatalf("compressed=%v: build: %v", compressed, err)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := headerSize + h.metaSize() + int64(h.edgeBytes()+4)*h.NumEdges; !h.Weighted || info.Size() != want {
			t.Fatalf("compressed=%v: weighted=%v, %d bytes; want a weight plane and %d bytes",
				compressed, h.Weighted, info.Size(), want)
		}
		s, err := Open(path)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()
		stores[compressed] = s
	}

	if err := prep.BuildAdjacency(g, prep.Out, prep.Options{Undirected: true}); err != nil {
		t.Fatalf("BuildAdjacency: %v", err)
	}
	g.Grid = memGrid(t, g, p, true)
	ref := algorithms.NewSSSP(0)
	if _, err := core.Run(g, ref, core.Config{Layout: graph.LayoutAdjacency, Flow: core.Push, Sync: core.SyncAtomics, Workers: 2}); err != nil {
		t.Fatalf("in-memory adjacency run: %v", err)
	}
	want := ref.Distances()
	for _, c := range []struct {
		name  string
		flow  core.Flow
		store *Store
	}{
		{"grid-push", core.Push, nil}, {"grid-pull", core.Pull, nil},
		{"streamed-push", core.Push, stores[false]}, {"streamed-pull", core.Pull, stores[false]},
		{"v3-streamed-push", core.Push, stores[true]}, {"v3-streamed-pull", core.Pull, stores[true]},
	} {
		t.Run(c.name, func(t *testing.T) {
			sssp := algorithms.NewSSSP(0)
			cfg := streamConfig(c.flow, 32<<10)
			cfg.Workers = 2
			var err error
			if c.store != nil {
				_, err = core.RunStreamed(c.store, sssp, cfg)
			} else {
				_, err = core.Run(g, sssp, cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			got := sssp.Distances()
			for v := range want {
				if math.Float32bits(got[v]) != math.Float32bits(want[v]) {
					t.Fatalf("dist[%d] = %v, in-memory adjacency %v", v, got[v], want[v])
				}
			}
		})
	}
}
