package oocore

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/core"
	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/storage"
	"github.com/epfl-repro/everythinggraph/internal/trace"
)

// These tests cover the compressed (version-3, fixed-width offset) store —
// "V2" in their names for the second store format, as in the
// stream.pagerank.v2 benchmark workload: round-trip identity against the
// in-memory grid, streamed bit-identity against both the version-4 store
// and the in-memory path (including under a paced slow device, the -race
// target), compression-ratio accounting, and clean failure on every class
// of corrupt segment — CRC-mismatched payload, offsets past their range or
// the vertex count, decoded-count overflow, the retired version 2.

// buildTestStoreV2 writes g as a compressed (version-2) store and opens it.
func buildTestStoreV2(t *testing.T, g *graph.Graph, gridP int, undirected bool) *Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "graph.egs2")
	if _, err := BuildCompressedStoreFromGraph(path, g, gridP, undirected); err != nil {
		t.Fatalf("BuildCompressedStoreFromGraph: %v", err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestStoreV2RoundTripMatchesInMemoryGrid(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := testGraph(t, 10, weighted)
		const p = 8
		s := buildTestStoreV2(t, g, p, false)
		grid := memGrid(t, g, p, false)

		h := s.Header()
		if h.Version != FormatVersionCompressed {
			t.Fatalf("store version %d, want %d", h.Version, FormatVersionCompressed)
		}
		if !s.Compressed() {
			t.Fatal("v2 store does not report Compressed()")
		}
		if h.Weighted != weighted {
			t.Fatalf("weighted flag %v, want %v", h.Weighted, weighted)
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
					t.Fatalf("weighted=%v ReadCell(%d,%d): %v", weighted, row, col, err)
				}
				want := cellEdges(grid.Cell(row, col))
				if len(buf) != len(want) {
					t.Fatalf("cell (%d,%d): %d edges, want %d", row, col, len(buf), len(want))
				}
				for i := range want {
					if buf[i] != want[i] {
						t.Fatalf("weighted=%v cell (%d,%d) edge %d: %v != %v", weighted, row, col, i, buf[i], want[i])
					}
				}
			}
		}
	}
}

func TestStoreV2StreamsEveryEdgeOnce(t *testing.T) {
	g := testGraph(t, 10, true)
	s := buildTestStoreV2(t, g, 8, false)
	for _, workers := range []int{1, 3, 8} {
		all, _ := collectStream(t, s, coreStreamOpts(workers, 0))
		if len(all) != g.NumEdges() {
			t.Fatalf("workers=%d: streamed %d edges, want %d", workers, len(all), g.NumEdges())
		}
		want := edgeMultiset(g.EdgeArray.Edges)
		got := edgeMultiset(all)
		for e, n := range want {
			if got[e] != n {
				t.Fatalf("workers=%d: edge %v delivered %d times, want %d", workers, e, got[e], n)
			}
		}
	}
}

// TestStoreV2CompressionRatio is the acceptance-scale size check: on
// RMAT-16 the compressed payload (plus index overhead) must be at least 3x
// smaller than the binary edge file's 12-byte records.
func TestStoreV2CompressionRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("RMAT-16 build skipped in short mode")
	}
	g := gen.RMAT(gen.RMATOptions{Scale: 16, EdgeFactor: 16, Seed: 42})
	path := filepath.Join(t.TempDir(), "rmat16.egs2")
	h, err := BuildCompressedStoreFromGraph(path, g, 0, false)
	if err != nil {
		t.Fatalf("BuildCompressedStoreFromGraph: %v", err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	raw := h.NumEdges * storage.EdgeBytes
	stored := h.NumEdges * int64(s.edgeBytes)
	if ratio := float64(raw) / float64(stored); ratio < 3 {
		t.Fatalf("RMAT-16 compression ratio %.2f (%d -> %d bytes), want >= 3", ratio, raw, stored)
	}
}

// TestStreamedV2BitIdenticalToV1AndMemory is the core acceptance contract:
// PageRank (push and pull) and SpMV streamed from a v2 store must be
// bit-identical to the v4 store and the in-memory grid; WCC labels must
// match exactly.
func TestStreamedV2BitIdenticalToV1AndMemory(t *testing.T) {
	const p = 8
	const budget = 128 << 10

	for _, flow := range []core.Flow{core.Push, core.Pull} {
		g := testGraph(t, 12, false)
		g.Grid = memGrid(t, g, p, false)
		prMem := algorithms.NewPageRank()
		if _, err := core.Run(g, prMem, gridConfig(flow)); err != nil {
			t.Fatalf("in-memory run (%v): %v", flow, err)
		}
		prV1 := algorithms.NewPageRank()
		if _, err := core.RunStreamed(buildTestStore(t, g, p, false), prV1, streamConfig(flow, budget)); err != nil {
			t.Fatalf("v4 streamed run (%v): %v", flow, err)
		}
		s2 := buildTestStoreV2(t, g, p, false)
		prV2 := algorithms.NewPageRank()
		if _, err := core.RunStreamed(s2, prV2, streamConfig(flow, budget)); err != nil {
			t.Fatalf("v2 streamed run (%v): %v", flow, err)
		}
		for v := range prMem.Rank {
			if prV2.Rank[v] != prMem.Rank[v] || prV2.Rank[v] != prV1.Rank[v] {
				t.Fatalf("flow %v: rank[%d] = %v v2, %v v4, %v in-memory", flow, v, prV2.Rank[v], prV1.Rank[v], prMem.Rank[v])
			}
		}
	}

	// SpMV: weighted, so the v2 store restores W from its weight plane.
	g := testGraph(t, 10, true)
	g.Grid = memGrid(t, g, p, false)
	mMem := algorithms.NewSpMV()
	if _, err := core.Run(g, mMem, gridConfig(core.Push)); err != nil {
		t.Fatalf("in-memory SpMV: %v", err)
	}
	s2 := buildTestStoreV2(t, g, p, false)
	if !s2.Header().Weighted {
		t.Fatal("weighted graph built an unweighted v2 store")
	}
	mV2 := algorithms.NewSpMV()
	if _, err := core.RunStreamed(s2, mV2, streamConfig(core.Push, 64<<10)); err != nil {
		t.Fatalf("v2 streamed SpMV: %v", err)
	}
	want, got := mMem.Result(), mV2.Result()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("y[%d] = %v v2, %v in-memory", v, got[v], want[v])
		}
	}

	// WCC: undirected mirroring at build time, label-identical.
	gw := testGraph(t, 12, false)
	gw.Grid = memGrid(t, gw, p, true)
	wccMem := algorithms.NewWCC()
	if _, err := core.Run(gw, wccMem, gridConfig(core.Push)); err != nil {
		t.Fatalf("in-memory WCC: %v", err)
	}
	sw := buildTestStoreV2(t, gw, p, true)
	if !sw.Undirected() {
		t.Fatal("mirrored v2 store does not report Undirected()")
	}
	wccV2 := algorithms.NewWCC()
	if _, err := core.RunStreamed(sw, wccV2, streamConfig(core.Push, budget)); err != nil {
		t.Fatalf("v2 streamed WCC: %v", err)
	}
	for v := range wccMem.Labels {
		if wccV2.Labels[v] != wccMem.Labels[v] {
			t.Fatalf("label[%d] = %d v2, %d in-memory", v, wccV2.Labels[v], wccMem.Labels[v])
		}
	}
}

// TestStreamedV2PacedSlowDevice is the -race acceptance scenario on the
// compressed path: a slow device keeps the fetchers starved while the
// decode runs in the fetch pipeline, and the result must stay bit-identical
// to the in-memory grid.
func TestStreamedV2PacedSlowDevice(t *testing.T) {
	g := testGraph(t, 10, false)
	const p = 8
	g.Grid = memGrid(t, g, p, false)
	prMem := algorithms.NewPageRank()
	prMem.Iterations = 3
	if _, err := core.Run(g, prMem, gridConfig(core.Push)); err != nil {
		t.Fatalf("in-memory run: %v", err)
	}

	s := openSlowStore(t, storeImage(t, g, p, true), 8)
	prOOC := algorithms.NewPageRank()
	prOOC.Iterations = 3
	if _, err := core.RunStreamed(s, prOOC, streamConfig(core.Push, 64<<10)); err != nil {
		t.Fatalf("v2 streamed run: %v", err)
	}
	for v := range prMem.Rank {
		if prOOC.Rank[v] != prMem.Rank[v] {
			t.Fatalf("rank[%d] = %v v2 slow device, %v in-memory", v, prOOC.Rank[v], prMem.Rank[v])
		}
	}
	if s.Stats().IOWait == 0 {
		t.Fatal("slow device produced no measured I/O wait")
	}
}

// TestStreamedV2AutoPlansCompressed checks the planner integration end to
// end: an adaptive streamed run over a v2 store plans every iteration as
// it does over a v4 store of the same graph — a streamed grid plan, frozen
// for dense PageRank — and gives the same rank bits. The formats differ
// in how a pass is fed, not in what it plans.
func TestStreamedV2AutoPlansCompressed(t *testing.T) {
	g := testGraph(t, 12, false)
	cfg := core.Config{Flow: core.Auto, MemoryBudget: 1 << 20}
	prV1 := algorithms.NewPageRank()
	prV1.Iterations = 4
	resV1, err := core.RunStreamed(buildTestStore(t, g, 8, false), prV1, cfg)
	if err != nil {
		t.Fatalf("auto streamed run over v4: %v", err)
	}
	pr := algorithms.NewPageRank()
	pr.Iterations = 4
	res, err := core.RunStreamed(buildTestStoreV2(t, g, 8, false), pr, cfg)
	if err != nil {
		t.Fatalf("auto streamed run: %v", err)
	}
	if len(res.PerIteration) == 0 || len(res.PerIteration) != len(resV1.PerIteration) {
		t.Fatalf("%d per-iteration stats over v2, %d over v4", len(res.PerIteration), len(resV1.PerIteration))
	}
	for i, it := range res.PerIteration {
		label := it.Plan.String()
		if !strings.HasPrefix(label, "grid/") || label != resV1.PerIteration[i].Plan.String() {
			t.Fatalf("iteration %d planned %q over v2, %q over v4; want the same grid/ plan",
				it.Iteration, label, resV1.PerIteration[i].Plan.String())
		}
	}
	for v := range pr.Rank {
		if pr.Rank[v] != prV1.Rank[v] {
			t.Fatalf("rank[%d] = %v v2, %v v4", v, pr.Rank[v], prV1.Rank[v])
		}
	}
}

// --- corrupt-segment scenarios ---

// buildV2Image builds a compressed store for a small graph and returns its
// raw file image. Unit weights keep the store plane-less, so every byte of
// the image is under a checksum and patches to the edge count do not also
// have to resize a weight plane.
func buildV2Image(t testing.TB, scale, gridP int) []byte {
	t.Helper()
	g := testGraph(t, scale, false)
	path := filepath.Join(t.TempDir(), "graph.egs3")
	if _, err := BuildCompressedStoreFromGraph(path, g, gridP, false); err != nil {
		t.Fatalf("BuildCompressedStoreFromGraph: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	return raw
}

// v2Layout decodes the structural fields of a compressed image needed to
// patch it: grid dimension, metadata offsets of the cell index and cell
// CRCs, the data offset and the bytes per edge.
type v2Layout struct {
	p, numCells  int
	rangeSize    int
	cellIndexOff int // file offset of the cell index
	cellCRCOff   int // file offset of the per-cell CRCs
	dataOff      int
	edgeBytes    int // 2w: two range offsets
}

func parseV2Layout(t *testing.T, img []byte) v2Layout {
	t.Helper()
	p := int(binary.LittleEndian.Uint32(img[32:36]))
	v := int(binary.LittleEndian.Uint64(img[16:24]))
	numCells := p * p
	l := v2Layout{p: p, numCells: numCells, rangeSize: int(binary.LittleEndian.Uint32(img[36:40]))}
	l.cellIndexOff = headerSize
	l.cellCRCOff = l.cellIndexOff + (numCells+1)*8 + v*4
	l.dataOff = l.cellCRCOff + numCells*4
	l.edgeBytes = 2 * graph.CellOffsetWidth(l.rangeSize)
	return l
}

func (l v2Layout) cellIndex(img []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(img[l.cellIndexOff+i*8:])
}

// payload returns the bounds of cell c's payload in the image.
func (l v2Layout) payload(img []byte, c int) (lo, hi int) {
	return l.dataOff + int(l.cellIndex(img, c))*l.edgeBytes, l.dataOff + int(l.cellIndex(img, c+1))*l.edgeBytes
}

// refreshCRCs recomputes the metadata and header checksums after a patch,
// so the mutation under test is the only inconsistency left in the image.
func refreshCRCs(img []byte, l v2Layout) {
	meta := img[headerSize:l.dataOff]
	binary.LittleEndian.PutUint32(img[40:44], crc32.ChecksumIEEE(meta))
	binary.LittleEndian.PutUint32(img[44:48], crc32.ChecksumIEEE(img[:44]))
}

// refreshCellCRC recomputes cell c's payload checksum (and the metadata and
// header checksums over it), so only the decoder can notice a payload patch.
func refreshCellCRC(img []byte, l v2Layout, c int) {
	lo, hi := l.payload(img, c)
	binary.LittleEndian.PutUint32(img[l.cellCRCOff+c*4:], crc32.ChecksumIEEE(img[lo:hi]))
	refreshCRCs(img, l)
}

// largestCell returns the cell with the most decoded edges.
func (l v2Layout) largestCell(img []byte) int {
	best, bestN := 0, uint64(0)
	for c := 0; c < l.numCells; c++ {
		if n := l.cellIndex(img, c+1) - l.cellIndex(img, c); n > bestN {
			best, bestN = c, n
		}
	}
	return best
}

// openImage opens a store over an in-memory image.
func openImage(img []byte) (*Store, error) {
	return NewStore(bytesBackend(img), int64(len(img)))
}

type bytesBackend []byte

func (b bytesBackend) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(b)) {
		return 0, os.ErrInvalid
	}
	n := copy(p, b[off:])
	if n < len(p) {
		return n, os.ErrInvalid
	}
	return n, nil
}

// streamErr runs one streamed pass and returns its error.
func streamErr(s *Store) error {
	return s.StreamCells(coreStreamOpts(2, 0), func(int, []graph.Pair, []graph.Weight) {})
}

func TestV2CRCMismatchedPayloadFailsCleanly(t *testing.T) {
	img := buildV2Image(t, 8, 4)
	l := parseV2Layout(t, img)
	c := l.largestCell(img)
	// Flip a payload byte without updating the cell's CRC: Open (which only
	// checks metadata) succeeds, the fetch pipeline must refuse the cell.
	lo, _ := l.payload(img, c)
	img[lo] ^= 0xff
	s, err := openImage(img)
	if err != nil {
		t.Fatalf("Open rejected a store whose corruption is payload-only: %v", err)
	}
	defer s.Close()
	if err := streamErr(s); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("corrupt payload streamed with err=%v, want checksum mismatch", err)
	}
	// The pipeline must come out of the abort clean and fail again, not hang
	// or deliver partial data.
	if err := streamErr(s); err == nil {
		t.Fatal("second pass over the corrupt store succeeded")
	}
	if _, err := s.ReadCell(c/l.p, c%l.p, nil); err == nil {
		t.Fatal("ReadCell accepted a CRC-mismatched payload")
	}
	if s.Stats().Passes != 0 {
		t.Fatalf("aborted passes were counted: %d", s.Stats().Passes)
	}
}

// buildShortLastRangeStore writes a 250-vertex graph, vertex 249 included,
// on a 4x4 grid of 63-wide ranges — the last range runs to 252, past the
// vertex count — and returns the store's path.
func buildShortLastRangeStore(t *testing.T, compressed bool) string {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	const n = 250
	edges := make([]graph.Edge, 2000)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n)), W: graph.Weight(i % 7)}
	}
	edges[0] = graph.Edge{Src: n - 1, Dst: n - 1, W: 1}
	path := filepath.Join(t.TempDir(), "short.egs")
	if _, err := BuildStore(path, BuildOptions{NumVertices: n, GridP: 4, Compressed: compressed}, SliceStream(edges, 0)); err != nil {
		t.Fatalf("BuildStore: %v", err)
	}
	return path
}

// TestStoreV2LastRangePastNumVertices: a compressed store whose last range
// extends past the vertex count holds the same cells as its v4 twin.
func TestStoreV2LastRangePastNumVertices(t *testing.T) {
	stores := make([]*Store, 2)
	for i, compressed := range []bool{false, true} {
		s, err := Open(buildShortLastRangeStore(t, compressed))
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()
		stores[i] = s
	}
	v4, v3 := stores[0], stores[1]
	if h := v3.Header(); h.RangeSize != 63 || h.P*h.RangeSize <= h.NumVertices {
		t.Fatalf("header %+v: the last range does not run past the vertex count", h)
	}
	var want, got []graph.Edge
	var err error
	for cell := 0; cell < 16; cell++ {
		if want, err = v4.ReadCell(cell/4, cell%4, want); err != nil {
			t.Fatalf("v4 ReadCell: %v", err)
		}
		if got, err = v3.ReadCell(cell/4, cell%4, got); err != nil {
			t.Fatalf("v3 ReadCell: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("cell %d: %d edges, want %d", cell, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cell %d edge %d: %v, want %v", cell, i, got[i], want[i])
			}
		}
	}
}

// TestV3OutOfRangeOffsetFailsCleanly: an offset past its cell's range, and
// one inside the range but past the vertex count (buildShortLastRangeStore),
// under a recomputed CRC,
// fail in the decoder — on the streamed path and through ReadCell.
func TestV3OutOfRangeOffsetFailsCleanly(t *testing.T) {
	const n = 250
	path := buildShortLastRangeStore(t, true)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	l := parseV2Layout(t, orig)
	if l.rangeSize != 63 || l.edgeBytes != 2 {
		t.Fatalf("store has range %d and %d bytes per edge, want 63 and 2", l.rangeSize, l.edgeBytes)
	}
	for _, tc := range []struct {
		name   string
		cell   int
		offset byte
		want   string
	}{
		{"past-range", 0, 0xff, "outside range of 63"},
		// The last cell's ranges both run past vertex 249.
		{"past-vertex-count", l.numCells - 1, n - 3*63, "outside range of 61"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := append([]byte(nil), orig...)
			lo, hi := l.payload(img, tc.cell)
			if hi == lo {
				t.Fatalf("cell %d is empty", tc.cell)
			}
			img[lo+1] = tc.offset // the first edge's destination offset
			refreshCellCRC(img, l, tc.cell)
			s, err := openImage(img)
			if err != nil {
				t.Fatalf("Open rejected the offset patch early: %v", err)
			}
			defer s.Close()
			if err := streamErr(s); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("patched cell streamed with err=%v, want %q", err, tc.want)
			}
			if _, err := s.ReadCell(tc.cell/l.p, tc.cell%l.p, nil); err == nil {
				t.Fatal("ReadCell accepted the patched cell")
			}
		})
	}
}

func TestV2DecodedCountOverflowFailsCleanly(t *testing.T) {
	img := buildV2Image(t, 10, 2)
	l := parseV2Layout(t, img)
	c := l.largestCell(img)
	// Inflate the cell's decoded count by one (shifting every later index
	// entry and the header edge total) and grow the file by one edge, so the
	// metadata is self-consistent and the size check passes: the cell's
	// payload window now takes one edge of its neighbour (or the appended
	// bytes), which its CRC must refuse.
	for i := c + 1; i <= l.numCells; i++ {
		binary.LittleEndian.PutUint64(img[l.cellIndexOff+i*8:], l.cellIndex(img, i)+1)
	}
	binary.LittleEndian.PutUint64(img[24:32], binary.LittleEndian.Uint64(img[24:32])+1)
	img = append(img, make([]byte, l.edgeBytes)...)
	refreshCRCs(img, l)

	s, err := openImage(img)
	if err != nil {
		t.Fatalf("Open rejected the inflated count early (the cell check was never exercised): %v", err)
	}
	defer s.Close()
	if err := streamErr(s); err == nil {
		t.Fatal("inflated decoded count streamed without error")
	}
	if _, err := s.ReadCell(c/l.p, c%l.p, nil); err == nil {
		t.Fatal("ReadCell accepted an inflated decoded count")
	}
}

// TestOpenRejectsVersion2Store: the retired delta+varint layout is refused
// at open with an error that names its version.
func TestOpenRejectsVersion2Store(t *testing.T) {
	img := buildV2Image(t, 8, 4)
	binary.LittleEndian.PutUint32(img[8:12], 2)
	refreshCRCs(img, parseV2Layout(t, img))
	if _, err := openImage(img); err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("version-2 image opened with err=%v, want an error naming version 2", err)
	}
}

func TestV2OpenRejectsTruncatedFile(t *testing.T) {
	img := buildV2Image(t, 8, 4)
	for _, cut := range []int{1, 3, 64} {
		if _, err := openImage(img[:len(img)-cut]); err == nil {
			t.Errorf("truncating %d bytes was not rejected", cut)
		}
	}
}

// TestStreamV2PassSteadyStateZeroAlloc pins the zero-allocation contract on
// the compressed fetch path: decode runs into recycled slot scratch, and a
// recorder attached to the pass takes its fetch and stall spans into the
// preallocated ring.
func TestStreamV2PassSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	g := testGraph(t, 12, false)
	s := buildTestStoreV2(t, g, 8, false)
	for _, tc := range []struct {
		name string
		rec  *trace.Recorder
	}{
		{"untraced", nil},
		{"traced", trace.NewRecorder(0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := coreStreamOpts(0, 1<<20)
			opt.Trace = tc.rec
			var total int64
			visit := countingVisit(&total)
			for i := 0; i < 3; i++ {
				if err := s.StreamCells(opt, visit); err != nil {
					t.Fatalf("warmup pass: %v", err)
				}
			}
			allocs := testing.AllocsPerRun(10, func() {
				if err := s.StreamCells(opt, visit); err != nil {
					t.Fatalf("measured pass: %v", err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state v2 pass allocates %v objects, want 0", allocs)
			}
			if total == 0 {
				t.Fatal("visit never ran")
			}
		})
	}
}

// TestTracedV2RunAllocationsAreSetupOnly: a traced static-flow run over the
// compressed store allocates while it sets up and when it snapshots its
// metrics — about a hundred objects — and nothing per iteration. Perf cases
// that divide a whole run's allocations by well under a hundred iterations
// (pagerank_rmat_streamed_v2_traced_iter's "1 alloc/op" in BENCH_8-10) are
// reading that fixed cost, so the check here is that it does not grow with
// the iteration count beyond the result slice's few doublings.
func TestTracedV2RunAllocationsAreSetupOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	g := testGraph(t, 12, false)
	s := buildTestStoreV2(t, g, 8, false)
	runAllocs := func(iterations int) float64 {
		return testing.AllocsPerRun(3, func() {
			pr := algorithms.NewPageRank()
			pr.Iterations = iterations
			cfg := core.Config{Layout: graph.LayoutGrid, Flow: core.Pull, Sync: core.SyncPartitionFree,
				MemoryBudget: 1 << 20, Trace: trace.NewRecorder(1 << 10)}
			if _, err := core.RunStreamed(s, pr, cfg); err != nil {
				t.Fatalf("RunStreamed: %v", err)
			}
		})
	}
	const short, long = 16, 16 + 128
	if few, many := runAllocs(short), runAllocs(long); many-few > 16 {
		t.Fatalf("%d more iterations cost %v more allocations (%v -> %v); the iteration path must not allocate",
			long-short, many-few, few, many)
	}
}
