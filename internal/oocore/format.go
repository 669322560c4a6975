// Package oocore extends the grid layout (Section 5.1) beyond RAM: a graph
// is partitioned into the same P x P grid of cells the in-memory engine
// iterates, but the cells live in a disk file and are streamed through a
// bounded set of buffers while the algorithm runs. The package provides
//
//   - an on-disk partitioned format: a checksummed header, the cell index,
//     a per-vertex out-degree table (the vertex metadata an out-of-core run
//     keeps resident), and the per-cell edge segments in row-major order;
//   - a bounded-memory two-pass builder that partitions an edge stream into
//     the format without ever materializing the full edge slice;
//   - a streaming executor (see prefetch.go) that feeds grid cells to the
//     engine's partition-free column scheduling while asynchronously
//     prefetching the next segments, so I/O overlaps compute exactly as the
//     loading/pre-processing overlap of Sections 3.4-3.5 overlaps the
//     in-memory pipeline.
package oocore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/storage"
)

// Format constants. A version-1 store file is laid out as
//
//	[ header (48 bytes, CRC-protected) ]
//	[ metadata: cell index ((P*P+1) x uint64), out-degrees (V x uint32) ]
//	[ edge data: numEdges x 12-byte records, cells in row-major order ]
//
// All integers are little-endian. Edge records use the same encoding as the
// flat binary edge format (src uint32, dst uint32, weight float32 bits), so
// a cell segment is itself a valid flat edge file.
//
// A version-3 store holds the same cells compressed: each edge is its
// source offset then its destination offset inside its cell, w bytes each
// (graph.AppendCellEdge), where w = graph.CellOffsetWidth(RangeSize) is the
// fewest bytes that hold RangeSize-1 — 1 on 256-wide ranges, 2 on
// 1,024-wide ones, at most 4:
//
//	[ header (48 bytes; version 3, flagWeighted when a weight plane exists) ]
//	[ metadata: cell index, out-degrees,
//	            per-cell payload CRCs (P*P x uint32) ]
//	[ payload: numEdges x 2w bytes, cells in row-major order ]
//	[ weight plane (flagWeighted only): numEdges x float32 bits,
//	  in edge order ]
//
// Every cell's payload is exactly 2w bytes per edge, so the cell index
// locates payload and weights alike. Each payload is CRC-protected
// individually so a corrupt segment is detected at the cell that holds it,
// before any of its edges reach a kernel. Version 2 (delta+varint cells with
// a per-cell byte-offset table) is no longer read.
const (
	// Magic identifies a partitioned grid store.
	Magic = "EGRIDST1"
	// FormatVersion is the raw-record layout version.
	FormatVersion = 1
	// FormatVersionCompressed is the compressed (fixed-width offset) layout
	// version.
	FormatVersionCompressed = 3
	// formatVersionVarint is the retired delta+varint layout, named only to
	// reject it clearly.
	formatVersionVarint = 2
	// headerSize is the fixed byte size of the header block.
	headerSize = 48
	// maxCells bounds P*P so that metaSize cannot overflow.
	maxCells = 1 << 58
	// flagUndirected marks a store whose edges were mirrored at build time
	// (each input edge stored in both directions), as required by WCC.
	flagUndirected = 1 << 0
	// flagWeighted marks a compressed store that carries a weight plane
	// (version 3 only; version 1 records always embed their weight).
	flagWeighted = 1 << 1
)

// Header is the decoded fixed-size store header.
type Header struct {
	// NumVertices is the vertex count of the dataset.
	NumVertices int
	// NumEdges is the number of stored edge records (after any mirroring).
	NumEdges int64
	// P is the grid dimension; the file holds P*P cell segments.
	P int
	// RangeSize is the vertex-id width of each grid range.
	RangeSize int
	// Undirected reports whether edges were mirrored at build time.
	Undirected bool
	// Version is the format version (FormatVersion or
	// FormatVersionCompressed). Zero means FormatVersion.
	Version int
	// Weighted reports whether a compressed store carries a weight plane.
	Weighted bool
}

// metaSize returns the byte size of the metadata block for a header: cell
// index and degrees, plus (version 3) per-cell CRCs.
func (h Header) metaSize() int64 {
	size := int64(h.P*h.P+1)*8 + int64(h.NumVertices)*4
	if h.Version == FormatVersionCompressed {
		size += int64(h.P*h.P) * 4
	}
	return size
}

// dataOffset returns the file offset of the first edge record.
func (h Header) dataOffset() int64 { return headerSize + h.metaSize() }

// edgeBytes returns the bytes one edge takes in the data area: a 12-byte
// record in version 1, two offsets of graph.CellOffsetWidth(RangeSize)
// bytes in version 3.
func (h Header) edgeBytes() int {
	if h.Version == FormatVersionCompressed {
		return 2 * graph.CellOffsetWidth(h.RangeSize)
	}
	return storage.EdgeBytes
}

// weightOffset returns the file offset of a version-3 store's weight plane,
// right after the payload.
func (h Header) weightOffset() int64 {
	return h.dataOffset() + h.NumEdges*int64(h.edgeBytes())
}

// encodeHeader serializes the header fields (CRC slots zeroed; the caller
// fills them after hashing).
func encodeHeader(h Header) []byte {
	buf := make([]byte, headerSize)
	copy(buf[0:8], Magic)
	version := uint32(h.Version)
	if version == 0 {
		version = FormatVersion
	}
	binary.LittleEndian.PutUint32(buf[8:12], version)
	var flags uint32
	if h.Undirected {
		flags |= flagUndirected
	}
	if h.Weighted {
		flags |= flagWeighted
	}
	binary.LittleEndian.PutUint32(buf[12:16], flags)
	binary.LittleEndian.PutUint64(buf[16:24], uint64(h.NumVertices))
	binary.LittleEndian.PutUint64(buf[24:32], uint64(h.NumEdges))
	binary.LittleEndian.PutUint32(buf[32:36], uint32(h.P))
	binary.LittleEndian.PutUint32(buf[36:40], uint32(h.RangeSize))
	// buf[40:44] metaCRC, buf[44:48] headerCRC: filled by the writer.
	return buf
}

// decodeHeader parses and sanity-checks the fixed header block. It returns
// the header plus the stored metadata CRC.
func decodeHeader(buf []byte) (Header, uint32, error) {
	var h Header
	if len(buf) < headerSize {
		return h, 0, fmt.Errorf("oocore: store header truncated (%d bytes)", len(buf))
	}
	if string(buf[0:8]) != Magic {
		return h, 0, fmt.Errorf("oocore: bad magic %q (not a partitioned grid store)", buf[0:8])
	}
	switch v := binary.LittleEndian.Uint32(buf[8:12]); v {
	case FormatVersion, FormatVersionCompressed:
		h.Version = int(v)
	case formatVersionVarint:
		return h, 0, fmt.Errorf("oocore: store version %d (delta+varint cells) is no longer supported; rebuild it as version %d or %d",
			v, FormatVersion, FormatVersionCompressed)
	default:
		return h, 0, fmt.Errorf("oocore: unsupported store version %d (want %d or %d)",
			v, FormatVersion, FormatVersionCompressed)
	}
	headerCRC := binary.LittleEndian.Uint32(buf[44:48])
	if crc32.ChecksumIEEE(buf[0:44]) != headerCRC {
		return h, 0, fmt.Errorf("oocore: header checksum mismatch (corrupt store)")
	}
	flags := binary.LittleEndian.Uint32(buf[12:16])
	h.Undirected = flags&flagUndirected != 0
	h.Weighted = flags&flagWeighted != 0
	if h.Weighted && h.Version != FormatVersionCompressed {
		return h, 0, fmt.Errorf("oocore: version-%d store sets the weight-plane flag", h.Version)
	}
	h.NumVertices = int(binary.LittleEndian.Uint64(buf[16:24]))
	h.NumEdges = int64(binary.LittleEndian.Uint64(buf[24:32]))
	h.P = int(binary.LittleEndian.Uint32(buf[32:36]))
	h.RangeSize = int(binary.LittleEndian.Uint32(buf[36:40]))
	if h.NumVertices < 0 || h.NumEdges < 0 || h.P <= 0 || h.RangeSize <= 0 {
		return h, 0, fmt.Errorf("oocore: header has non-positive dimensions (v=%d e=%d p=%d range=%d)",
			h.NumVertices, h.NumEdges, h.P, h.RangeSize)
	}
	// Vertex ids are 32 bits, and every range must start at one.
	if uint64(h.NumVertices) > 1<<32 {
		return h, 0, fmt.Errorf("oocore: %d vertices exceed the 32-bit id space", h.NumVertices)
	}
	if uint64(h.P-1)*uint64(h.RangeSize) >= 1<<32 {
		return h, 0, fmt.Errorf("oocore: %d ranges of %d vertices reach past the 32-bit id space", h.P, h.RangeSize)
	}
	// P < 2^32, so P*P cannot wrap a uint64; past maxCells the metadata
	// size (12 bytes a cell at most) would overflow an int64.
	if cells := uint64(h.P) * uint64(h.P); cells > maxCells {
		return h, 0, fmt.Errorf("oocore: %dx%d grid has more cells than a store can index", h.P, h.P)
	}
	metaCRC := binary.LittleEndian.Uint32(buf[40:44])
	return h, metaCRC, nil
}

// Stream is a restartable edge stream: invoking it runs one full pass over
// the dataset, delivering bounded chunks to yield in a fixed order. The
// builder runs the stream twice (histogram pass, scatter pass), so the
// stream must produce the same edges on every invocation — true for files
// and for deterministic generators. The chunk slice is only valid during
// the yield call.
type Stream func(yield func(chunk []graph.Edge) error) error

// SliceStream adapts an in-memory edge slice to a Stream, delivering it in
// chunks of the given size (<=0 selects 64K edges).
func SliceStream(edges []graph.Edge, chunk int) Stream {
	if chunk <= 0 {
		chunk = 1 << 16
	}
	return func(yield func([]graph.Edge) error) error {
		for lo := 0; lo < len(edges); lo += chunk {
			hi := lo + chunk
			if hi > len(edges) {
				hi = len(edges)
			}
			if err := yield(edges[lo:hi]); err != nil {
				return err
			}
		}
		return nil
	}
}

// BuildOptions configures BuildStore.
type BuildOptions struct {
	// NumVertices is the vertex count (required; streams cannot be re-run a
	// third time just to discover it).
	NumVertices int
	// GridP requests a grid dimension (0 = the paper's 256, clamped for
	// small graphs exactly like the in-memory grid).
	GridP int
	// Undirected mirrors every non-self-loop edge into the store, the
	// counterpart of prep's Undirected doubling (needed by WCC).
	Undirected bool
	// Compressed selects the version-3 layout: cells stored as fixed-width
	// range offsets with per-cell CRCs, and weights (when any edge carries
	// one) split into a parallel plane.
	Compressed bool
	// ScatterBudget bounds the write-buffer memory of the scatter pass in
	// bytes (0 = 32 MiB). Each cell owns a small append buffer flushed with
	// positioned writes, so building never holds the edge set in memory.
	ScatterBudget int64
}

// defaultScatterBudget is the scatter-pass write-buffer budget (32 MiB).
const defaultScatterBudget = 32 << 20

// BuildStore partitions the edge stream into a grid store at path. It runs
// the stream twice: the first pass histograms edges per cell and accumulates
// out-degrees, the second scatters each edge to its cell's file segment
// through bounded per-cell buffers. Peak memory is O(P*P + V) plus the
// scatter budget, independent of the edge count.
func BuildStore(path string, opt BuildOptions, stream Stream) (Header, error) {
	var h Header
	if err := storage.HostOrder(); err != nil {
		return h, err
	}
	if opt.NumVertices <= 0 {
		return h, fmt.Errorf("oocore: BuildStore requires a positive NumVertices")
	}
	p := graph.GridPFor(opt.NumVertices, opt.GridP)
	rangeSize := (opt.NumVertices + p - 1) / p
	if rangeSize == 0 {
		rangeSize = 1
	}
	numCells := p * p
	n := graph.VertexID(opt.NumVertices)

	cellOf := func(e graph.Edge) (int, error) {
		if e.Src >= n || e.Dst >= n {
			return 0, fmt.Errorf("oocore: edge %d->%d out of range (numVertices=%d)", e.Src, e.Dst, opt.NumVertices)
		}
		return (int(e.Src)/rangeSize)*p + int(e.Dst)/rangeSize, nil
	}

	// Pass 1: per-cell histogram, out-degree accumulation, and whether any
	// edge carries a weight (a compressed store then gets a weight plane).
	counts := make([]uint64, numCells)
	degrees := make([]uint32, opt.NumVertices)
	var numEdges int64
	weighted := false
	err := forEachEdge(stream, opt.Undirected, func(e graph.Edge) error {
		cell, err := cellOf(e)
		if err != nil {
			return err
		}
		counts[cell]++
		degrees[e.Src]++
		numEdges++
		weighted = weighted || e.W != 0
		return nil
	})
	if err != nil {
		return h, err
	}

	h = Header{
		NumVertices: opt.NumVertices,
		NumEdges:    numEdges,
		P:           p,
		RangeSize:   rangeSize,
		Undirected:  opt.Undirected,
		Version:     FormatVersion,
	}
	if opt.Compressed {
		h.Version = FormatVersionCompressed
		h.Weighted = weighted
	}

	// Cell index: exclusive prefix sum over the histogram.
	cellIndex := make([]uint64, numCells+1)
	var running uint64
	for c := 0; c < numCells; c++ {
		cellIndex[c] = running
		running += counts[c]
	}
	cellIndex[numCells] = running

	f, err := os.Create(path)
	if err != nil {
		return h, fmt.Errorf("oocore: create store: %w", err)
	}
	defer f.Close()

	// Pass 2 scatters the edge data first, so the metadata written after it
	// can carry the per-cell payload CRCs the scatter summed.
	cellCRC, err := scatter(f, h, cellIndex, opt, stream, cellOf)
	if err != nil {
		return h, err
	}
	if err := writeHeaderAndMeta(f, h, cellIndex, degrees, cellCRC); err != nil {
		return h, err
	}
	if err := f.Sync(); err != nil {
		return h, fmt.Errorf("oocore: sync store: %w", err)
	}
	return h, f.Close()
}

// forEachEdge runs one pass of the stream, calling fn for every edge and,
// with mirror set, for the reverse of every non-self-loop edge after it.
func forEachEdge(stream Stream, mirror bool, fn func(graph.Edge) error) error {
	return stream(func(chunk []graph.Edge) error {
		for _, e := range chunk {
			if err := fn(e); err != nil {
				return err
			}
			if mirror && e.Src != e.Dst {
				if err := fn(graph.Edge{Src: e.Dst, Dst: e.Src, W: e.W}); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// writeHeaderAndMeta writes the checksummed header followed by the metadata
// block (cell index, degrees; plus the per-cell payload CRCs for version 3,
// where cellCRC must be non-nil).
func writeHeaderAndMeta(w io.WriteSeeker, h Header, cellIndex []uint64, degrees []uint32, cellCRC []uint32) error {
	meta := make([]byte, 0, h.metaSize())
	for _, v := range cellIndex {
		meta = binary.LittleEndian.AppendUint64(meta, v)
	}
	for _, d := range degrees {
		meta = binary.LittleEndian.AppendUint32(meta, d)
	}
	if h.Version == FormatVersionCompressed {
		for _, c := range cellCRC {
			meta = binary.LittleEndian.AppendUint32(meta, c)
		}
	}
	hdr := encodeHeader(h)
	binary.LittleEndian.PutUint32(hdr[40:44], crc32.ChecksumIEEE(meta))
	binary.LittleEndian.PutUint32(hdr[44:48], crc32.ChecksumIEEE(hdr[0:44]))
	if _, err := w.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("oocore: seek: %w", err)
	}
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("oocore: write header: %w", err)
	}
	if _, err := w.Write(meta); err != nil {
		return fmt.Errorf("oocore: write metadata: %w", err)
	}
	return nil
}

// plane is one per-edge array of a store's data area during the scatter
// pass — the edge records or payload, or the weight plane — with each
// cell's next edge slot and its bounded append buffer.
type plane struct {
	off    int64 // file offset of the plane
	width  int   // bytes per edge
	size   int   // buffer capacity in bytes, a whole number of edges
	cursor []uint64
	bufs   [][]byte
	// crcs, when non-nil, accumulates each cell's checksum as its bytes are
	// flushed — in stream order, which is the cell's on-disk order.
	crcs []uint32
}

func newPlane(off int64, width, bufEdges int, cellIndex []uint64) *plane {
	numCells := len(cellIndex) - 1
	pl := &plane{off: off, width: width, size: bufEdges * width,
		cursor: make([]uint64, numCells), bufs: make([][]byte, numCells)}
	copy(pl.cursor, cellIndex[:numCells])
	return pl
}

// buf returns the cell's buffer, allocating it on first use; it always has
// room for one more edge.
func (pl *plane) buf(cell int) []byte {
	if pl.bufs[cell] == nil {
		pl.bufs[cell] = make([]byte, 0, pl.size)
	}
	return pl.bufs[cell]
}

// put stores the cell's extended buffer, flushing it once full.
func (pl *plane) put(f *os.File, cell int, b []byte) error {
	pl.bufs[cell] = b
	if len(b) == pl.size {
		return pl.flush(f, cell)
	}
	return nil
}

// flush writes the cell's buffered edges at its cursor.
func (pl *plane) flush(f *os.File, cell int) error {
	b := pl.bufs[cell]
	if len(b) == 0 {
		return nil
	}
	if _, err := f.WriteAt(b, pl.off+int64(pl.cursor[cell])*int64(pl.width)); err != nil {
		return fmt.Errorf("oocore: scatter write: %w", err)
	}
	if pl.crcs != nil {
		pl.crcs[cell] = crc32.Update(pl.crcs[cell], crc32.IEEETable, b)
	}
	pl.cursor[cell] += uint64(len(b) / pl.width)
	pl.bufs[cell] = b[:0]
	return nil
}

// scatter runs the second build pass: every edge is appended to its cell's
// bounded buffer — as a 12-byte record (version 1), or as fixed-width range
// offsets plus, when weighted, a weight in the parallel plane (version 3) —
// and full buffers are flushed to the cell's cursor with WriteAt. It returns
// the per-cell payload CRCs of a version-3 store (nil for version 1).
func scatter(f *os.File, h Header, cellIndex []uint64, opt BuildOptions, stream Stream, cellOf func(graph.Edge) (int, error)) ([]uint32, error) {
	numCells := h.P * h.P
	compressed := h.Version == FormatVersionCompressed
	budget := opt.ScatterBudget
	if budget <= 0 {
		budget = defaultScatterBudget
	}
	perEdge := h.edgeBytes()
	if h.Weighted {
		perEdge += 4
	}
	bufEdges := max(int(budget/int64(numCells)/int64(perEdge)), 4)
	edges := newPlane(h.dataOffset(), h.edgeBytes(), bufEdges, cellIndex)
	planes := []*plane{edges}
	var weights *plane
	if compressed {
		edges.crcs = make([]uint32, numCells)
	}
	if h.Weighted {
		weights = newPlane(h.weightOffset(), 4, bufEdges, cellIndex)
		planes = append(planes, weights)
	}
	w := graph.CellOffsetWidth(h.RangeSize)

	err := forEachEdge(stream, opt.Undirected, func(e graph.Edge) error {
		cell, err := cellOf(e)
		if err != nil {
			return err
		}
		b := edges.buf(cell)
		if compressed {
			b = graph.AppendCellEdge(b, uint32(int(e.Src)%h.RangeSize), uint32(int(e.Dst)%h.RangeSize), w)
		} else {
			b = binary.LittleEndian.AppendUint32(b, e.Src)
			b = binary.LittleEndian.AppendUint32(b, e.Dst)
			b = binary.LittleEndian.AppendUint32(b, weightBits(e.W))
		}
		if err := edges.put(f, cell, b); err != nil {
			return err
		}
		if weights != nil {
			return weights.put(f, cell, binary.LittleEndian.AppendUint32(weights.buf(cell), weightBits(e.W)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, pl := range planes {
		for cell := 0; cell < numCells; cell++ {
			if err := pl.flush(f, cell); err != nil {
				return nil, err
			}
			if pl.cursor[cell] != cellIndex[cell+1] {
				return nil, fmt.Errorf("oocore: scatter pass wrote %d edges into cell %d, histogram pass counted %d (stream not restartable?)",
					pl.cursor[cell]-cellIndex[cell], cell, cellIndex[cell+1]-cellIndex[cell])
			}
		}
	}
	return edges.crcs, nil
}

// BuildStoreFromGraph writes a store for an in-memory graph's edge array, a
// convenience for converters and tests. gridP and undirected follow
// BuildOptions semantics.
func BuildStoreFromGraph(path string, g *graph.Graph, gridP int, undirected bool) (Header, error) {
	return BuildStore(path, BuildOptions{
		NumVertices: g.NumVertices(),
		GridP:       gridP,
		Undirected:  undirected,
	}, SliceStream(g.EdgeArray.Edges, 0))
}

// BuildCompressedStoreFromGraph is BuildStoreFromGraph for the version-3
// compressed layout.
func BuildCompressedStoreFromGraph(path string, g *graph.Graph, gridP int, undirected bool) (Header, error) {
	return BuildStore(path, BuildOptions{
		NumVertices: g.NumVertices(),
		GridP:       gridP,
		Undirected:  undirected,
		Compressed:  true,
	}, SliceStream(g.EdgeArray.Edges, 0))
}
