// Package oocore extends the grid layout (Section 5.1) beyond RAM: a graph
// is partitioned into the same P x P grid of cells the in-memory engine
// iterates, but the cells live in a disk file and are streamed through a
// bounded set of buffers while the algorithm runs. The package provides
//
//   - an on-disk partitioned format: a checksummed header, the cell index,
//     a per-vertex out-degree table (the vertex metadata an out-of-core run
//     keeps resident), the per-cell segments of (src, dst) pairs in
//     row-major order, and a weight plane only when the graph is weighted;
//   - a bounded-memory builder that partitions an edge stream into the
//     format without ever materializing the full edge slice: a histogram
//     pass, then a two-digit radix partition — a pass that stages each edge
//     in its row (source range) through one buffer per row, and a stable
//     counting sort of each staged row by column into its final bytes;
//   - a streaming executor (see prefetch.go) that feeds grid cells to the
//     engine's partition-free column scheduling while asynchronously
//     prefetching the next segments, read in place into the pairs (and
//     weights) the kernels visit, so I/O overlaps compute exactly as the
//     loading/pre-processing overlap of Sections 3.4-3.5 overlaps the
//     in-memory pipeline.
package oocore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/storage"
)

// Format constants. A version-4 store file is laid out as
//
//	[ header (48 bytes, CRC-protected; flagWeighted when a weight plane
//	  exists) ]
//	[ metadata: cell index ((P*P+1) x uint64), out-degrees (V x uint32) ]
//	[ edge data: numEdges x 8-byte records (src uint32, dst uint32), cells
//	  in row-major order ]
//	[ weight plane (flagWeighted only): numEdges x float32 bits, in edge
//	  order ]
//
// All integers are little-endian, so on a little-endian host a record is
// its graph.Pair and a plane entry its graph.Weight: slots read both in
// place. A plane exists only when some weight is not 1 (the in-memory
// grid's rule). Records carry no checksum: every read is range-checked.
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
// locates payload and weights alike; the plane follows version 4's rule.
// Each payload is CRC-protected individually so a corrupt segment is
// detected at the cell that holds it, before any of its edges reach a
// kernel. Version 2 (delta+varint cells with a per-cell byte-offset table)
// is no longer read.
const (
	// Magic identifies a partitioned grid store.
	Magic = "EGRIDST1"
	// FormatVersion is the raw layout version: 8-byte pair records.
	FormatVersion = 4
	// FormatVersionCompressed is the compressed (fixed-width offset) layout
	// version.
	FormatVersionCompressed = 3
	// headerSize is the fixed byte size of the header block.
	headerSize = 48
	// maxCells bounds P*P so that metaSize cannot overflow.
	maxCells = 1 << 58
	// flagUndirected marks a store whose edges were mirrored at build time
	// (each input edge stored in both directions), as required by WCC.
	flagUndirected = 1 << 0
	// flagWeighted marks a store that carries a weight plane.
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
	// Weighted reports whether the store carries a weight plane.
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

// edgeBytes returns the bytes one edge takes in the data area: an 8-byte
// pair record in version 4, two offsets of graph.CellOffsetWidth(RangeSize)
// bytes in version 3.
func (h Header) edgeBytes() int {
	if h.Version == FormatVersionCompressed {
		return 2 * graph.CellOffsetWidth(h.RangeSize)
	}
	return pairBytes
}

// weightOffset returns the file offset of the weight plane, right after the
// records or payload.
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
	case 1, 2: // retired: 12-byte records, delta+varint cells
		return h, 0, fmt.Errorf("oocore: store version %d is no longer supported; rebuild it with gengraph -format store", v)
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
// builder runs the stream twice (histogram pass, row pass), so the
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

// BuildOptions configures BuildStore. The builder's edge buffers are not an
// option: they take buildBudget bytes, or less when the graph needs less.
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
	// range offsets with per-cell CRCs.
	Compressed bool
}

// buildBudget bounds the builder's edge buffers in bytes (32 MiB): one
// allocation that holds the per-row buffers of the row pass, then the
// read-back chunk and the window arena of the row sorts.
const buildBudget = 32 << 20

// BuildStore partitions the edge stream into a grid store at path, as a
// two-digit radix partition: rows (source ranges) first, then columns. It
// runs the stream twice. The first pass histograms edges per cell and
// accumulates out-degrees. The second appends each edge, as an 8-byte pair
// record (12 bytes with its weight when the store carries a plane), to its
// row's buffer — P buffers of buildBudget/P bytes — and writes full buffers
// to a staging area past the store's end, at the row's offset. Each staged
// row is then counting-sorted by column, stably, into its final bytes and
// written once (twice with a weight plane); a row larger than the budget is
// sorted in windows of its final region. The staging area — on disk while
// the build runs — is truncated away before the file is synced. Peak memory is O(P*P + V)
// plus the budget, independent of the edge count. A failed build removes
// the file.
func BuildStore(path string, opt BuildOptions, stream Stream) (Header, error) {
	return buildStore(path, opt, stream, buildBudget)
}

// buildStore is BuildStore with the edge-buffer budget in bytes.
func buildStore(path string, opt BuildOptions, stream Stream, budget int64) (h Header, err error) {
	if err := storage.HostOrder(); err != nil {
		return h, err
	}
	if opt.NumVertices <= 0 {
		return h, fmt.Errorf("oocore: BuildStore requires a positive NumVertices")
	}
	if uint64(opt.NumVertices) > 1<<32 {
		return h, fmt.Errorf("oocore: %d vertices exceed the 32-bit id space", opt.NumVertices)
	}
	p := graph.GridPFor(opt.NumVertices, opt.GridP)
	rangeSize := (opt.NumVertices + p - 1) / p
	if rangeSize == 0 {
		rangeSize = 1
	}
	numCells := p * p
	// Range sizes fit 32 bits, where division is cheaper.
	rs := uint32(rangeSize)

	// Pass 1: per-cell histogram (counted into cellIndex[cell+1]),
	// out-degree accumulation, and whether any weight is not 1 (the store
	// then gets a weight plane).
	cellIndex := make([]uint64, numCells+1)
	degrees := make([]uint32, opt.NumVertices)
	var numEdges int64
	weighted := false
	err = forEachBatch(stream, opt.Undirected, opt.NumVertices, func(edges []graph.Edge) error {
		for _, e := range edges {
			cellIndex[int(e.Src/rs)*p+int(e.Dst/rs)+1]++
			degrees[e.Src]++
			weighted = weighted || e.W != 1
		}
		numEdges += int64(len(edges))
		return nil
	})
	if err != nil {
		return h, err
	}
	// Cell index: prefix sum over the histogram.
	for c := 0; c < numCells; c++ {
		cellIndex[c+1] += cellIndex[c]
	}

	h = Header{
		NumVertices: opt.NumVertices,
		NumEdges:    numEdges,
		P:           p,
		RangeSize:   rangeSize,
		Undirected:  opt.Undirected,
		Version:     FormatVersion,
		Weighted:    weighted,
	}
	if opt.Compressed {
		h.Version = FormatVersionCompressed
	}

	f, err := os.Create(path)
	if err != nil {
		return h, fmt.Errorf("oocore: create store: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(path)
		}
	}()

	b := newPartition(f, h, cellIndex, budget)
	if err := b.stageRows(stream, opt.Undirected); err != nil {
		return h, err
	}
	// The sorts sum the per-cell payload CRCs the metadata carries.
	cellCRC, err := b.sortRows()
	if err != nil {
		return h, err
	}
	if err := f.Truncate(b.stageOff); err != nil {
		return h, fmt.Errorf("oocore: truncate staging area: %w", err)
	}
	if err := writeHeaderAndMeta(f, h, cellIndex, degrees, cellCRC); err != nil {
		return h, err
	}
	if err := f.Sync(); err != nil {
		return h, fmt.Errorf("oocore: sync store: %w", err)
	}
	return h, f.Close()
}

// forEachBatch runs one pass of the stream, checking that every edge's
// endpoints lie below numVertices and calling fn with each chunk — with
// mirror set, with a copy that follows every non-self-loop edge with its
// reverse.
func forEachBatch(stream Stream, mirror bool, numVertices int, fn func([]graph.Edge) error) error {
	n := uint64(numVertices)
	var mirrored []graph.Edge
	return stream(func(chunk []graph.Edge) error {
		for _, e := range chunk {
			if uint64(e.Src) >= n || uint64(e.Dst) >= n {
				return fmt.Errorf("oocore: edge %d->%d out of range (numVertices=%d)", e.Src, e.Dst, numVertices)
			}
		}
		if mirror {
			mirrored = mirrored[:0]
			for _, e := range chunk {
				mirrored = append(mirrored, e)
				if e.Src != e.Dst {
					mirrored = append(mirrored, graph.Edge{Src: e.Dst, Dst: e.Src, W: e.W})
				}
			}
			chunk = mirrored
		}
		return fn(chunk)
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

// partition is the state the builder's two radix digits share: the store
// being written, its cell index from the histogram pass, and the staging
// area of records (src, dst, plus the weight bits when the store carries a
// plane) past the store's end, laid out like the store's data area —
// row-major, each edge at its store slot — so a row's records are
// contiguous.
type partition struct {
	f         *os.File
	h         Header
	cellIndex []uint64
	stageOff  int64 // file offset of the staging area: the store's end
	// rec is the bytes of one staged record: a pair, plus its weight when
	// weighted.
	rec int
	// rowBytes is the size of a row's buffer in the row pass: budget/P in
	// whole records, at least one. The sorts read staged records back in
	// chunks of as much, or of the heaviest row if it is smaller.
	rowBytes, chunkBytes int
	// perEdge is the bytes an edge takes in the store: its record or
	// payload, plus its weight when weighted.
	perEdge uint64
	// mem holds the edge buffers, reused by both digits: the row pass's
	// buffers, then the sorts' chunk and their window of win edges.
	mem []byte
	win uint64
}

// newPartition sizes the edge buffers for a budget. They are as large as
// the row pass's buffers — rowBytes, or the row's records if fewer, per
// row — or as a chunk plus a window that holds the heaviest row, whichever
// is more; the window is capped so the chunk and the window fit the
// budget, but always holds an edge.
func newPartition(f *os.File, h Header, cellIndex []uint64, budget int64) *partition {
	rec := pairBytes
	if h.Weighted {
		rec += 4
	}
	b := &partition{f: f, h: h, cellIndex: cellIndex, rec: rec, rowBytes: max(int(budget)/h.P/rec, 1) * rec,
		perEdge: uint64(h.edgeBytes() + rec - pairBytes)}
	b.stageOff = h.dataOffset() + h.NumEdges*int64(b.perEdge)
	var staged, heaviest uint64
	for r := 0; r < h.P; r++ {
		edges := cellIndex[(r+1)*h.P] - cellIndex[r*h.P]
		staged += min(uint64(b.rowBytes), edges*uint64(rec))
		heaviest = max(heaviest, edges)
	}
	b.chunkBytes = int(max(min(uint64(b.rowBytes), heaviest*uint64(rec)), uint64(rec)))
	win := max(min(heaviest, uint64(max(budget-int64(b.chunkBytes), 0))/b.perEdge), 1)
	b.mem = make([]byte, max(staged, uint64(b.chunkBytes)+win*b.perEdge))
	b.win = uint64(len(b.mem)-b.chunkBytes) / b.perEdge
	return b
}

// notRestartable reports a second stream pass that put a different number
// of edges into a row or a cell than the histogram pass counted.
func notRestartable(what string, i int, want uint64) error {
	return fmt.Errorf("oocore: partition pass found a different edge count in %s %d than the %d the histogram pass counted (stream not restartable?)",
		what, i, want)
}

// stageRows runs the second stream pass, the first digit: every edge is
// appended as a record to its row's buffer, in stream order, and a full
// buffer is written to the staging area at the row's next slot. Only P
// buffers fill at once, so the writes are large and few.
func (b *partition) stageRows(stream Stream, mirror bool) error {
	rec, weighted := uint64(b.rec), b.h.Weighted
	p, rs := b.h.P, uint32(b.h.RangeSize)
	type row struct {
		buf        []byte
		next, fill uint64 // slots of buf's first record and of the next edge
		end        uint64 // the slot past the row's last edge
	}
	rows := make([]row, p)
	off := 0
	for r := range rows {
		lo, hi := b.cellIndex[r*p], b.cellIndex[(r+1)*p]
		size := int(min(uint64(b.rowBytes), (hi-lo)*rec))
		rows[r] = row{buf: b.mem[off : off : off+size], next: lo, fill: lo, end: hi}
		off += size
	}
	flush := func(rw *row) error {
		if _, err := b.f.WriteAt(rw.buf, b.stageOff+int64(rw.next*rec)); err != nil {
			return fmt.Errorf("oocore: staging write: %w", err)
		}
		rw.next, rw.buf = rw.fill, rw.buf[:0]
		return nil
	}
	err := forEachBatch(stream, mirror, b.h.NumVertices, func(edges []graph.Edge) error {
		for _, e := range edges {
			r := int(e.Src / rs)
			rw := &rows[r]
			if rw.fill == rw.end {
				return notRestartable("row", r, rw.end-b.cellIndex[r*p])
			}
			k := len(rw.buf)
			rw.buf = rw.buf[:k+int(rec)]
			binary.LittleEndian.PutUint32(rw.buf[k:], e.Src)
			binary.LittleEndian.PutUint32(rw.buf[k+4:], e.Dst)
			if weighted {
				binary.LittleEndian.PutUint32(rw.buf[k+8:], math.Float32bits(e.W))
			}
			rw.fill++
			if len(rw.buf) == cap(rw.buf) {
				if err := flush(rw); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for r := range rows {
		rw := &rows[r]
		if err := flush(rw); err != nil {
			return err
		}
		if rw.fill != rw.end {
			return notRestartable("row", r, rw.end-b.cellIndex[r*p])
		}
	}
	return nil
}

// sortRows runs the second digit: each staged row is read back in chunks
// and counting-sorted by column — stably, so a cell keeps its edges in
// stream order — into an arena covering the row's final bytes: pair
// records (version 4) or range offsets (version 3), plus the weight plane
// when weighted. The arena is then written once per plane. A row larger than the arena is
// filled in windows, each re-reading the staged row and keeping the
// records whose slot falls inside it. It returns the per-cell payload CRCs
// of a version-3 store (nil for version 4).
func (b *partition) sortRows() ([]uint32, error) {
	rec := b.rec
	h := b.h
	p, rs := h.P, uint32(h.RangeSize)
	compressed := h.Version == FormatVersionCompressed
	eb := uint64(h.edgeBytes())
	var crcs []uint32
	if compressed {
		crcs = make([]uint32, p*p)
	}
	if h.NumEdges == 0 {
		return crcs, nil
	}
	chunk, win := b.mem[:b.chunkBytes], b.win
	payload := b.mem[len(chunk) : len(chunk)+int(win*eb)]
	weights := b.mem[len(chunk)+len(payload) : len(chunk)+int(win*b.perEdge)]
	w := graph.CellOffsetWidth(h.RangeSize)
	cursor := make([]uint64, p)
	for r := 0; r < p; r++ {
		cells := b.cellIndex[r*p : (r+1)*p+1]
		lo, hi := cells[0], cells[p]
		rowLo := uint32(r) * rs
		for wlo := lo; wlo < hi; wlo += win {
			whi := min(wlo+win, hi)
			copy(cursor, cells[:p])
			for at := lo; at < hi; {
				buf := chunk[:int(min(hi-at, uint64(len(chunk)/rec)))*rec]
				if _, err := b.f.ReadAt(buf, b.stageOff+int64(at)*int64(rec)); err != nil {
					return nil, fmt.Errorf("oocore: staging read: %w", err)
				}
				at += uint64(len(buf) / rec)
				for i := 0; i < len(buf); i += rec {
					dst := binary.LittleEndian.Uint32(buf[i+4:])
					col := int(dst / rs)
					slot := cursor[col]
					if slot == cells[col+1] {
						return nil, notRestartable("cell", r*p+col, slot-cells[col])
					}
					cursor[col]++
					if slot < wlo || slot >= whi {
						continue
					}
					k := slot - wlo
					if compressed {
						src := binary.LittleEndian.Uint32(buf[i:])
						graph.AppendCellEdge(payload[k*eb:k*eb], src-rowLo, dst-uint32(col)*rs, w)
					} else {
						*(*[pairBytes]byte)(payload[k*eb:]) = [pairBytes]byte(buf[i : i+pairBytes])
					}
					if h.Weighted {
						*(*[4]byte)(weights[k*4:]) = [4]byte(buf[i+pairBytes : i+rec])
					}
				}
			}
			if compressed {
				for col := 0; col < p; col++ {
					if a, z := max(cells[col], wlo), min(cells[col+1], whi); a < z {
						crcs[r*p+col] = crc32.Update(crcs[r*p+col], crc32.IEEETable, payload[(a-wlo)*eb:(z-wlo)*eb])
					}
				}
			}
			n := whi - wlo
			if _, err := b.f.WriteAt(payload[:n*eb], h.dataOffset()+int64(wlo*eb)); err != nil {
				return nil, fmt.Errorf("oocore: row write: %w", err)
			}
			if h.Weighted {
				if _, err := b.f.WriteAt(weights[:n*4], h.weightOffset()+int64(wlo)*4); err != nil {
					return nil, fmt.Errorf("oocore: row write: %w", err)
				}
			}
		}
	}
	return crcs, nil
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
