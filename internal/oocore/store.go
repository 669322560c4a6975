package oocore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/epfl-repro/everythinggraph/internal/core"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/storage"
)

// Backend is the random-access substrate a store reads segments from: a
// real file, or an in-memory image in tests.
type Backend interface {
	io.ReaderAt
}

// Store is an open partitioned grid store. It keeps only the vertex-level
// metadata resident (header, cell index, degree table — O(P*P + V)); edge
// segments are fetched on demand by StreamCells through bounded buffers.
// Store implements core.Source.
type Store struct {
	backend Backend
	closer  io.Closer
	header  Header

	cellIndex []uint64 // P*P+1 edge offsets into the data area
	degrees   []uint32 // per-vertex out-degrees over the stored edges
	colEdges  []uint64 // per-column edge totals (for worker balancing)
	dataOff   int64

	// edgeBytes is the bytes one edge takes in the data area: an 8-byte
	// pair record, or a compressed store's two range offsets.
	edgeBytes int
	// weightOff is the file offset of the weight plane (0 when none).
	weightOff int64
	// Version-3 (compressed) stores only: per-cell payload CRCs (P*P) and
	// the largest single-cell edge count — the whole-cell decode
	// granularity the streaming buffers must fit.
	cellCRC      []uint32
	maxCellEdges int

	// idle holds the recycled streaming machinery (slot rings, persistent
	// fetchers) no pass is using: a pass borrows a pool of its shape and
	// returns it, so the store holds as many pools as passes have ever run
	// at once. poolMu guards idle. See pool.go.
	poolMu sync.Mutex
	idle   []*streamPool

	stats sourceStats
}

// sourceStats holds the atomic counters behind core.SourceStats.
type sourceStats struct {
	passes        atomic.Int64
	reads         atomic.Int64
	bytesRead     atomic.Int64
	ioTimeNanos   atomic.Int64
	ioWaitNanos   atomic.Int64
	residentBytes atomic.Int64
	peakResident  atomic.Int64
}

// addResident tracks the high-water mark of resident buffer bytes.
func (s *sourceStats) addResident(delta int64) {
	now := s.residentBytes.Add(delta)
	for {
		peak := s.peakResident.Load()
		if now <= peak || s.peakResident.CompareAndSwap(peak, now) {
			return
		}
	}
}

// Open opens a store file, validating the header checksum, the metadata
// checksum and that the file holds exactly the edge records the cell index
// promises (truncated stores are rejected here, before any run starts).
func Open(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("oocore: open store: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("oocore: stat store: %w", err)
	}
	s, err := NewStore(f, info.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	s.closer = f
	return s, nil
}

// NewStore opens a store from any random-access backend of the given total
// size, performing the same validation as Open.
func NewStore(backend Backend, size int64) (*Store, error) {
	if err := storage.HostOrder(); err != nil {
		return nil, err
	}
	hdr := make([]byte, headerSize)
	if _, err := readFullAt(backend, hdr, 0); err != nil {
		return nil, fmt.Errorf("oocore: read store header: %w", err)
	}
	h, metaCRC, err := decodeHeader(hdr)
	if err != nil {
		return nil, err
	}
	// The header is checksummed, not trusted: its dimensions must fit the
	// file before they size any allocation.
	if h.metaSize() > size-headerSize {
		return nil, fmt.Errorf("oocore: store truncated: %d bytes, metadata needs %d after the header",
			size, h.metaSize())
	}
	meta := make([]byte, h.metaSize())
	if _, err := readFullAt(backend, meta, headerSize); err != nil {
		return nil, fmt.Errorf("oocore: read store metadata: %w", err)
	}
	if crc32.ChecksumIEEE(meta) != metaCRC {
		return nil, fmt.Errorf("oocore: metadata checksum mismatch (corrupt store)")
	}

	s := &Store{backend: backend, header: h, dataOff: h.dataOffset(), edgeBytes: h.edgeBytes()}
	numCells := h.P * h.P
	s.cellIndex = make([]uint64, numCells+1)
	off := 0
	for i := range s.cellIndex {
		s.cellIndex[i] = binary.LittleEndian.Uint64(meta[off:])
		off += 8
	}
	s.degrees = make([]uint32, h.NumVertices)
	for i := range s.degrees {
		s.degrees[i] = binary.LittleEndian.Uint32(meta[off:])
		off += 4
	}
	if s.Compressed() {
		s.cellCRC = make([]uint32, numCells)
		for i := range s.cellCRC {
			s.cellCRC[i] = binary.LittleEndian.Uint32(meta[off:])
			off += 4
		}
	}

	// Structural validation: monotone index covering exactly NumEdges, and
	// a file large enough to hold every promised edge.
	for c := 0; c < numCells; c++ {
		if s.cellIndex[c] > s.cellIndex[c+1] {
			return nil, fmt.Errorf("oocore: cell index not monotone at cell %d", c)
		}
		s.maxCellEdges = max(s.maxCellEdges, int(s.cellIndex[c+1]-s.cellIndex[c]))
	}
	if s.cellIndex[0] != 0 || s.cellIndex[numCells] != uint64(h.NumEdges) {
		return nil, fmt.Errorf("oocore: cell index covers %d edges, header promises %d",
			s.cellIndex[numCells], h.NumEdges)
	}
	if h.Weighted {
		s.weightOff = h.weightOffset()
	}
	if perEdge := int64(s.rawEdgeBytes()); size < s.dataOff || (size-s.dataOff)/perEdge < h.NumEdges {
		return nil, fmt.Errorf("oocore: store truncated: %d bytes, need %d (%d edges of %d bytes)",
			size, s.dataOff+h.NumEdges*perEdge, h.NumEdges, perEdge)
	}

	// Per-column edge totals, used to balance column ownership.
	s.colEdges = make([]uint64, h.P)
	for row := 0; row < h.P; row++ {
		for col := 0; col < h.P; col++ {
			idx := row*h.P + col
			s.colEdges[col] += s.cellIndex[idx+1] - s.cellIndex[idx]
		}
	}
	return s, nil
}

// readFullAt reads len(buf) bytes at off, treating any shortfall as an
// error.
func readFullAt(r io.ReaderAt, buf []byte, off int64) (int, error) {
	n, err := r.ReadAt(buf, off)
	if n == len(buf) {
		return n, nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

// Close retires the store's idle streaming pools (their persistent fetcher
// goroutines park until then) and releases the backing file (no-op for
// memory backends). The caller must not close a store with passes still in
// flight.
func (s *Store) Close() error {
	s.poolMu.Lock()
	for _, p := range s.idle {
		p.stop()
	}
	s.idle = nil
	s.poolMu.Unlock()
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}

// Header returns the decoded store header.
func (s *Store) Header() Header { return s.header }

// NumVertices implements core.Source.
func (s *Store) NumVertices() int { return s.header.NumVertices }

// NumEdges implements core.Source.
func (s *Store) NumEdges() int64 { return s.header.NumEdges }

// GridP implements core.Source.
func (s *Store) GridP() int { return s.header.P }

// Undirected implements core.Source.
func (s *Store) Undirected() bool { return s.header.Undirected }

// Compressed reports whether the store holds version-3 (compressed) cell
// segments.
func (s *Store) Compressed() bool { return s.header.Version == FormatVersionCompressed }

// OutDegrees implements core.Source. The slice is shared; callers must not
// modify it.
func (s *Store) OutDegrees() []uint32 { return s.degrees }

// CellEdges returns the edge count of one cell (cells in row-major order).
func (s *Store) CellEdges(cell int) int64 {
	return int64(s.cellIndex[cell+1] - s.cellIndex[cell])
}

// CellStoredBytes returns the on-disk footprint of one cell's edge data:
// its pair records (version 4) or offset payload (version 3), plus its
// slice of the weight plane when there is one.
func (s *Store) CellStoredBytes(cell int) int64 {
	return s.CellEdges(cell) * int64(s.rawEdgeBytes())
}

// rawEdgeBytes is what one edge occupies on disk: its record or offsets
// plus, when the store carries a weight plane, its weight.
func (s *Store) rawEdgeBytes() int {
	if s.weightOff > 0 {
		return s.edgeBytes + 4
	}
	return s.edgeBytes
}

// residentEdgeBytes is what one buffered edge costs a stream pool: its
// pair, its weight if any, and a compressed store's payload.
func (s *Store) residentEdgeBytes() int64 {
	n := int64(pairBytes)
	if s.weightOff > 0 {
		n += 4
	}
	if s.Compressed() {
		n += int64(s.edgeBytes)
	}
	return n
}

// Stats implements core.Source.
func (s *Store) Stats() core.SourceStats {
	return core.SourceStats{
		Passes:            s.stats.passes.Load(),
		Reads:             s.stats.reads.Load(),
		BytesRead:         s.stats.bytesRead.Load(),
		IOTime:            time.Duration(s.stats.ioTimeNanos.Load()),
		IOWait:            time.Duration(s.stats.ioWaitNanos.Load()),
		PeakResidentBytes: s.stats.peakResident.Load(),
	}
}

// ReadCell reads one cell's edges into dst (grown as needed), each pair
// with its weight (1 when the store has no plane) — the segment-by-segment
// access path used by tools and tests; streamed execution goes through
// StreamCells instead.
func (s *Store) ReadCell(row, col int, dst []graph.Edge) ([]graph.Edge, error) {
	if row < 0 || row >= s.header.P || col < 0 || col >= s.header.P {
		return nil, fmt.Errorf("oocore: cell (%d,%d) outside %dx%d grid", row, col, s.header.P, s.header.P)
	}
	idx := row*s.header.P + col
	lo, hi := s.cellIndex[idx], s.cellIndex[idx+1]
	n := int(hi - lo)
	pairs := make([]graph.Pair, n)
	var weights []graph.Weight
	if s.weightOff > 0 {
		weights = make([]graph.Weight, n)
	}
	var err error
	switch {
	case n == 0:
	case s.Compressed():
		err = s.readCells(idx, idx+1, make([]byte, n*s.edgeBytes), pairs, weights)
	default:
		err = s.readSegment(int64(lo), pairs, weights)
	}
	if err != nil {
		return nil, err
	}
	ws := graph.PairWeights(weights, n)
	dst = dst[:0]
	for i, e := range pairs {
		dst = append(dst, graph.Edge{Src: e.Src, Dst: e.Dst, W: ws[i]})
	}
	return dst, nil
}

// readRawAt is one accounted backend read at an absolute file offset: it
// fetches exactly len(buf) bytes and counts the read. Decode-side
// accounting (ioTime) stays with the caller, which knows where its decode
// ends.
func (s *Store) readRawAt(buf []byte, off int64) error {
	if _, err := readFullAt(s.backend, buf, off); err != nil {
		return fmt.Errorf("oocore: read %d bytes at offset %d: %w", len(buf), off, err)
	}
	s.stats.reads.Add(1)
	s.stats.bytesRead.Add(int64(len(buf)))
	return nil
}

// readCells fetches cells [first, last) of a compressed store — one payload
// read through raw (edgeBytes per edge), plus readPlane's — and decodes them
// into pairs, whose length must equal the cells' total edge count. Every
// cell's payload is CRC-verified before it is decoded, so a corrupt segment
// fails here without any of its edges reaching a kernel. The time is
// charged to ioTime: to the planner, decoding is part of what a compressed
// byte costs to turn into edges.
func (s *Store) readCells(first, last int, raw []byte, pairs []graph.Pair, weights []graph.Weight) error {
	t0 := time.Now()
	defer func() { s.stats.ioTimeNanos.Add(int64(time.Since(t0))) }()
	lo := s.cellIndex[first]
	pay := raw[:len(pairs)*s.edgeBytes]
	if err := s.readRawAt(pay, s.dataOff+int64(lo)*int64(s.edgeBytes)); err != nil {
		return err
	}
	if err := s.readPlane(weights, int64(lo), len(pairs)); err != nil {
		return err
	}
	h := s.header
	for c := first; c < last; c++ {
		a, b := int(s.cellIndex[c]-lo), int(s.cellIndex[c+1]-lo)
		cell := pay[a*s.edgeBytes : b*s.edgeBytes]
		if crc32.ChecksumIEEE(cell) != s.cellCRC[c] {
			return fmt.Errorf("oocore: cell %d compressed payload checksum mismatch (corrupt store)", c)
		}
		rowLo, colLo := graph.VertexID(c/h.P*h.RangeSize), graph.VertexID(c%h.P*h.RangeSize)
		if err := graph.DecodeCell(cell, b-a, rowLo, colLo, h.RangeSize, h.NumVertices, pairs[a:b]); err != nil {
			return fmt.Errorf("oocore: cell %d: %w", c, err)
		}
	}
	return nil
}

// readPlane reads the weights of the n edges from edge offset off in place
// into weights, when the store carries a weight plane.
func (s *Store) readPlane(weights []graph.Weight, off int64, n int) error {
	if s.weightOff == 0 {
		return nil
	}
	return s.readRawAt(asBytes(weights[:n]), s.weightOff+off*4)
}

// readSegment reads the pair records [edgeOff, edgeOff+len(pairs)) in place
// into pairs, plus readPlane's. The records carry no checksum, so a record
// naming a vertex outside the graph is an error here rather than an
// out-of-range index in a kernel.
func (s *Store) readSegment(edgeOff int64, pairs []graph.Pair, weights []graph.Weight) error {
	t0 := time.Now()
	if err := s.readRawAt(asBytes(pairs), s.dataOff+edgeOff*int64(pairBytes)); err != nil {
		return err
	}
	if err := s.readPlane(weights, edgeOff, len(pairs)); err != nil {
		return err
	}
	if err := checkPairs(pairs, s.header.NumVertices, edgeOff); err != nil {
		return err
	}
	s.stats.ioTimeNanos.Add(int64(time.Since(t0)))
	return nil
}

// checkPairs returns an error naming the first of pairs (records from edge
// offset off) with an endpoint at or past numVertices. Up to 2^31 vertices
// it first tests every record as one word, branch-free and exactly: adding
// 2^31-numVertices to both 32-bit halves sets a half's top bit exactly when
// its id is at or past numVertices, unless the id already has it (the raw
// word's top bits catch those), and a valid low half never carries into the
// high one. Only a failing slice is scanned again for the record to name.
func checkPairs(pairs []graph.Pair, numVertices int, off int64) error {
	if numVertices <= 1<<31 {
		c := uint64(1<<31-numVertices) * (1<<32 + 1)
		var bad uint64
		for _, w := range unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(pairs))), len(pairs)) {
			bad |= w + c | w
		}
		if bad&(1<<63|1<<31) == 0 {
			return nil
		}
	}
	nv := uint64(numVertices)
	for i, e := range pairs {
		if uint64(e.Src) >= nv || uint64(e.Dst) >= nv {
			return fmt.Errorf("oocore: edge record %d (%d->%d) outside %d vertices (corrupt store)",
				off+int64(i), e.Src, e.Dst, nv)
		}
	}
	return nil
}

// asBytes views pairs or weights as their memory, which on a little-endian
// host (NewStore checks) is their on-disk form: records and plane entries
// are read into it in place.
func asBytes[T graph.Pair | graph.Weight](s []T) []byte {
	var zero T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(zero)))
}
