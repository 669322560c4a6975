// Package storage reads and writes edge arrays in two formats: a fixed-size
// little-endian binary record (what the paper's loaders read) and
// whitespace-separated "src dst weight" text lines.
package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"

	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/sched"
)

// EdgeBytes is the on-disk size of one edge in the binary format: two
// 4-byte vertex ids and a 4-byte float weight.
const EdgeBytes = 12

// BinaryWriter incrementally encodes edges in the fixed-size binary format
// through a single reused buffer, so callers can stream a graph chunk by
// chunk without re-buffering per chunk (gengraph's scale-24+ path).
type BinaryWriter struct {
	bw *bufio.Writer
}

// NewBinaryWriter wraps w for incremental binary edge output.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{bw: bufio.NewWriterSize(w, 1<<20)}
}

// Write appends a batch of edges, encoding as many at a time as fit in the
// free part of the buffer.
func (w *BinaryWriter) Write(edges []graph.Edge) error {
	for len(edges) > 0 {
		buf := w.bw.AvailableBuffer()
		n := min(len(edges), cap(buf)/EdgeBytes)
		if n == 0 {
			if err := w.bw.Flush(); err != nil {
				return fmt.Errorf("storage: write edge: %w", err)
			}
			continue
		}
		buf = buf[:n*EdgeBytes]
		putEdges(buf, edges[:n])
		if _, err := w.bw.Write(buf); err != nil {
			return fmt.Errorf("storage: write edge: %w", err)
		}
		edges = edges[n:]
	}
	return nil
}

// Flush drains the buffer to the underlying writer.
func (w *BinaryWriter) Flush() error { return w.bw.Flush() }

// WriteBinary writes edges in the fixed-size little-endian binary format
// (src uint32, dst uint32, weight float32 bits).
func WriteBinary(w io.Writer, edges []graph.Edge) error {
	bw := NewBinaryWriter(w)
	if err := bw.Write(edges); err != nil {
		return err
	}
	return bw.Flush()
}

// putEdges writes len(src) records to dst; decodeEdges is its mirror.
func putEdges(dst []byte, src []graph.Edge) {
	for i, e := range src {
		b := dst[i*EdgeBytes : (i+1)*EdgeBytes : (i+1)*EdgeBytes]
		binary.LittleEndian.PutUint32(b[0:4], e.Src)
		binary.LittleEndian.PutUint32(b[4:8], e.Dst)
		binary.LittleEndian.PutUint32(b[8:12], weightBits(e.W))
	}
}

// decodeEdges reads len(dst) records from src. It is ReadBinary's decoder.
func decodeEdges(dst []graph.Edge, src []byte) {
	for i := range dst {
		b := src[i*EdgeBytes : (i+1)*EdgeBytes : (i+1)*EdgeBytes]
		dst[i] = graph.Edge{
			Src: binary.LittleEndian.Uint32(b[0:4]),
			Dst: binary.LittleEndian.Uint32(b[4:8]),
			W:   weightFromBits(binary.LittleEndian.Uint32(b[8:12])),
		}
	}
}

// readBlockEdges bounds how many records are read, and then decoded, at a
// time (3 MiB of file). The first blocks are smaller, so that a small file
// costs a small buffer and decoding starts early.
const readBlockEdges = 1 << 18

// ReadBinary reads edges in the binary format until EOF. When r can seek
// (an *os.File, a *bytes.Reader) the result is allocated once, from the
// length that remains; otherwise it grows as append does. The bytes arrive
// in blocks of up to readBlockEdges records, and each block is decoded by
// the sched workers while the calling goroutine reads the next one.
func ReadBinary(r io.Reader) ([]graph.Edge, error) {
	var edges []graph.Edge
	if s, ok := r.(io.Seeker); ok {
		if at, err := s.Seek(0, io.SeekCurrent); err == nil {
			if end, err := s.Seek(0, io.SeekEnd); err == nil && end > at {
				edges = make([]graph.Edge, 0, (end-at)/EdgeBytes)
			}
			if _, err := s.Seek(at, io.SeekStart); err != nil {
				return nil, fmt.Errorf("storage: read edge: %w", err)
			}
		}
	}
	var bufs [2][]byte // one being filled, one being decoded
	var decoding sync.WaitGroup
	defer decoding.Wait() // the last block, or the one in flight at an error
	for k := 0; ; k++ {
		// Blocks double from 4096 records up to readBlockEdges.
		if want := EdgeBytes * min(readBlockEdges, 4096<<min(k, 6)); len(bufs[k&1]) < want {
			bufs[k&1] = make([]byte, want)
		}
		buf := bufs[k&1]
		n, err := io.ReadFull(r, buf)
		decoding.Wait()
		done := len(edges)
		edges = slices.Grow(edges, n/EdgeBytes)[:done+n/EdgeBytes]
		block := edges[done:]
		decoding.Add(1)
		go func() {
			defer decoding.Done()
			sched.ParallelForChunked(0, len(block), 1<<14, 0, func(lo, hi int) {
				decodeEdges(block[lo:hi], buf[lo*EdgeBytes:hi*EdgeBytes])
			})
		}()
		switch {
		case err == nil:
			continue
		case err != io.EOF && err != io.ErrUnexpectedEOF:
			return nil, fmt.Errorf("storage: read edge: %w", err)
		case n%EdgeBytes != 0:
			return nil, fmt.Errorf("storage: truncated edge record after %d edges", len(edges))
		}
		return edges, nil
	}
}

// TextWriter is the text-format counterpart of BinaryWriter.
type TextWriter struct {
	bw *bufio.Writer
}

// NewTextWriter wraps w for incremental text edge output.
func NewTextWriter(w io.Writer) *TextWriter {
	return &TextWriter{bw: bufio.NewWriterSize(w, 1<<20)}
}

// Write appends a batch of edges as "src dst weight" lines.
func (w *TextWriter) Write(edges []graph.Edge) error {
	for _, e := range edges {
		if _, err := fmt.Fprintf(w.bw, "%d %d %g\n", e.Src, e.Dst, e.W); err != nil {
			return fmt.Errorf("storage: write edge: %w", err)
		}
	}
	return nil
}

// Flush drains the buffer to the underlying writer.
func (w *TextWriter) Flush() error { return w.bw.Flush() }

// WriteText writes edges as whitespace-separated "src dst weight" lines,
// the interchange format accepted by most graph frameworks.
func WriteText(w io.Writer, edges []graph.Edge) error {
	tw := NewTextWriter(w)
	if err := tw.Write(edges); err != nil {
		return err
	}
	return tw.Flush()
}

// ReadText reads whitespace-separated edge lines. Lines may contain two
// fields (unweighted; weight defaults to 1) or three fields. Empty lines and
// lines starting with '#' or '%' are skipped (comment conventions of SNAP
// and Matrix Market edge lists).
func ReadText(r io.Reader) ([]graph.Edge, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []graph.Edge
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("storage: line %d: expected at least 2 fields, got %d", lineNo, len(fields))
		}
		src, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("storage: line %d: bad source vertex: %w", lineNo, err)
		}
		dst, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("storage: line %d: bad destination vertex: %w", lineNo, err)
		}
		w := 1.0
		if len(fields) >= 3 {
			w, err = strconv.ParseFloat(fields[2], 32)
			if err != nil {
				return nil, fmt.Errorf("storage: line %d: bad weight: %w", lineNo, err)
			}
		}
		edges = append(edges, graph.Edge{Src: uint32(src), Dst: uint32(dst), W: graph.Weight(w)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("storage: line %d: scan: %w", lineNo+1, err)
	}
	return edges, nil
}

func weightBits(w graph.Weight) uint32     { return float32bits(float32(w)) }
func weightFromBits(b uint32) graph.Weight { return graph.Weight(float32frombits(b)) }
