// Package storage reads and writes edge arrays in two formats: a fixed-size
// little-endian binary record (what the paper's loaders read) and
// whitespace-separated "src dst weight" text lines.
package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"unsafe"

	"github.com/epfl-repro/everythinggraph/internal/graph"
)

// EdgeBytes is the on-disk size of one edge in the binary format: two
// 4-byte vertex ids and a 4-byte float weight.
const EdgeBytes = 12

// A graph.Edge is laid out exactly as one record: Src, Dst and the weight's
// bits, 4 bytes each, no padding. This compile-time check keeps records
// honest if Edge ever changes.
const _ = uint(unsafe.Sizeof(graph.Edge{})-EdgeBytes) + uint(EdgeBytes-unsafe.Sizeof(graph.Edge{}))

// records views edges as their binary records, sharing their memory: on a
// little-endian host a []graph.Edge is its own on-disk form, so records are
// read into and written out of it with no codec in between. Every caller
// checks HostOrder first.
func records(edges []graph.Edge) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(edges))), len(edges)*EdgeBytes)
}

// littleEndian reports whether the host's byte order is the records'. It is
// decided once; tests flip it to exercise the big-endian refusal.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

var errHostOrder = errors.New("storage: binary edge records need a little-endian host")

// HostOrder returns an error on a host whose byte order differs from the
// binary records', where records would not be their edges.
func HostOrder() error {
	if !littleEndian {
		return errHostOrder
	}
	return nil
}

// BinaryWriter incrementally writes edges in the fixed-size binary format
// through one reused buffer, so callers can stream a graph chunk by chunk
// (gengraph's scale-24+ path).
type BinaryWriter struct {
	bw *bufio.Writer
}

// NewBinaryWriter wraps w for incremental binary edge output.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{bw: bufio.NewWriterSize(w, 1<<20)}
}

// Write appends a batch of edges: their records, as records views them.
func (w *BinaryWriter) Write(edges []graph.Edge) error {
	if err := HostOrder(); err != nil {
		return err
	}
	if _, err := w.bw.Write(records(edges)); err != nil {
		return fmt.Errorf("storage: write edge: %w", err)
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

// minReadEdges is the first capacity ReadBinary gives a reader that cannot
// seek; it doubles from there as append does.
const minReadEdges = 4096

// ReadBinary reads edges in the binary format until EOF, straight into the
// result's memory. When r can seek (an *os.File, a *bytes.Reader) the
// result is allocated once, from the length that remains, and filled by one
// read; otherwise each read fills the slice's spare capacity as it grows.
func ReadBinary(r io.Reader) ([]graph.Edge, error) {
	if err := HostOrder(); err != nil {
		return nil, err
	}
	var edges []graph.Edge
	if s, ok := r.(io.Seeker); ok {
		if at, err := s.Seek(0, io.SeekCurrent); err == nil {
			if end, err := s.Seek(0, io.SeekEnd); err == nil && end > at {
				// One record more than the length holds, so that the read
				// meets EOF without the slice growing.
				edges = make([]graph.Edge, 0, (end-at)/EdgeBytes+1)
			}
			if _, err := s.Seek(at, io.SeekStart); err != nil {
				return nil, fmt.Errorf("storage: read edge: %w", err)
			}
		}
	}
	buf := records(edges[:cap(edges)])
	n := 0 // bytes read into buf
	for {
		if n == len(buf) { // full: no partial record to carry over
			edges = slices.Grow(edges[:n/EdgeBytes], max(minReadEdges, n/EdgeBytes))
			buf = records(edges[:cap(edges)])
		}
		m, err := io.ReadFull(r, buf[n:])
		n += m
		switch {
		case err == nil:
			continue
		case err != io.EOF && err != io.ErrUnexpectedEOF:
			return nil, fmt.Errorf("storage: read edge: %w", err)
		case n%EdgeBytes != 0:
			return nil, fmt.Errorf("storage: truncated edge record after %d edges", n/EdgeBytes)
		}
		return edges[:n/EdgeBytes], nil
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
