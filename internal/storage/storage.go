// Package storage provides the loading substrate for the end-to-end view of
// Sections 3.4–3.5: encoding and decoding edge arrays, simulated storage
// devices with a fixed sequential bandwidth (the paper's SSD at 380 MB/s and
// HDD at 100 MB/s), and the model for overlapping pre-processing with
// loading.
//
// Real storage hardware is not available (and would not be reproducible), so
// devices use a virtual clock: loading N bytes from a device with bandwidth
// B takes N/B seconds of simulated time. The overlap model then combines the
// simulated load time with the measured pre-processing compute time exactly
// as the paper describes: dynamic building is fully overlapped with loading,
// count sort can only overlap its first (counting) pass, and radix sort can
// only overlap its first histogram pass.
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
	"time"

	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/prep"
	"github.com/epfl-repro/everythinggraph/internal/sched"
)

// EdgeBytes is the on-disk size of one edge in the binary format: two
// 4-byte vertex ids and a 4-byte float weight.
const EdgeBytes = 12

// Device models a storage medium with a fixed sequential read bandwidth.
type Device struct {
	// Name identifies the device in reports ("memory", "ssd", "hdd").
	Name string
	// BandwidthMBps is the sequential read bandwidth in MB/s (decimal
	// megabytes, as in the paper). Zero means the data is already in memory
	// and loading is free.
	BandwidthMBps float64
}

// The devices used in the paper's evaluation.
var (
	// Memory means the edge array is already resident; loading costs
	// nothing (the assumption of Sections 3.2–3.3).
	Memory = Device{Name: "memory", BandwidthMBps: 0}
	// SSD is the paper's SATA SSD with 380 MB/s maximum bandwidth.
	SSD = Device{Name: "ssd", BandwidthMBps: 380}
	// HDD is the paper's regular hard drive with 100 MB/s bandwidth.
	HDD = Device{Name: "hdd", BandwidthMBps: 100}
)

// LoadTime returns the simulated time to sequentially read the given number
// of bytes from the device.
func (d Device) LoadTime(bytes int64) time.Duration {
	if d.BandwidthMBps <= 0 || bytes <= 0 {
		return 0
	}
	seconds := float64(bytes) / (d.BandwidthMBps * 1e6)
	return time.Duration(seconds * float64(time.Second))
}

// EdgeLoadTime returns the simulated time to load numEdges edges in the
// binary format from the device.
func (d Device) EdgeLoadTime(numEdges int) time.Duration {
	return d.LoadTime(int64(numEdges) * EdgeBytes)
}

// OverlapFraction returns the fraction of a pre-processing method's compute
// that can proceed concurrently with loading the input from storage
// (Section 3.4):
//
//   - Dynamic building consumes edges one at a time as they arrive, so all
//     of its work overlaps with loading.
//   - Count sort can overlap only its first pass (degree counting); the
//     placement pass needs the complete input. With two passes of similar
//     cost, that is half the work.
//   - Radix sort needs the complete input resident before the digit passes
//     can scatter, so only the first histogram pass (1/(2*passes) of the
//     work) overlaps.
//
// The radix fraction is the paper's model of an 8-bit-digit LSD sort — a
// histogram and a scatter per pass, prep.RadixPasses passes — which is what
// Table 3 reproduces. It does not describe prep's radix builder, whose
// overlappable part is exactly its one histogram read.
func OverlapFraction(method prep.Method, numVertices int) float64 {
	switch method {
	case prep.Dynamic:
		return 1.0
	case prep.CountSort:
		return 0.5
	case prep.RadixSort:
		return 1.0 / (2.0 * float64(prep.RadixPasses(numVertices)))
	default:
		return 0
	}
}

// EndToEndPrep combines a simulated load time with a measured
// pre-processing compute time under the overlap model: the overlappable
// part of the pre-processing hides behind the load, and the rest runs after
// the load finishes.
//
//	total = max(load, overlap*prepCompute) + (1-overlap)*prepCompute
func EndToEndPrep(load, prepCompute time.Duration, method prep.Method, numVertices int) time.Duration {
	f := OverlapFraction(method, numVertices)
	overlapped := time.Duration(float64(prepCompute) * f)
	rest := prepCompute - overlapped
	if load > overlapped {
		return load + rest
	}
	return overlapped + rest
}

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

// decodeEdges reads len(dst) records from src. It is the one decoder behind
// ReadBinary and LoadOverlapped.
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
func ReadBinary(r io.Reader) ([]graph.Edge, error) { return readEdges(r, nil) }

// readEdges is ReadBinary. While a block is being decoded it also calls
// each, if there is one, with the edges decoded before that block; the edges
// of the last block are only in the result.
func readEdges(r io.Reader, each func(decoded []graph.Edge)) ([]graph.Edge, error) {
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
		decoded := edges
		edges = slices.Grow(edges, n/EdgeBytes)[:len(edges)+n/EdgeBytes]
		block := edges[len(decoded):]
		decoding.Add(1)
		go func() {
			defer decoding.Done()
			sched.ParallelForChunked(0, len(block), 1<<14, 0, func(lo, hi int) {
				decodeEdges(block[lo:hi], buf[lo*EdgeBytes:hi*EdgeBytes])
			})
		}()
		if each != nil {
			each(decoded)
		}
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
