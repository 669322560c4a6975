package storage

import (
	"io"
	"time"

	"github.com/epfl-repro/everythinggraph/internal/graph"
)

// LoadResult reports an overlapped load (Section 3.4 of the paper: the
// dynamic builder consumes edges while they arrive from storage, hiding its
// work behind the device; sort-based builders cannot).
type LoadResult struct {
	// Edges holds every edge read from the stream.
	Edges []graph.Edge
	// LoadTime is the simulated device time for the whole stream.
	LoadTime time.Duration
	// ConsumeTime is the measured wall-clock time spent inside the
	// consumer callback (the overlappable pre-processing work).
	ConsumeTime time.Duration
	// EndToEnd is the pipelined completion time: chunks become available at
	// the device's pace and the consumer processes them as they arrive, so
	// the total is neither the sum nor the plain maximum of the two but the
	// makespan of the two-stage pipeline.
	EndToEnd time.Duration
	// Chunks is the number of chunks streamed.
	Chunks int
}

// DefaultLoadChunk is the number of edges handed to the consumer at a time
// when the caller does not specify a chunk size (1 MiB of binary edge data,
// large enough to amortize callback overhead, small enough to overlap).
const DefaultLoadChunk = 1 << 20 / EdgeBytes

// LoadOverlapped streams binary-format edges from r, simulating that the
// bytes arrive from the given device, and invokes consume for every chunk as
// it "arrives". It returns all edges plus the pipelined time accounting.
// The chunks are sub-slices of the result, not copies: consume may keep
// them but must not modify them.
//
// The device is a virtual clock: chunk i becomes available at
// sum(loadTime(chunk_0..i)); the consumer starts a chunk when both the chunk
// is available and the previous chunk has been consumed; EndToEnd is when
// the last chunk finishes. With a nil consume the result degenerates to the
// pure load time.
func LoadOverlapped(r io.Reader, dev Device, chunkEdges int, consume func(chunk []graph.Edge)) (*LoadResult, error) {
	if chunkEdges <= 0 {
		chunkEdges = DefaultLoadChunk
	}
	res := &LoadResult{}

	var available time.Duration // virtual time at which the current chunk has arrived
	var finished time.Duration  // virtual time at which the consumer finished the previous chunk

	consumed := 0 // edges handed to the consumer so far
	flush := func(chunk []graph.Edge) {
		res.Chunks++
		// The chunk arrives after its bytes have streamed from the device.
		available += dev.LoadTime(int64(len(chunk)) * EdgeBytes)
		start := available
		if finished > start {
			start = finished
		}
		var took time.Duration
		if consume != nil {
			t0 := time.Now()
			consume(chunk)
			took = time.Since(t0)
		}
		res.ConsumeTime += took
		finished = start + took
		consumed += len(chunk)
	}
	edges, err := readEdges(r, func(decoded []graph.Edge) {
		for len(decoded)-consumed >= chunkEdges {
			flush(decoded[consumed : consumed+chunkEdges])
		}
	})
	if err != nil {
		return nil, err
	}
	for consumed < len(edges) {
		flush(edges[consumed:min(consumed+chunkEdges, len(edges))])
	}
	res.Edges = edges

	res.LoadTime = dev.EdgeLoadTime(len(res.Edges))
	res.EndToEnd = finished
	if res.EndToEnd < res.LoadTime {
		// A consumer faster than the device finishes when the last byte
		// arrives.
		res.EndToEnd = res.LoadTime
	}
	return res, nil
}
