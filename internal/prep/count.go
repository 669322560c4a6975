package prep

import (
	"sync/atomic"

	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/sched"
)

// buildCountSort implements the two-pass count-sort construction used by
// most graph frameworks (Section 3.2): the first pass over the edge array
// counts the degree of every key vertex, a prefix sum turns the counts into
// CSR offsets, and the second pass places every edge at its final position.
// Both passes read the input sequentially, but the counting pass and the
// placement pass write to per-vertex counters and to scattered offsets of
// the output array, which is the poor-locality behaviour Table 2 attributes
// to this approach.
func buildCountSort(edges []graph.Edge, numVertices int, byDst, weighted bool, workers int) *graph.Adjacency {
	// Pass 1: count degrees. Parallel chunks update shared counters with
	// atomic increments (random access across the counter array).
	counts := make([]uint64, numVertices+1)
	sched.ParallelForChunked(0, len(edges), sched.DefaultChunkSize, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			key := edgeKey(edges[i], byDst)
			atomic.AddUint64(&counts[key+1], 1)
		}
	})

	// Exclusive prefix sum -> CSR index.
	index := make([]uint64, numVertices+1)
	var sum uint64
	for v := 1; v <= numVertices; v++ {
		sum += counts[v]
		index[v] = sum
	}

	// Pass 2: place edges. cursor[v] is the next free slot of vertex v;
	// claimed with fetch-add so the pass can run in parallel. The writes to
	// Targets/Weights land at scattered positions of the output array, just
	// like the paper's description ("this step jumps between distant
	// positions in the array").
	cursor := make([]uint64, numVertices)
	copy(cursor, index[:numVertices])
	adj := &graph.Adjacency{
		Index:       index,
		Targets:     make([]graph.VertexID, len(edges)),
		NumVertices: numVertices,
	}
	if weighted {
		adj.Weights = make([]graph.Weight, len(edges))
	}
	sched.ParallelForChunked(0, len(edges), sched.DefaultChunkSize, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := edges[i]
			key := edgeKey(e, byDst)
			pos := atomic.AddUint64(&cursor[key], 1) - 1
			adj.Targets[pos] = otherEnd(e, byDst)
			if weighted {
				adj.Weights[pos] = e.W
			}
		}
	})
	return adj
}
