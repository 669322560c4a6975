package prep

import (
	"sync"

	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/sched"
)

// stripeCount is the number of locks protecting per-vertex edge arrays in
// the dynamic builder. Striping keeps the lock array small while making
// conflicts between workers unlikely.
const stripeCount = 4096

// buildDynamic implements the paper's "simplest technique": scan the input
// once and append each edge to the per-vertex array of its key vertex,
// allocating and resizing those arrays on demand. The resizing (Go slice
// growth) reproduces the reallocation cost the paper attributes to this
// approach (32 million reallocations for RMAT26), and the append targets
// jump between per-vertex arrays, which is what gives the approach its poor
// cache locality.
//
// The scan is parallelized over edge chunks, with striped locks protecting
// the per-vertex arrays, mirroring the paper's Cilk-parallel pre-processing.
// With mirror, every edge is appended to the arrays of both endpoints.
func buildDynamic(edges []graph.Edge, numVertices int, byDst, mirror, weighted bool, workers int) *graph.Adjacency {
	type cell struct {
		t graph.VertexID
		w graph.Weight
	}
	perVertex := make([][]cell, numVertices)
	var locks [stripeCount]sync.Mutex
	add := func(key, t graph.VertexID, w graph.Weight) {
		locks[key%stripeCount].Lock()
		perVertex[key] = append(perVertex[key], cell{t: t, w: w})
		locks[key%stripeCount].Unlock()
	}

	sched.ParallelForChunked(0, len(edges), sched.DefaultChunkSize, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := edges[i]
			key, t := edgeKey(e, byDst), otherEnd(e, byDst)
			add(key, t, e.W)
			if mirror && key != t {
				add(t, key, e.W)
			}
		}
	})

	// Flatten the per-vertex arrays into CSR form. This pass is part of the
	// dynamic approach's cost: the arrays are scattered across the heap.
	slots := 0
	for _, cells := range perVertex {
		slots += len(cells)
	}
	adj := &graph.Adjacency{
		Index:       make([]uint64, numVertices+1),
		Targets:     make([]graph.VertexID, slots),
		NumVertices: numVertices,
	}
	if weighted {
		adj.Weights = make([]graph.Weight, slots)
	}
	var off uint64
	for v := 0; v < numVertices; v++ {
		adj.Index[v] = off
		for _, c := range perVertex[v] {
			adj.Targets[off] = c.t
			if weighted {
				adj.Weights[off] = c.w
			}
			off++
		}
	}
	adj.Index[numVertices] = off
	return adj
}
