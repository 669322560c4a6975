package graph

import (
	"math/bits"
	"sync/atomic"
)

// Frontier is the set of active vertices processed during one computation
// step. The engine keeps it in one of two representations:
//
//   - sparse: an explicit list of vertex ids, cheap when few vertices are
//     active (the common case for BFS/SSSP iterations);
//   - dense: a bitmap over all vertices, cheap when most of the graph is
//     active (the dense middle iterations of BFS, every iteration of
//     PageRank) and required by pull-mode traversal, which must test
//     membership for arbitrary vertices.
//
// The push-pull (direction-optimizing) switch of Section 6 decides per
// iteration which representation and direction to use, based on the number
// of active vertices and their outgoing edges.
//
// A frontier may carry BOTH representations at once: builders emit the
// sparse list with the construction bitmap attached, and conversions cache
// their result instead of discarding it, so repeated Sparse()/Bitmap()
// calls in the engine's steady state cost nothing and allocate nothing.
// Frontiers are immutable once built (only representation conversions
// mutate them), which is what makes the caching sound.
type Frontier struct {
	numVertices int
	sparse      []VertexID // active vertex list; valid when !isDense or kept as cache
	dense       []uint64   // bitmap; valid whenever non-nil
	isDense     bool       // dense is the canonical representation
	count       int        // number of active vertices
	outEdges    int64      // sum of out-degrees of active vertices, -1 if unknown
}

// NewFrontier creates an empty sparse frontier for a graph with numVertices
// vertices.
func NewFrontier(numVertices int) *Frontier {
	return &Frontier{numVertices: numVertices, outEdges: -1}
}

// NewFrontierFromSparse creates a frontier from an explicit vertex list. The
// list is retained (not copied).
func NewFrontierFromSparse(numVertices int, vs []VertexID) *Frontier {
	return &Frontier{numVertices: numVertices, sparse: vs, count: len(vs), outEdges: -1}
}

// NewDenseFrontier creates a dense frontier with all of the given vertices
// marked active.
func NewDenseFrontier(numVertices int, vs []VertexID) *Frontier {
	f := &Frontier{numVertices: numVertices, isDense: true, outEdges: -1}
	f.dense = make([]uint64, (numVertices+63)/64)
	for _, v := range vs {
		f.dense[v/64] |= 1 << (v % 64)
	}
	f.count = len(vs)
	return f
}

// FullFrontier returns a dense frontier with every vertex active, used by
// algorithms that process the whole graph each iteration (PageRank, SpMV).
func FullFrontier(numVertices int) *Frontier {
	f := &Frontier{numVertices: numVertices, isDense: true, outEdges: -1}
	f.dense = make([]uint64, (numVertices+63)/64)
	for i := range f.dense {
		f.dense[i] = ^uint64(0)
	}
	// Clear the bits beyond numVertices so Count stays exact.
	if rem := numVertices % 64; rem != 0 && len(f.dense) > 0 {
		f.dense[len(f.dense)-1] = (1 << rem) - 1
	}
	f.count = numVertices
	return f
}

// NumVertices returns the size of the vertex universe.
func (f *Frontier) NumVertices() int { return f.numVertices }

// Count returns the number of active vertices.
func (f *Frontier) Count() int { return f.count }

// IsEmpty reports whether no vertex is active.
func (f *Frontier) IsEmpty() bool { return f.count == 0 }

// Density returns the fraction of the vertex universe that is active, in
// [0, 1]. It is O(1) on both representations; the execution planner's
// direction and layout heuristics consult it before paying for the
// O(frontier) out-degree sum.
func (f *Frontier) Density() float64 {
	if f.numVertices == 0 {
		return 0
	}
	return float64(f.count) / float64(f.numVertices)
}

// IsDense reports whether the frontier currently uses the bitmap
// representation.
func (f *Frontier) IsDense() bool { return f.isDense }

// SetOutEdges records the total number of outgoing edges of the active
// vertices; the push-pull heuristic uses it.
func (f *Frontier) SetOutEdges(n int64) { f.outEdges = n }

// OutEdges returns the recorded active out-edge count, or -1 if unknown.
func (f *Frontier) OutEdges() int64 { return f.outEdges }

// Contains reports whether v is active. It works on both representations
// (O(1) whenever a bitmap is attached, O(count) on purely sparse frontiers;
// the engine densifies before any membership-heavy phase).
func (f *Frontier) Contains(v VertexID) bool {
	if f.dense != nil {
		return f.dense[v/64]&(1<<(v%64)) != 0
	}
	for _, u := range f.sparse {
		if u == v {
			return true
		}
	}
	return false
}

// Sparse returns the active vertices as a slice, converting if necessary.
// The conversion result is cached on the frontier, so calling Sparse every
// iteration on a long-lived dense frontier (PageRank's full frontier)
// allocates only once. The returned slice is shared; callers must not
// modify it.
func (f *Frontier) Sparse() []VertexID {
	if !f.isDense || f.sparse != nil {
		return f.sparse
	}
	out := make([]VertexID, 0, f.count)
	for w, word := range f.dense {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			out = append(out, VertexID(w*64+b))
			word &= word - 1
		}
	}
	f.sparse = out
	return out
}

// Bitmap returns the dense bitmap, converting if necessary. A bitmap
// attached at construction time (builder-emitted frontiers) is returned
// as-is, so the conversion is free in the engine's steady state. The
// returned slice is shared with the frontier.
func (f *Frontier) Bitmap() []uint64 {
	if f.dense == nil {
		f.dense = make([]uint64, (f.numVertices+63)/64)
		for _, v := range f.sparse {
			f.dense[v/64] |= 1 << (v % 64)
		}
	}
	f.isDense = true
	return f.dense
}

// ToDense converts the frontier to the dense representation in place.
func (f *Frontier) ToDense() { f.Bitmap() }

// ToSparse converts the frontier to the sparse representation in place.
func (f *Frontier) ToSparse() {
	if !f.isDense {
		return
	}
	f.sparse = f.Sparse()
	f.dense = nil
	f.isDense = false
}

// FrontierBuilder accumulates the next frontier during an iteration. It is
// safe for concurrent use: vertices are marked in a shared bitmap with
// atomic operations, and per-worker sparse lists avoid contention on a
// shared slice. Collect merges the per-worker lists into a Frontier.
//
// Every Add rewrites its worker's slice header (the length), so each header
// sits on cache lines of its own (workerList): an Add writes the worker's
// private lines and the one shared bitmap word, nothing else. With the
// headers packed — a plain [][]VertexID keeps two and a half of them per
// line — a second worker made Add cost 2.5x as much on a sparse push
// iteration, every append invalidating the line the other worker's next
// append needs.
//
// A builder is reusable: Reset returns it to the empty state in time
// proportional to the vertices added since the previous Reset — not to
// |V|/64 bitmap words — and retains every buffer, so a long-running engine
// performs zero allocations per iteration once its builders are warm. The
// bitmap is shared with the frontiers the builder emits, so an emitted
// frontier is only valid until the builder's next Reset; the engine
// double-buffers two builders to overlap one frontier's consumption with
// the next one's construction.
type FrontierBuilder struct {
	numVertices int
	bits        []uint64
	perWorker   []workerList
}

// workerList is one worker's list of added vertices, padded to a pair of
// cache lines (adjacent lines travel together under the spatial prefetcher)
// so no two workers' headers ever share one.
type workerList struct {
	vs []VertexID
	_  [128 - 24]byte
}

// NewFrontierBuilder creates a builder for numVertices vertices and the
// given number of workers.
func NewFrontierBuilder(numVertices, workers int) *FrontierBuilder {
	if workers < 1 {
		workers = 1
	}
	return &FrontierBuilder{
		numVertices: numVertices,
		bits:        make([]uint64, (numVertices+63)/64),
		perWorker:   make([]workerList, workers),
	}
}

// Add marks v active (idempotent, thread-safe) on behalf of the given
// worker. It returns true if this call was the one that activated v.
func (b *FrontierBuilder) Add(worker int, v VertexID) bool {
	word := &b.bits[v/64]
	mask := uint64(1) << (v % 64)
	for {
		old := atomic.LoadUint64(word)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(word, old, old|mask) {
			l := &b.perWorker[worker]
			l.vs = append(l.vs, v)
			return true
		}
	}
}

// AddUnsynced marks v active without atomics. It must only be used when the
// caller guarantees that no other worker can add the same vertex (e.g.
// pull-mode traversal, where each vertex is processed by exactly one
// worker).
func (b *FrontierBuilder) AddUnsynced(worker int, v VertexID) bool {
	word := &b.bits[v/64]
	mask := uint64(1) << (v % 64)
	if *word&mask != 0 {
		return false
	}
	*word |= mask
	l := &b.perWorker[worker]
	l.vs = append(l.vs, v)
	return true
}

// Contains reports whether v has been added.
func (b *FrontierBuilder) Contains(v VertexID) bool {
	return atomic.LoadUint64(&b.bits[v/64])&(1<<(v%64)) != 0
}

// Reset returns the builder to the empty state so it can build another
// frontier. It runs in O(vertices added since the previous Reset): the bits
// to clear are exactly the ones recorded in the per-worker lists, so the
// whole |V|/64-word bitmap is never touched. The per-worker lists are
// truncated in place, retaining their capacity. Frontiers emitted by
// Collect/CollectInto/CollectDense share the builder's bitmap and become
// invalid when Reset is called.
func (b *FrontierBuilder) Reset() {
	for w := range b.perWorker {
		l := &b.perWorker[w]
		for _, v := range l.vs {
			b.bits[v/64] &^= 1 << (v % 64)
		}
		l.vs = l.vs[:0]
	}
}

// Collect merges the per-worker lists into a sparse Frontier, reusing the
// builder's bitmap as the dense form so the result can flip representation
// cheaply (ToDense/Bitmap on the result is free).
func (b *FrontierBuilder) Collect() *Frontier {
	return b.CollectInto(&Frontier{})
}

// CollectInto is Collect writing into a caller-owned Frontier, reusing its
// sparse buffer: with a warm buffer the merge performs zero allocations.
// The previous contents of f are overwritten. It returns f.
func (b *FrontierBuilder) CollectInto(f *Frontier) *Frontier {
	all := f.sparse[:0]
	for w := range b.perWorker {
		all = append(all, b.perWorker[w].vs...)
	}
	f.numVertices = b.numVertices
	f.sparse = all
	f.dense = b.bits
	f.isDense = false
	f.count = len(all)
	f.outEdges = -1
	return f
}

// CollectDense merges the builder into a dense Frontier, reusing the bitmap.
func (b *FrontierBuilder) CollectDense() *Frontier {
	total := 0
	for w := range b.perWorker {
		total += len(b.perWorker[w].vs)
	}
	return &Frontier{
		numVertices: b.numVertices,
		dense:       b.bits,
		isDense:     true,
		count:       total,
		outEdges:    -1,
	}
}
