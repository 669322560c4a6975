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
// A frontier may carry BOTH representations at once: builders attach their
// bitmap to the frontiers they emit, and conversions cache their result
// instead of discarding it, so repeated Sparse()/Bitmap() calls in the
// engine's steady state cost nothing and allocate nothing. A frontier keeps
// its list buffer across CollectInto, so a dense frontier's list is
// materialised into the buffer of the frontier it recycles. Frontiers are
// immutable once built (only representation conversions mutate them), which
// is what makes the caching sound.
type Frontier struct {
	numVertices int
	sparse      []VertexID // active vertex list when listed; otherwise a spare buffer
	dense       []uint64   // bitmap; valid whenever non-nil
	isDense     bool       // dense is the canonical representation
	listed      bool       // sparse holds the active vertices
	count       int        // number of active vertices
	outEdges    int64      // sum of out-degrees of active vertices, -1 if unknown
}

// NewFrontier creates an empty sparse frontier for a graph with numVertices
// vertices.
func NewFrontier(numVertices int) *Frontier {
	return &Frontier{numVertices: numVertices, listed: true, outEdges: -1}
}

// NewFrontierFromSparse creates a frontier from an explicit vertex list. The
// list is retained (not copied).
func NewFrontierFromSparse(numVertices int, vs []VertexID) *Frontier {
	return &Frontier{numVertices: numVertices, sparse: vs, listed: true, count: len(vs), outEdges: -1}
}

// NewDenseFrontier creates a dense frontier with all of the given vertices
// marked active. A vertex listed twice counts once.
func NewDenseFrontier(numVertices int, vs []VertexID) *Frontier {
	f := &Frontier{numVertices: numVertices, isDense: true, outEdges: -1}
	f.dense = make([]uint64, (numVertices+63)/64)
	for _, v := range vs {
		f.dense[v/64] |= 1 << (v % 64)
	}
	for _, word := range f.dense {
		f.count += bits.OnesCount64(word)
	}
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
// A list materialised from the bitmap is in ascending order, goes into the
// frontier's list buffer (so a recycled frontier converts without
// allocating once its buffer is warm) and is cached on the frontier, so
// calling Sparse every iteration on a long-lived dense frontier (PageRank's
// full frontier) converts only once. The returned slice is shared; callers
// must not modify it.
func (f *Frontier) Sparse() []VertexID {
	if f.listed {
		return f.sparse
	}
	out := f.sparse[:0]
	if cap(out) < f.count {
		out = make([]VertexID, 0, f.count)
	}
	for w, word := range f.dense {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			out = append(out, VertexID(w*64+b))
			word &= word - 1
		}
	}
	f.sparse, f.listed = out, true
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
	f.Sparse()
	f.dense = nil
	f.isDense = false
}

// FrontierBuilder accumulates the next frontier during an iteration. It
// offers two ways to activate vertices, and a build uses one of them:
//
//   - Add marks one vertex with an atomic compare-and-swap on the shared
//     bitmap and appends it to the calling worker's list. Any worker may add
//     any vertex (push iterations); Collect then emits the merged lists as a
//     sparse frontier with the bitmap attached. AddOwned is the same
//     activation without the compare-and-swap, for a build one goroutine
//     runs alone (a push iteration too small to split across workers).
//   - SetWord ORs a whole 64-vertex bitmap word that the calling worker owns
//     and counts the bits it set; nothing is appended (pull iterations,
//     whose chunks are whole words). Collect then emits a dense frontier,
//     the bitmap plus its count, and the vertex list is materialised only if
//     a push iteration asks for it (Frontier.Sparse).
//
// Every Add rewrites its worker's slice header (the length) and every
// SetWord its worker's count, so each worker's state sits on cache lines of
// its own (workerList): an add writes the worker's private lines and the one
// bitmap word, nothing else. With the headers packed — a plain [][]VertexID
// keeps two and a half of them per line — a second worker made Add cost 2.5x
// as much on a sparse push iteration, every append invalidating the line the
// other worker's next append needs.
//
// A builder is reusable: Reset returns it to the empty state in time
// proportional to the work of the build — the vertices added since the
// previous Reset, or after SetWords the |V|/64 words the pull already
// walked — and retains every buffer, so a long-running engine performs zero
// allocations per iteration once its builders are warm. The bitmap is shared
// with the frontiers the builder emits, so an emitted frontier is only valid
// until the builder's next Reset; the engine double-buffers two builders to
// overlap one frontier's consumption with the next one's construction.
type FrontierBuilder struct {
	numVertices int
	bits        []uint64
	perWorker   []workerList
}

// workerList is one worker's added vertices (Add) and count of bits set
// (SetWord), padded to a pair of cache lines (adjacent lines travel together
// under the spatial prefetcher) so no two workers' state ever shares one.
type workerList struct {
	vs       []VertexID
	wordBits int
	_        [128 - 32]byte
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

// AddOwned is Add for a caller that owns v's bitmap word: no other worker
// adds any of its 64 vertices during this build, which holds when one
// goroutine runs the whole push iteration. It is the single-vertex sibling
// of SetWord: a plain load and store instead of the compare-and-swap.
func (b *FrontierBuilder) AddOwned(worker int, v VertexID) bool {
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

// SetWord marks active, on behalf of the given worker, the vertices
// 64*word+i for every bit i set in mask. It uses no atomics: the caller must
// own the word, i.e. no other worker may add any of its 64 vertices during
// this build — pull iterations guarantee it by chunking destinations in
// whole words.
func (b *FrontierBuilder) SetWord(worker, word int, mask uint64) {
	old := b.bits[word]
	b.bits[word] = old | mask
	b.perWorker[worker].wordBits += bits.OnesCount64(mask &^ old)
}

// Contains reports whether v has been added.
func (b *FrontierBuilder) Contains(v VertexID) bool {
	return atomic.LoadUint64(&b.bits[v/64])&(1<<(v%64)) != 0
}

// wordBits returns the number of vertices SetWord activated since the
// previous Reset.
func (b *FrontierBuilder) wordBits() int {
	n := 0
	for w := range b.perWorker {
		n += b.perWorker[w].wordBits
	}
	return n
}

// Reset returns the builder to the empty state so it can build another
// frontier. After Adds it clears exactly the bits recorded in the per-worker
// lists, so the whole |V|/64-word bitmap is never touched; after SetWords it
// clears the bitmap, which the pull that set it walked in full. The
// per-worker lists are truncated in place, retaining their capacity.
// Frontiers emitted by Collect/CollectInto share the builder's bitmap and
// become invalid when Reset is called.
func (b *FrontierBuilder) Reset() {
	words := b.wordBits() > 0
	for w := range b.perWorker {
		l := &b.perWorker[w]
		if !words {
			for _, v := range l.vs {
				b.bits[v/64] &^= 1 << (v % 64)
			}
		}
		l.vs, l.wordBits = l.vs[:0], 0
	}
	if words {
		clear(b.bits)
	}
}

// Collect is CollectInto a new Frontier.
func (b *FrontierBuilder) Collect() *Frontier {
	return b.CollectInto(&Frontier{})
}

// CollectInto turns the build into a Frontier written into a caller-owned
// one, whose previous contents are overwritten; the builder's bitmap is
// attached either way, so the result can flip representation cheaply. After
// Adds it is sparse: the per-worker lists merged into f's list buffer, so
// with a warm buffer the merge performs zero allocations. After SetWords it
// is dense: the bitmap and its count, with f's list buffer kept for the
// first Sparse call. It returns f.
func (b *FrontierBuilder) CollectInto(f *Frontier) *Frontier {
	f.numVertices = b.numVertices
	f.sparse = f.sparse[:0]
	f.dense = b.bits
	f.outEdges = -1
	if n := b.wordBits(); n > 0 {
		f.isDense, f.listed, f.count = true, false, n
		return f
	}
	for w := range b.perWorker {
		f.sparse = append(f.sparse, b.perWorker[w].vs...)
	}
	f.isDense, f.listed, f.count = false, true, len(f.sparse)
	return f
}
