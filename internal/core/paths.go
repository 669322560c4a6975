package core

import (
	"sort"

	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/sched"
)

// This file contains the per-layout iteration paths: how each layout's
// iteration is chunked over the workers. The per-edge loops themselves live
// in the algorithm's span kernels — every chunk is one call into them (or
// into the locked pushes of a SyncLocks plan), so no layout path carries a
// loop of its own over edges.

// execute runs one iteration under plan and returns the next frontier (nil
// for dense algorithms).
func (r *runner) execute(plan StepPlan, frontier *graph.Frontier) *graph.Frontier {
	r.begin(plan.Flow, plan.Sync, frontier)
	switch plan.Layout {
	case graph.LayoutEdgeArray:
		r.edgeCentric(frontier)
	case graph.LayoutGrid:
		r.gridStep(frontier, plan)
	default: // LayoutAdjacency, LayoutAdjacencySorted
		if plan.Flow == Pull {
			r.vertexPull(frontier)
		} else {
			r.vertexPush(frontier)
		}
	}
	r.chunked = nil // the frontier object is recycled two iterations on
	return r.finish()
}

// pushEdgeChunk is the target number of out-edges per push chunk. Push
// iterations are partitioned by ACTIVE OUT-EDGES, not active vertices, so a
// power-law hub with a million out-neighbours becomes its own chunk instead
// of serializing one worker on a vertex-count chunk that happens to contain
// it (RMAT/Twitter skew). A single vertex is the splitting limit, as in any
// vertex-centric framework.
const pushEdgeChunk = 2048

// callerPushEdges is the active out-edge total below which a push iteration
// runs on the calling goroutine alone, its span not Atomic: with one
// goroutine no destination is shared, so the kernels need no atomics and
// the gang no hand-off (Section 6: synchronization is paid for sharing, and
// ownership is what removes it). Swept on 2 CPUs, two runs each, s per op —
// warm.sssp.road (push iterations of at most ~4,700 out-edges): 2048 →
// 0.0510/0.0476, 4096 → 0.0503/0.0457, 8192 → 0.0490/0.0447, 16384 →
// 0.0491/0.0449, 32768 → 0.0499/0.0447 (without the rule: 0.0520/0.0483);
// warm.bfs.rmat: 0.0968/0.0890, 0.0958/0.0892, 0.0935/0.0880,
// 0.0952/0.0890, 0.0909/0.0889 (without: 0.0943/0.0875). 8192 is the
// smallest swept value that keeps every lattice iteration off the gang, which
// also makes SSSP's iteration count independent of the schedule. Caller-only
// iterations from minMeasureEdges up feed the cost model under the plan's
// usual label; warm.bfs.rmat's plan trace, 226 iterations and 64 switches
// are unchanged by them.
const callerPushEdges = 8192

// callerPushLimit is the threshold vertexPush reads: callerPushEdges, which
// tests pin at both extremes to drive every push through one path.
var callerPushLimit int64 = callerPushEdges

// pullVertexChunk is the chunk size for pull iterations: 1024 vertices, 16
// words of each vertex bitmap, so a worker owns whole 128-byte blocks (the
// block per-worker state is padded to, and the adjacent-line prefetch pair)
// of BFS's visited bitmap and of the next frontier, which pull kernels set
// a word at a time with the unsynchronized FrontierBuilder.SetWord. At 256
// vertices (32 bytes) two workers wrote the same line in nearly every chunk.
// Swept on 2 CPUs, warm.bfs.rmat s per op, two runs each: 256 →
// 0.143/0.147, 512 → 0.132/0.120, 1024 → 0.127/0.131, 2048 →
// 0.131/0.138, 4096 → 0.125/0.135, 8192 → 0.128/0.123; flat from one
// line up, so sharing, not the number of chunks, was the cost. The chunk is
// also the unit of balance: RMAT-18's heaviest 1024-vertex chunk holds 0.111
// of the in-edges (In.Index; a ninth, as a+c = 0.76 per bit predicts, and
// 0.193 at 4096), which bounds a pull's speed-up near 9 workers.
const pullVertexChunk = 1024

// A chunk boundary never splits a bitmap word.
const _ = uint(-(pullVertexChunk % 64))

// pushChunks chunks the frontier's active list for a push iteration and
// records the out-edge total the walk produced on the frontier. The planner
// (activeOutEdges) and vertexPush both come through here; within one
// iteration the second caller finds the table already built.
func (r *runner) pushChunks(f *graph.Frontier) []int {
	if r.chunked != f {
		r.active = f.Sparse()
		// A canonically dense frontier (a pull's, or PageRank's full one)
		// materializes its sparse list in ascending order, so covering every
		// vertex means active[i] == i. Frontiers a push built are sparse
		// canonical, unsorted per-worker concatenations: even when every
		// vertex is active they must take the degree-walk path.
		identity := f.IsDense() && len(r.active) == r.out.NumVertices
		r.buildPushChunks(r.active, r.out, identity)
		f.SetOutEdges(r.chunkEdges)
		r.chunked = f
	}
	return r.chunkStarts
}

// buildPushChunks computes edge-balanced chunk boundaries into the active
// list: starts[c]..starts[c+1] spans at least pushEdgeChunk out-edges
// (except the last chunk), and leaves the list's out-edge total in
// r.chunkEdges. The boundary table is owned by the runner and reused across
// iterations. When identityOrder reports that active[i] == i (a full
// canonically-dense frontier, the every-iteration case for dense
// algorithms) the boundaries are found by binary search on the CSR index
// in O(chunks·log V) instead of walking every degree.
func (r *runner) buildPushChunks(active []graph.VertexID, out *graph.Adjacency, identityOrder bool) []int {
	starts := r.chunkStarts[:0]
	starts = append(starts, 0)
	n := len(active)
	r.chunkEdges = 0
	if n == 0 {
		r.chunkStarts = starts
		return starts
	}
	idx := out.Index
	if identityOrder {
		// active[i] == i, so CSR offsets map directly to active indices.
		r.chunkEdges = int64(idx[n] - idx[0])
		v := 0
		for v < n {
			target := idx[v] + pushEdgeChunk
			if idx[n] <= target {
				starts = append(starts, n)
				break
			}
			w := sort.Search(n+1, func(w int) bool { return w > v && idx[w] >= target })
			starts = append(starts, w)
			v = w
		}
	} else {
		var acc, total uint64
		for i, u := range active {
			acc += idx[u+1] - idx[u]
			if acc >= pushEdgeChunk {
				starts = append(starts, i+1)
				total += acc
				acc = 0
			}
		}
		if starts[len(starts)-1] != n {
			starts = append(starts, n)
		}
		r.chunkEdges = int64(total + acc)
	}
	r.chunkStarts = starts
	return starts
}

// vertexPush runs one vertex-centric push iteration over the out-adjacency:
// every active vertex streams its outgoing neighbours and updates them under
// the configured synchronization discipline (Section 6: push works on the
// active subset only, but destination updates need locks or atomics). An
// iteration of fewer than callerPushLimit out-edges is too small to split:
// it runs on the caller as worker 0, which then owns every destination and
// every word of the next frontier, so its span is not Atomic.
func (r *runner) vertexPush(frontier *graph.Frontier) {
	starts := r.pushChunks(frontier)
	if r.chunkEdges < callerPushLimit {
		r.span.Atomic = false
		r.pushChunksBody(0, 0, len(starts)-1)
		return
	}
	r.pfor(0, len(starts)-1, 1, r.workers, r.pushChunksBody)
}

// vertexPull runs one vertex-centric pull iteration over the in-adjacency:
// every vertex that still needs data scans its incoming neighbours, reads
// the ones active in the current frontier and updates only its own state —
// no synchronization needed, and the scan may stop early (Section 6.1.1).
// Each destination belongs to exactly one worker, and so does each word of
// the next frontier's bitmap (see pullVertexChunk): kernels gather a word's
// activations in a register and set it with one unsynchronized SetWord, and
// the frontier this builds is dense, listed only if a push asks for it.
func (r *runner) vertexPull(frontier *graph.Frontier) {
	r.span.Bits = frontier.Bitmap()
	r.pfor(0, r.g.NumVertices(), pullVertexChunk, r.workers, r.pullBody)
}

// edgeCentric runs one edge-centric iteration: the whole edge array is
// streamed and the algorithm is applied to every edge whose source is
// active. Destinations are updated under locks or atomics — edge arrays
// offer no ownership structure to avoid synchronization (Section 6.1.3).
// Undirected datasets traverse each stored edge in both directions.
func (r *runner) edgeCentric(frontier *graph.Frontier) {
	r.span.Bits = frontier.Bitmap()
	r.span.Mirror = !r.g.Directed
	// The owned kernels do not mirror, so a mirrored slice keeps its atomic
	// updates even on one worker.
	r.span.Atomic = r.span.Atomic || r.span.Mirror
	r.pfor(0, len(r.g.EdgeArray.Edges), sched.DefaultChunkSize, r.workers, r.edgeBody)
}

// gridStep runs one iteration over the grid layout. Under
// SyncPartitionFree, workers own whole columns: every edge of a column has
// its destination inside the column's vertex range, so both push updates
// and pull updates of those destinations are race-free without locks
// (Section 6.1.2). Under locks/atomics, cells are processed independently
// with synchronized destination updates (the "grid (locks)" configuration
// of Figure 8).
func (r *runner) gridStep(frontier *graph.Frontier, plan StepPlan) {
	r.level = r.gridLevel(plan)
	r.span.Bits = frontier.Bitmap()
	if plan.Sync == SyncPartitionFree {
		// Column ownership: worker processes every span of its (level)
		// columns.
		r.pfor(0, r.level.P, 1, r.workers, r.gridOwnedBody)
	} else {
		// Cell-parallel with synchronized updates, over the level's cells.
		r.pfor(0, r.level.P*r.level.P, 4, r.workers, r.gridCellsBody)
	}
}

// gridLevel resolves the plan's grid resolution against the pyramid. Plans
// always carry the level the planner chose; the fallbacks cover grids built
// outside prep (no pyramid — the runner-local identity level stands in, so
// the shared graph is never mutated mid-run) and hand-assembled plans in
// tests.
func (r *runner) gridLevel(plan StepPlan) *graph.GridLevel {
	grid := r.g.Grid
	if plan.GridLevel > 0 {
		if lv := grid.LevelByP(plan.GridLevel); lv != nil {
			return lv
		}
	}
	if grid.NumLevels() > 0 {
		return grid.Level(0)
	}
	return &r.fineLevel
}
