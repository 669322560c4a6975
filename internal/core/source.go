package core

import (
	"fmt"
	"time"

	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/sched"
	"github.com/epfl-repro/everythinggraph/internal/trace"
)

// This file is the engine's out-of-core entry point: a Source streams grid
// cells from somewhere that is not a resident edge slice (a partitioned
// store file, see internal/oocore), and RunStreamed executes an algorithm
// over those streamed cells with the grid's partition-free column
// scheduling, never materializing more than the source's buffer budget.

// StreamOptions bounds one streamed pass over a source. RunStreamed hands
// every pass of a run the same Workers, MemoryBudget and PrefetchDepth —
// the configured values with defaults and clamps applied (see StreamRecipe)
// — and sets only GridLevel per pass, so a source sizes its recycled buffers
// once per run.
type StreamOptions struct {
	// Workers is the number of compute workers (column owners) requested
	// for the pass; sources clamp it with StreamExecWorkers.
	Workers int
	// MemoryBudget bounds the bytes of resident edge buffers across all
	// workers during the pass: StreamResidentEdgeBytes per buffered edge
	// of a raw store, whose records are read straight into the edges the
	// kernel visits, plus the payload bytes a compressed store decodes
	// from. 0 selects the source's default. One case can exceed it: a
	// compressed store decodes whole cells, so every in-rotation slot holds
	// at least its largest cell, and a compressed pass rotates fewer slots
	// (down to MinPrefetchDepth) until that floor fits the budget — when
	// even MinPrefetchDepth slots of the largest cell per worker do not
	// fit, the pass keeps them and overruns the budget by the difference.
	MemoryBudget int64
	// PrefetchDepth is the number of segment buffers each worker keeps in
	// rotation during the pass (0 selects DefaultPrefetchDepth; sources
	// clamp to [MinPrefetchDepth, StreamDepthCap]).
	PrefetchDepth int
	// GridLevel selects the virtual grid resolution of this pass: a coarse
	// dimension from the source's level ladder (see StreamLeveler), at which
	// the source merges adjacent row segments into fewer, larger reads. 0 —
	// or the source's own GridP — streams at the stored resolution. Sources
	// without virtual levels ignore it.
	GridLevel int
	// Lease, when non-nil, runs the pass's compute workers on the lease
	// instead of the process-wide pool. It decides nothing else: leased or
	// not, concurrent passes on one open source share the file handle and
	// cell index but not the stream buffers.
	Lease *sched.Lease
	// Trace, when non-nil, receives fetch (read/decode) spans from the
	// source's prefetch pipeline and stall spans from its compute workers
	// for this pass. Sources without internal instrumentation may ignore it.
	Trace *trace.Recorder
}

// SourceStats is the cumulative I/O accounting of a source. The engine
// diffs it around passes to attribute I/O wait per iteration.
type SourceStats struct {
	// Passes counts completed streamed passes (one per engine iteration).
	Passes int64
	// Reads counts segment reads issued to the backend.
	Reads int64
	// BytesRead is the total bytes fetched from the backend.
	BytesRead int64
	// IOTime is the total time spent fetching and decoding segments; reads
	// overlap compute, so this can exceed the wall-clock of the pass.
	IOTime time.Duration
	// IOWait is the time compute workers actually stalled waiting for a
	// prefetched segment — the part of IOTime the overlap failed to hide.
	IOWait time.Duration
	// PeakResidentBytes is the high-water mark of concurrently resident
	// edge-buffer bytes, the quantity bounded by MemoryBudget.
	PeakResidentBytes int64
}

// Sub returns s - o field-wise (peak is kept, not differenced).
func (s SourceStats) Sub(o SourceStats) SourceStats {
	return SourceStats{
		Passes:            s.Passes - o.Passes,
		Reads:             s.Reads - o.Reads,
		BytesRead:         s.BytesRead - o.BytesRead,
		IOTime:            s.IOTime - o.IOTime,
		IOWait:            s.IOWait - o.IOWait,
		PeakResidentBytes: s.PeakResidentBytes,
	}
}

// Source streams the cells of a disk-resident partitioned graph. It is the
// out-of-core counterpart of graph.Grid: same P x P cell structure, same
// row-major segment order, but cells are fetched on demand instead of
// sliced from a resident edge array.
type Source interface {
	// NumVertices is the vertex count of the dataset.
	NumVertices() int
	// NumEdges is the number of stored edge records.
	NumEdges() int64
	// GridP is the grid dimension.
	GridP() int
	// Undirected reports whether edges were mirrored into the store (the
	// out-of-core counterpart of prep's Undirected doubling).
	Undirected() bool
	// Compressed reports whether cells are stored as compressed segments
	// (decoded inside the source's fetch pipeline). It only affects how plans
	// are labeled and costed — the visit contract of StreamCells is
	// identical either way.
	Compressed() bool
	// OutDegrees returns the per-vertex out-degree table over the stored
	// edges — the vertex metadata algorithms such as PageRank need at init.
	// The returned slice is shared and must not be modified.
	OutDegrees() []uint32
	// StreamCells runs one full pass over every cell. Columns are
	// partitioned among workers and every cell of a column is visited by
	// that column's worker in ascending row order, so all updates to a
	// destination happen on one worker in a deterministic order — the
	// partition-free ownership argument of Section 6.1.2, which also makes
	// streamed results bit-identical to the in-memory grid path. A visit
	// slice may span several cells of the worker's columns (coalesced
	// sequential reads) or a fraction of one cell (budget-bounded slices);
	// only the per-column row order is guaranteed. The slice passed to
	// visit is only valid during the call.
	StreamCells(opt StreamOptions, visit func(worker int, edges []graph.Edge)) error
	// Stats returns the cumulative I/O accounting.
	Stats() SourceStats
}

// StreamLevelInfo describes one virtual grid resolution a source can stream
// at: the coarse dimension and vertex range, the worker count a pass at
// this level effectively runs (StreamExecWorkers at the coarse dimension),
// and the predicted coalesced read count per pass at that count — the
// planner's cost inputs for enumerating stream levels.
type StreamLevelInfo struct {
	P           int
	RangeSize   int
	Workers     int
	Reads       int64
	MaxRunEdges int
}

// StreamLeveler is implemented by sources whose cell layout admits virtual
// coarsening (the .egs store's row-major segments). StreamLevels returns
// the ladder finest first; every returned P is accepted as
// StreamOptions.GridLevel with bit-identical results across levels.
type StreamLeveler interface {
	StreamLevels(workers int, budget int64) []StreamLevelInfo
}

// degreePreset is implemented by algorithms (PageRank) that normally derive
// per-vertex degrees from the resident edge array and must instead accept
// them from the store's metadata.
type degreePreset interface {
	SetOutDegrees([]uint32)
}

// RunStreamed executes alg over the streamed cells of src, the out-of-core
// analogue of Run's grid path. Only the partition-free discipline is
// supported: column ownership is what lets a streamed cell be applied
// without synchronization, so cfg.Sync must be SyncPartitionFree and
// cfg.Layout LayoutGrid, compressed stores included (Flow == Auto relaxes
// both — the planner pins them itself). Flow may be Push, Pull, PushPull
// (the switch uses the same active-vertex heuristic as the in-memory grid)
// or Auto (the adaptive planner chooses direction and virtual grid level
// with measured-cost feedback). Every pass runs on the one I/O recipe
// StreamRecipe resolves from cfg. Vertex state (algorithm arrays,
// frontiers, degree table) stays resident; edge data stays within the
// source's buffer budget (see StreamOptions.MemoryBudget).
func RunStreamed(src Source, alg Algorithm, cfg Config) (*Result, error) {
	if cfg.Flow != Auto {
		if cfg.Layout != graph.LayoutGrid {
			return nil, fmt.Errorf("core: streamed execution runs over grid cells; layout must be grid, not %v", cfg.Layout)
		}
		if cfg.Sync != SyncPartitionFree {
			return nil, fmt.Errorf("core: streamed execution relies on column ownership and supports only sync=no-lock, not %v", cfg.Sync)
		}
	}
	if err := cfg.validateAlpha(); err != nil {
		return nil, err
	}
	workers := resolveWorkers(cfg)

	// The algorithms' Init/InitialFrontier only consult vertex-level
	// metadata, so a graph shim with an empty edge array serves them.
	// Directed is true regardless of the store's flag: mirrored stores
	// already carry both directions, exactly like a grid built with prep's
	// Undirected doubling.
	shim := graph.New(nil, src.NumVertices(), true)
	if dp, ok := alg.(degreePreset); ok {
		dp.SetOutDegrees(src.OutDegrees())
	}

	depth, budget := StreamRecipe(src, cfg)
	r := newStreamRunner(src, alg, StreamOptions{
		Workers:       workers,
		MemoryBudget:  budget,
		PrefetchDepth: depth,
		Lease:         cfg.Lease,
		Trace:         cfg.Trace,
	})
	pl := streamPlanner(src, cfg, workers, budget, resolveAlpha(cfg), !alg.Dense())
	return iterate(shim, alg, cfg, workers, pl, src, r.step)
}

// StreamRecipe resolves the I/O recipe every pass of a streamed run over
// src uses: cfg.MemoryBudget (0 = DefaultStreamMemoryBudget) and
// cfg.PrefetchDepth (0 = DefaultPrefetchDepth), the depth clamped to
// [MinPrefetchDepth, StreamDepthCap] at the stored resolution's
// streaming-effective worker count. Static and adaptive flows alike run
// every pass on it.
func StreamRecipe(src Source, cfg Config) (depth int, budget int64) {
	budget = cfg.MemoryBudget
	if budget <= 0 {
		budget = DefaultStreamMemoryBudget
	}
	depth = cfg.PrefetchDepth
	if depth <= 0 {
		depth = DefaultPrefetchDepth
	}
	depthCap := StreamDepthCap(StreamExecWorkers(src.GridP(), resolveWorkers(cfg), budget), budget)
	return min(max(depth, MinPrefetchDepth), depthCap), budget
}

// StreamExecWorkers returns the number of workers a streamed pass actually
// runs: the requested count clamped to the grid dimension (one worker per
// column at most) and shed while the budget cannot feed every worker's
// minimal buffers (a starved slice costs every read, a shed worker only
// costs parallelism). It is THE definition — sources' buffer pools, the
// level ladder and StreamRecipe all call it, so the planner's view of the
// parallelism is exactly what executes.
func StreamExecWorkers(gridP, workers int, budget int64) int {
	if gridP > 0 && workers > gridP {
		workers = gridP
	}
	if workers < 1 {
		workers = 1
	}
	for workers > 1 && int64(workers)*MinPrefetchDepth*MinStreamSliceEdges*StreamResidentEdgeBytes > budget {
		workers--
	}
	return workers
}

// StreamDepthCap returns the deepest prefetch pipeline the budget can feed
// across the given workers without slices degenerating below
// MinStreamSliceEdges, clamped to [MinPrefetchDepth, MaxPrefetchDepth].
// Shared by StreamRecipe and the sources' buffer pools (their ring size),
// so a resolved depth is always an executed depth.
func StreamDepthCap(workers int, budget int64) int {
	if workers < 1 {
		workers = 1
	}
	depth := int(budget / (int64(workers) * MinStreamSliceEdges * StreamResidentEdgeBytes))
	if depth < MinPrefetchDepth {
		depth = MinPrefetchDepth
	}
	if depth > MaxPrefetchDepth {
		depth = MaxPrefetchDepth
	}
	return depth
}

// streamRunner owns the per-run state of a streamed execution: the stepper
// (same kernels, span and frontier double-buffering as the in-memory runner),
// the pass options that hold for the whole run, and the visit body, bound
// once so the per-iteration loop allocates nothing of its own.
type streamRunner struct {
	stepper
	src   Source
	opt   StreamOptions // the run-wide recipe; step sets GridLevel per pass
	visit func(worker int, edges []graph.Edge)
}

func newStreamRunner(src Source, alg Algorithm, opt StreamOptions) *streamRunner {
	r := &streamRunner{stepper: newStepper(alg, src.NumVertices(), opt.Workers), src: src, opt: opt}
	r.visit = r.edges
	return r
}

// step runs one streamed pass under plan and returns the next frontier (nil
// for dense algorithms). Column ownership makes every streamed cell an owned
// span.
func (r *streamRunner) step(plan StepPlan, frontier *graph.Frontier) (*graph.Frontier, error) {
	r.opt.GridLevel = plan.GridLevel
	r.begin(plan.Flow, SyncPartitionFree, frontier)
	r.span.Bits = frontier.Bitmap()
	err := r.src.StreamCells(r.opt, r.visit)
	next := r.finish()
	return next, err
}
