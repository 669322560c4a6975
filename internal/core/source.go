package core

import (
	"cmp"
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
// every pass of a run the same options — the configured values with the
// budget default applied — so a source sizes its recycled buffers once per
// run.
type StreamOptions struct {
	// Workers is the number of compute workers (column owners) requested
	// for the pass; sources clamp it to the grid and shed workers the
	// budget cannot feed.
	Workers int
	// MemoryBudget bounds the bytes of resident edge buffers across all
	// workers during the pass: 8 bytes per buffered edge, the (src, dst)
	// pair a raw store's record is read into in place, plus 4 for its
	// weight when the store carries a weight plane, plus the payload bytes
	// a compressed store decodes from. Each worker double-buffers
	// (MinPrefetchDepth slots). 0 selects the source's default. One case
	// can exceed it: a compressed store decodes whole cells, so each slot
	// holds at least its largest cell, and when two such slots per worker
	// do not fit, the pass keeps them and overruns the budget by the
	// difference.
	MemoryBudget int64
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
	// edge-buffer bytes, the quantity bounded by MemoryBudget: a pass
	// charges every buffer its pool allocated for as long as it runs.
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
	// only the per-column row order is guaranteed. visit receives the
	// slice's (src, dst) pairs and their weights, nil when every weight is
	// 1 (Algorithm.Cells' contract); both are only valid during the call.
	StreamCells(opt StreamOptions, visit func(worker int, pairs []graph.Pair, weights []graph.Weight)) error
	// Stats returns the cumulative I/O accounting.
	Stats() SourceStats
}

// degreePreset is implemented by algorithms (PageRank) that normally derive
// per-vertex degrees from the resident edge array and must instead accept
// them from the store's metadata.
type degreePreset interface {
	SetOutDegrees([]uint32)
}

// RunStreamed executes alg over the streamed cells of src: Run's grid step
// over a Source, the same runner, kernels and span with the source's
// StreamCells in place of the resident grid's column walk. Only the
// partition-free discipline is supported: column ownership is what lets a
// streamed cell be applied without synchronization, so cfg.Sync must be
// SyncPartitionFree and cfg.Layout LayoutGrid, compressed stores included
// (Flow == Auto relaxes both — the planner pins them itself). Flow may be
// Push, Pull, PushPull (the switch uses the same active-vertex heuristic as
// the in-memory grid) or Auto (the adaptive planner chooses the direction).
// Every pass streams at the stored P under the one budget cfg.MemoryBudget
// configures (0 = DefaultStreamMemoryBudget). Vertex state (algorithm
// arrays, frontiers, degree table) stays resident; edge data stays within
// the source's buffer budget (see StreamOptions.MemoryBudget).
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

	r := newRunner(shim, alg, cfg, workers)
	opt := StreamOptions{
		Workers:      workers,
		MemoryBudget: cmp.Or(cfg.MemoryBudget, DefaultStreamMemoryBudget),
		Lease:        cfg.Lease,
		Trace:        cfg.Trace,
	}
	visit := r.cells // bound once: the per-pass closure allocates nothing
	r.gridPass = func() error { return src.StreamCells(opt, visit) }
	pl := streamPlanner(src, cfg, resolveAlpha(cfg), !alg.Dense())
	return iterate(shim, alg, cfg, workers, pl, src, r.execute)
}
