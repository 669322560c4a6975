// Package core contains the graph-processing engine: the single system in
// which the paper's techniques are implemented and can be enabled
// selectively. The engine iterates either over vertices (adjacency lists),
// over edges (edge arrays) or over grid cells, propagates information by
// pushing, pulling or switching between the two, synchronizes destination
// updates with locks, atomics or by partitioning the destination space, and
// reports per-iteration statistics so the benchmarks can reconstruct the
// paper's figures.
package core

import (
	"fmt"
	"time"

	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/metrics"
	"github.com/epfl-repro/everythinggraph/internal/sched"
	"github.com/epfl-repro/everythinggraph/internal/trace"
)

// Flow selects the direction of information propagation (Section 6).
type Flow int

const (
	// Push iterates over active vertices and writes to their out-neighbours.
	Push Flow = iota
	// Pull iterates over destination vertices and reads from their
	// in-neighbours; only the destination's own state is written.
	Pull
	// PushPull switches per iteration between Push and Pull depending on
	// the size of the frontier (direction-optimizing traversal).
	PushPull
	// Auto hands every per-iteration decision — direction, but also layout
	// and synchronization — to the planner over every plan
	// the materialized layouts can run, chosen by density thresholds and
	// measured per-iteration costs (the paper's synthesis). Config.Layout
	// and Config.Sync are treated as preparation hints only.
	Auto
)

// String returns the label used in benchmark tables.
func (f Flow) String() string {
	switch f {
	case Push:
		return "push"
	case Pull:
		return "pull"
	case PushPull:
		return "push-pull"
	case Auto:
		return "auto"
	default:
		return fmt.Sprintf("Flow(%d)", int(f))
	}
}

// SyncMode selects how concurrent updates to destination vertices are made
// safe (Section 6.1.2). It names a plan's discipline for concurrent
// updates, not what every iteration pays: an iteration one goroutine runs
// alone — a push too small to split, any iteration of a one-worker run —
// has no concurrent update to synchronize, so its span is not Atomic under
// the same plan label (SyncLocks plans keep their locks, and mirrored edge
// arrays their atomics).
type SyncMode int

const (
	// SyncLocks protects destination updates with striped per-vertex
	// locks: each push update is one call of the algorithm's PushEdge inside
	// the destination's stripe lock. Pull rows own their destinations and
	// take no lock.
	SyncLocks SyncMode = iota
	// SyncAtomics has the span kernels update destinations they do not own
	// atomically (compare-and-swap loops, or ALS's accumulator stripes).
	SyncAtomics
	// SyncPartitionFree relies on the data layout to give each worker
	// exclusive ownership of a destination range (grid columns, in pull
	// mode as in push) or on pull-mode vertex ownership, so no
	// synchronization is needed.
	SyncPartitionFree
)

// String returns the label used in benchmark tables.
func (s SyncMode) String() string {
	switch s {
	case SyncLocks:
		return "locks"
	case SyncAtomics:
		return "atomics"
	case SyncPartitionFree:
		return "no-lock"
	default:
		return fmt.Sprintf("SyncMode(%d)", int(s))
	}
}

// DefaultPushPullAlpha is the denominator of the direction-optimizing
// threshold: an iteration pulls when the active vertices' outgoing edges
// exceed |E|/alpha (Beamer's heuristic as adopted by Ligra).
const DefaultPushPullAlpha = 20

// Streamed (out-of-core) I/O bounds, shared by RunStreamed and the stream
// sources so the engine and a source's buffer pool agree on what fits.
const (
	// DefaultStreamMemoryBudget bounds resident edge buffers when no budget
	// is configured (256 MiB).
	DefaultStreamMemoryBudget = 256 << 20
	// MinPrefetchDepth is the number of segment buffers each worker keeps
	// in rotation: classic double buffering, one slot computed on while the
	// next is read (below two slots there is nothing to overlap).
	MinPrefetchDepth = 2
)

// Config selects the techniques for a run.
type Config struct {
	// Layout selects the data layout to iterate over. The corresponding
	// structure must have been built on the graph (see internal/prep).
	Layout graph.Layout
	// Flow selects push, pull or the dynamic combination.
	Flow Flow
	// Sync selects the synchronization discipline for destination updates.
	Sync SyncMode
	// Workers bounds the parallelism (0 = all CPUs).
	Workers int
	// PushPullAlpha overrides the direction-switch threshold denominator
	// (0 = DefaultPushPullAlpha).
	PushPullAlpha int
	// MaxIterations caps the number of iterations (0 = no cap). Algorithms
	// with a fixed iteration count (PageRank) converge on their own.
	MaxIterations int
	// MemoryBudget bounds the resident edge-buffer bytes of streamed
	// (out-of-core) execution; it is ignored by in-memory runs. 0 selects
	// DefaultStreamMemoryBudget; a negative budget is rejected. Every pass
	// of a streamed run, under any flow, uses the whole budget.
	MemoryBudget int64
	// Lease dedicates a carved-out subset of the process-wide worker pool to
	// this run (see sched.Pool.Lease): every parallel loop of the run, the
	// compute side of streamed passes included, executes on the lease's
	// workers only, so two leased runs proceed truly concurrently instead of
	// serializing on the shared pool's single gang-loop slot. The lease bounds
	// the run's parallelism (Workers is additionally honoured below it), and
	// per-run scratch is sized to the lease. The caller owns the lease's
	// lifecycle: Release it after the run (or runs) it serves. nil (the
	// default) runs on the shared pool exactly as before.
	Lease *sched.Lease
	// Trace attaches a run-scoped trace recorder. When non-nil, the engine,
	// the planner and the out-of-core fetcher pipeline record iteration
	// spans, planner decisions and fetch/stall spans into it, and
	// Result.Metrics carries the counters+histograms snapshot. The
	// recording path is allocation-free in the steady state; nil (the
	// default) disables tracing at the cost of one pointer test per event
	// site. A recorder belongs to one run at a time: reuse across
	// consecutive runs appends to the same timeline, concurrent runs must
	// each get their own.
	Trace *trace.Recorder
}

// IterationStats describes one iteration of a run.
type IterationStats struct {
	// Iteration is the zero-based iteration number.
	Iteration int
	// ActiveVertices is the number of vertices in the frontier processed by
	// this iteration.
	ActiveVertices int
	// ActiveEdges is the number of outgoing edges of those vertices: known
	// whenever the direction-optimizing switch asked for it or the iteration
	// pushed over an adjacency (chunking the frontier sums its degrees), -1
	// otherwise — a dense frontier Auto pulls without the degree sum, and
	// a pull Auto keeps because the previous pulls halved.
	ActiveEdges int64
	// Plan is the resolved execution recipe the iteration ran under. Static
	// configurations repeat the configured techniques here (with dynamic
	// flows resolved); adaptive runs record what the planner chose.
	Plan StepPlan
	// Duration is the wall-clock time of the iteration.
	Duration time.Duration
	// IOWait is the time compute stalled on storage during this iteration
	// (zero for in-memory runs; see RunStreamed).
	IOWait time.Duration
	// IOHidden is the storage time of this iteration that the prefetch
	// overlap DID hide behind compute (IOTime - IOWait of the pass, floored
	// at zero). Recorded alongside IOWait for observability.
	IOHidden time.Duration
}

// Result reports a run.
type Result struct {
	// Algorithm is the algorithm name.
	Algorithm string
	// Iterations is the number of iterations executed.
	Iterations int
	// AlgorithmTime is the total algorithm execution time (the sum of
	// iteration durations plus frontier management).
	AlgorithmTime time.Duration
	// PerIteration holds one entry per executed iteration.
	PerIteration []IterationStats
	// IO is the cumulative storage accounting of the run's source (zero
	// for in-memory runs; see RunStreamed).
	IO SourceStats
	// Metrics is the flat counters+histograms snapshot of the run, filled
	// only when Config.Trace was set (nil otherwise). It is the expvar-style
	// programmatic surface a serving layer can scrape: Metrics.Get,
	// Metrics.Do and Metrics.String are all nil-safe.
	Metrics *metrics.Snapshot
}

// PlanTrace returns the per-iteration plan labels of the run, in execution
// order — the raw material of the plan traces printed by the benchmarks
// (see metrics.CompressPlanTrace for the compact rendering).
func (r *Result) PlanTrace() []string {
	trace := make([]string, len(r.PerIteration))
	for i, it := range r.PerIteration {
		trace[i] = it.Plan.String()
	}
	return trace
}

// ValidateTechniques checks the graph-independent consistency of a
// {layout, flow, sync} combination — the rules of Section 6 that hold for
// every dataset. CLIs call it before paying for generation or loading, so
// an impossible combination fails with one clear line instead of surfacing
// deep inside a run.
func ValidateTechniques(layout graph.Layout, flow Flow, sync SyncMode) error {
	if flow == Auto {
		// The adaptive planner only ever emits valid combinations; layout
		// and sync act as preparation hints, so there is nothing
		// graph-independent to reject.
		return nil
	}
	switch layout {
	case graph.LayoutEdgeArray:
		if sync == SyncPartitionFree {
			return fmt.Errorf("core: edge arrays cannot run without synchronization (no destination ownership); use locks or atomics")
		}
		if flow == PushPull {
			return fmt.Errorf("core: push-pull switching is meaningless on edge arrays (every iteration scans all edges)")
		}
	case graph.LayoutAdjacency, graph.LayoutAdjacencySorted:
		if (flow == Push || flow == PushPull) && sync == SyncPartitionFree {
			// The push iterations of a push-pull run are as unowned as any
			// other push.
			return fmt.Errorf("core: push on adjacency lists requires locks or atomics (destinations are not partitioned)")
		}
	case graph.LayoutGrid:
		// Every flow/sync combination has a grid path.
	default:
		return fmt.Errorf("core: unknown layout %v", layout)
	}
	return nil
}

// validateAlpha rejects per-iteration-planning knobs that would be silently
// ignored: the threshold denominator only participates in the dynamic flows
// — setting it elsewhere means the benchmark config lies about what ran.
// It also rejects a negative memory budget, which sizes no pass (0 is the
// way to ask for the default).
func (cfg Config) validateAlpha() error {
	if cfg.PushPullAlpha < 0 {
		return fmt.Errorf("core: PushPullAlpha must be positive, got %d", cfg.PushPullAlpha)
	}
	if cfg.PushPullAlpha != 0 && cfg.Flow != PushPull && cfg.Flow != Auto {
		return fmt.Errorf("core: PushPullAlpha is only used by the push-pull and auto flows; flow %v would silently ignore it", cfg.Flow)
	}
	if cfg.MemoryBudget < 0 {
		return fmt.Errorf("core: MemoryBudget must be non-negative, got %d", cfg.MemoryBudget)
	}
	return nil
}

// Validate checks that the configuration is consistent with the graph's
// materialized layouts and with the synchronization rules of Section 6.
func (cfg Config) Validate(g *graph.Graph) error {
	if err := ValidateTechniques(cfg.Layout, cfg.Flow, cfg.Sync); err != nil {
		return err
	}
	if err := cfg.validateAlpha(); err != nil {
		return err
	}
	if cfg.Flow == Auto {
		// The planner works with whatever layouts are materialized; it
		// needs at least one (the edge array qualifies whenever the dataset
		// has edges, so this only fires on degenerate inputs).
		if g.Out == nil && g.In == nil && g.Grid == nil && len(g.EdgeArray.Edges) == 0 {
			return fmt.Errorf("core: auto flow needs at least one materialized layout or a non-empty edge array")
		}
		return nil
	}
	switch cfg.Layout {
	case graph.LayoutEdgeArray:
		if g.EdgeArray == nil {
			return fmt.Errorf("core: graph has no edge array")
		}
	case graph.LayoutAdjacency, graph.LayoutAdjacencySorted:
		needOut := cfg.Flow == Push || cfg.Flow == PushPull
		needIn := cfg.Flow == Pull || cfg.Flow == PushPull
		if needOut && g.Out == nil {
			return fmt.Errorf("core: %v/%v requires outgoing adjacency lists (run prep.BuildAdjacency with direction Out or InOut)", cfg.Layout, cfg.Flow)
		}
		if needIn && g.In == nil && g.Directed {
			return fmt.Errorf("core: %v/%v requires incoming adjacency lists on directed graphs (run prep.BuildAdjacency with direction In or InOut)", cfg.Layout, cfg.Flow)
		}
	case graph.LayoutGrid:
		if g.Grid == nil {
			return fmt.Errorf("core: grid layout requested but not built (run prep.BuildGrid)")
		}
	}
	return nil
}
