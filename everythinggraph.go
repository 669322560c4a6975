// Package everythinggraph is a multicore graph-processing library that
// reproduces the system built for the study "Everything you always wanted to
// know about multicore graph processing but were afraid to ask" (Malicevic,
// Lepers, Zwaenepoel; USENIX ATC 2017).
//
// The library deliberately exposes the paper's decision space as
// configuration rather than hiding it behind a single "best" implementation:
//
//   - Layout: edge array, adjacency lists (CSR, optionally sorted) or a
//     GridGraph-style grid of cells;
//   - Pre-processing method: dynamic building, count sort or parallel radix
//     sort;
//   - Information flow: push, pull or direction-optimizing push-pull;
//   - Synchronization: locks, atomics or partition-based lock freedom.
//
// Every run reports an end-to-end time breakdown (load, pre-processing,
// algorithm), because the paper's central result is that
// pre-processing often dominates and must not be ignored.
//
// Quick start:
//
//	g := everythinggraph.GenerateRMAT(18, 16, 1)
//	res, err := g.Run(everythinggraph.BFS(0), everythinggraph.Config{
//		Layout: everythinggraph.LayoutAdjacency,
//		Flow:   everythinggraph.FlowPush,
//		Sync:   everythinggraph.SyncAtomics,
//	})
//	fmt.Println(res.Breakdown)
package everythinggraph

import (
	"fmt"
	"io"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/core"
	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/metrics"
	"github.com/epfl-repro/everythinggraph/internal/oocore"
	"github.com/epfl-repro/everythinggraph/internal/prep"
	"github.com/epfl-repro/everythinggraph/internal/sched"
	"github.com/epfl-repro/everythinggraph/internal/storage"
	"github.com/epfl-repro/everythinggraph/internal/trace"
)

// Re-exported element types.
type (
	// Edge is a directed edge (source, destination, weight).
	Edge = graph.Edge
	// VertexID identifies a vertex.
	VertexID = graph.VertexID
	// Weight is an edge weight.
	Weight = graph.Weight
	// Layout selects the in-memory representation iterated by the engine.
	Layout = graph.Layout
	// Flow selects push, pull or push-pull propagation.
	Flow = core.Flow
	// Sync selects the synchronization discipline.
	Sync = core.SyncMode
	// PrepMethod selects how adjacency lists and grids are built.
	PrepMethod = prep.Method
	// Algorithm is the contract implemented by every graph algorithm.
	Algorithm = core.Algorithm
	// Breakdown is the end-to-end time breakdown of a run.
	Breakdown = metrics.Breakdown
	// IterationStats describes one engine iteration.
	IterationStats = core.IterationStats
	// StepPlan is the resolved {layout, flow, sync} recipe one iteration
	// ran under; adaptive runs record one per iteration.
	StepPlan = core.StepPlan
	// IOStats is the storage accounting of an out-of-core (streamed) run.
	IOStats = core.SourceStats
)

// Layout constants.
const (
	// LayoutEdgeArray streams the raw edge array (edge-centric).
	LayoutEdgeArray = graph.LayoutEdgeArray
	// LayoutAdjacency iterates per-vertex edge arrays (vertex-centric).
	LayoutAdjacency = graph.LayoutAdjacency
	// LayoutAdjacencySorted is LayoutAdjacency with neighbour lists sorted
	// by destination.
	LayoutAdjacencySorted = graph.LayoutAdjacencySorted
	// LayoutGrid iterates a 2-D grid of edge cells.
	LayoutGrid = graph.LayoutGrid
)

// Flow constants.
const (
	// FlowPush propagates from active vertices to their out-neighbours.
	FlowPush = core.Push
	// FlowPull lets destinations read from their in-neighbours.
	FlowPull = core.Pull
	// FlowPushPull switches per iteration (direction-optimizing).
	FlowPushPull = core.PushPull
	// FlowAuto hands direction, layout and synchronization to the adaptive
	// execution planner, which picks per iteration among the layouts
	// materialized on the graph using density thresholds and measured
	// costs. Config.Layout and Config.Sync become preparation hints.
	FlowAuto = core.Auto
)

// Sync constants.
const (
	// SyncLocks protects push updates with striped per-vertex locks.
	SyncLocks = core.SyncLocks
	// SyncAtomics updates unowned destinations atomically.
	SyncAtomics = core.SyncAtomics
	// SyncPartitionFree relies on destination ownership (pull mode, grid
	// columns) to avoid synchronization entirely.
	SyncPartitionFree = core.SyncPartitionFree
)

// Pre-processing method constants.
const (
	// PrepDynamic grows per-vertex arrays while scanning the input.
	PrepDynamic = prep.Dynamic
	// PrepCountSort builds CSR with a two-pass count sort.
	PrepCountSort = prep.CountSort
	// PrepRadixSort builds CSR with a parallel radix sort on the source id.
	PrepRadixSort = prep.RadixSort
)

// Graph is a dataset plus whatever layouts have been materialized for it.
type Graph struct {
	g *graph.Graph
	// directed is the dataset's own directedness, the default of
	// Config.Undirected. g.Directed is the setting the materialized layouts
	// were built under, and the one every run over them reads.
	directed bool
}

func wrap(g *graph.Graph) *Graph { return &Graph{g: g, directed: g.Directed} }

// NewGraph wraps a raw edge list. If numVertices is zero it is derived from
// the edges. directed records whether the dataset is directed (undirected
// datasets store each edge once and are traversed symmetrically).
func NewGraph(edges []Edge, numVertices int, directed bool) *Graph {
	return wrap(graph.New(edges, numVertices, directed))
}

// Internal exposes the underlying graph for the benchmark harness and tests
// inside this module.
func (g *Graph) Internal() *graph.Graph { return g.g }

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return g.g.NumVertices() }

// NumEdges returns the stored edge count.
func (g *Graph) NumEdges() int { return g.g.NumEdges() }

// GenerateRMAT generates an RMAT power-law graph with 2^scale vertices and
// 2^scale*edgeFactor edges (the paper's RMAT-N datasets use edgeFactor 16).
func GenerateRMAT(scale, edgeFactor int, seed int64) *Graph {
	return wrap(gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: edgeFactor, Seed: seed}))
}

// GenerateTwitterProfile generates a directed graph with Twitter-like skew
// (stand-in for the Twitter follower graph).
func GenerateTwitterProfile(scale int, seed int64) *Graph {
	return wrap(gen.TwitterProfile(gen.TwitterProfileOptions{Scale: scale, Seed: seed}))
}

// GenerateRoad generates an undirected high-diameter road-network-like
// lattice with width*height vertices (stand-in for the DIMACS US-Road
// graph).
func GenerateRoad(width, height int, seed int64) *Graph {
	return wrap(gen.Road(gen.RoadOptions{Width: width, Height: height, ShortcutFraction: 0.05, Seed: seed, Weighted: true}))
}

// GenerateBipartite generates a bipartite rating graph with the given user
// and item counts (stand-in for the Netflix dataset used by ALS).
func GenerateBipartite(users, items, ratingsPerUser int, seed int64) *Graph {
	return wrap(gen.Bipartite(gen.BipartiteOptions{Users: users, Items: items, RatingsPerUser: ratingsPerUser, Seed: seed}))
}

// LoadBinary reads a graph in the library's binary edge format.
func LoadBinary(r io.Reader, directed bool) (*Graph, error) {
	edges, err := storage.ReadBinary(r)
	if err != nil {
		return nil, err
	}
	return NewGraph(edges, 0, directed), nil
}

// LoadText reads a graph from a whitespace-separated edge list.
func LoadText(r io.Reader, directed bool) (*Graph, error) {
	edges, err := storage.ReadText(r)
	if err != nil {
		return nil, err
	}
	return NewGraph(edges, 0, directed), nil
}

// WriteBinary writes the graph's edge array in the binary edge format.
func (g *Graph) WriteBinary(w io.Writer) error {
	return storage.WriteBinary(w, g.g.EdgeArray.Edges)
}

// WriteText writes the graph's edge array as a text edge list.
func (g *Graph) WriteText(w io.Writer) error {
	return storage.WriteText(w, g.g.EdgeArray.Edges)
}

// Config selects the techniques for Prepare and Run.
type Config struct {
	// Layout selects the data layout (default LayoutAdjacency).
	Layout Layout
	// Flow selects push/pull/push-pull/auto (default FlowPush). FlowAuto
	// delegates the whole per-iteration technique choice to the adaptive
	// planner; the chosen plans are recorded in Result.Run.PerIteration.
	Flow Flow
	// Sync selects locks/atomics/partition-free (default SyncAtomics).
	Sync Sync
	// Prep selects the pre-processing method (default PrepRadixSort).
	Prep PrepMethod
	// Undirected treats the dataset as undirected: the layouts Prepare
	// builds and the run traverse every edge in both directions (required
	// by WCC on directed inputs). It defaults to the dataset's own
	// directedness. Layouts built under the other setting are dropped and
	// rebuilt.
	Undirected *bool
	// GridP is the grid dimension (0 = the paper's 256, clamped for small
	// graphs and — for oversized requests — by LLC fit).
	GridP int
	// Workers bounds parallelism (0 = all CPUs).
	Workers int
	// MaxIterations caps the engine iterations (0 = no cap).
	MaxIterations int
	// PushPullAlpha overrides the direction-switch threshold denominator.
	// Only the dynamic flows (FlowPushPull, FlowAuto) read it; setting it
	// with a static flow is rejected at validation instead of being
	// silently ignored.
	PushPullAlpha int
	// MemoryBudget bounds the resident edge-buffer bytes of out-of-core
	// (Store) runs, split between each worker's two segment buffers
	// (double buffering); in-memory runs ignore it. 0 selects the default
	// (256 MiB); a negative budget is rejected. Every pass uses the whole
	// budget, under any flow.
	MemoryBudget int64
	// Lease pins the run to a reserved subset of the shared worker pool
	// (see NewLease), so several runs execute truly concurrently instead
	// of interleaving on the global gang loop. Workers is clamped to the
	// lease's size. nil (the default) runs on the shared pool.
	Lease *Lease
	// Trace attaches a run recorder (see NewTraceRecorder): the engine,
	// planners, scheduler and — on Store runs — the fetcher pipeline record
	// iteration spans, planner decisions and I/O events into it, and
	// Result.Run.Metrics is filled with the counters-and-histograms
	// snapshot. nil (the default) disables tracing entirely. A recorder
	// belongs to one run at a time; reusing it across consecutive runs
	// appends to the same timeline.
	Trace *TraceRecorder
}

// TraceRecorder is a run-scoped trace event recorder. Attach one via
// Config.Trace, then export with WriteChromeTrace (a Chrome/Perfetto
// trace-event file) or Snapshot (flat counters and histograms).
type TraceRecorder = trace.Recorder

// NewTraceRecorder returns a recorder with a ring buffer of the given event
// capacity (rounded up to a power of two; <= 0 selects the default). When
// the ring fills, the oldest events are dropped and counted.
func NewTraceRecorder(capacity int) *TraceRecorder {
	return trace.NewRecorder(capacity)
}

// MetricsSnapshot is the flat counters-and-histograms view of a traced run,
// available as Result.Run.Metrics after a traced run completes.
type MetricsSnapshot = metrics.Snapshot

// Result reports one end-to-end run.
type Result struct {
	// Breakdown is the end-to-end time split (load/pre-process/algorithm).
	// Prepare fills Preprocess; Run fills Algorithm.
	Breakdown Breakdown
	// Run holds the engine's per-iteration statistics.
	Run *core.Result
}

// Prepare builds the layouts required by cfg and returns the time spent.
// It is idempotent per layout: already-built layouts are not rebuilt, unless
// they were built under the other setting of Config.Undirected, or — for the
// grid — at another dimension than Config.GridP resolves to.
func (g *Graph) Prepare(cfg Config) (Breakdown, error) {
	var bd Breakdown
	sw := metrics.NewStopwatch()
	undirected := !g.directed
	if cfg.Undirected != nil {
		undirected = *cfg.Undirected
	}
	if g.g.Directed == undirected {
		// The run's undirectedness is recorded once, on the graph the
		// engine reads; layouts of the other setting must not serve it.
		g.g.Directed = !undirected
		g.g.Out, g.g.In, g.g.Grid = nil, nil, nil
	}
	opt := prep.Options{
		Method:        cfg.Prep,
		Workers:       cfg.Workers,
		SortNeighbors: cfg.Layout == LayoutAdjacencySorted,
		Undirected:    undirected,
	}
	switch cfg.Layout {
	case LayoutEdgeArray:
		if cfg.Flow == FlowAuto {
			// The zero-value Layout must not strand the planner on the
			// edge array — its whole point is choosing among layouts, so
			// give it both adjacency directions to work with.
			dir := prep.InOut
			if opt.Undirected {
				dir = prep.Out
			}
			if err := g.ensureAdjacency(dir, opt); err != nil {
				return bd, err
			}
			break
		}
		// Nothing to build: the edge array is the input format, so its
		// pre-processing cost is exactly zero (Section 3.2 of the paper).
		return bd, nil
	case LayoutAdjacency, LayoutAdjacencySorted:
		dir := prep.Out
		switch cfg.Flow {
		case FlowPull:
			dir = prep.In
		case FlowPushPull, FlowAuto:
			// The dynamic flows need both directions resident so the
			// planner can switch between them.
			dir = prep.InOut
		}
		if opt.Undirected {
			// Undirected adjacency lists double the edges; a single set of
			// per-vertex arrays serves both directions.
			dir = prep.Out
		}
		if err := g.ensureAdjacency(dir, opt); err != nil {
			return bd, err
		}
	case LayoutGrid:
		if g.g.Grid == nil || g.g.Grid.P != graph.GridPFor(g.g.NumVertices(), cfg.GridP) {
			if err := prep.BuildGrid(g.g, cfg.GridP, opt); err != nil {
				return bd, err
			}
		}
	default:
		return bd, fmt.Errorf("everythinggraph: unknown layout %v", cfg.Layout)
	}
	bd.Preprocess = sw.Lap()
	return bd, nil
}

// ensureAdjacency builds only the missing adjacency directions.
func (g *Graph) ensureAdjacency(dir prep.Direction, opt prep.Options) error {
	switch dir {
	case prep.Out:
		if g.g.Out != nil {
			return nil
		}
	case prep.In:
		if g.g.In != nil {
			return nil
		}
	case prep.InOut:
		if g.g.Out != nil && g.g.In != nil {
			return nil
		}
		if g.g.Out != nil {
			dir = prep.In
		} else if g.g.In != nil {
			dir = prep.Out
		}
	}
	return prep.BuildAdjacency(g.g, dir, opt)
}

// Run prepares the graph for cfg (timing the pre-processing) and executes
// the algorithm, returning the end-to-end breakdown and the engine result.
func (g *Graph) Run(alg Algorithm, cfg Config) (*Result, error) {
	prepBD, err := g.Prepare(cfg)
	if err != nil {
		return nil, err
	}
	res, err := core.Run(g.g, alg, engineConfig(cfg))
	if err != nil {
		return nil, err
	}
	bd := prepBD
	bd.Algorithm = res.AlgorithmTime
	return &Result{Breakdown: bd, Run: res}, nil
}

// ValidateTechniques rejects {layout, flow, sync} combinations that no
// dataset can run (the graph-independent rules of Section 6), so callers
// can fail fast with one clear error before generating or loading a graph.
func ValidateTechniques(layout Layout, flow Flow, sync Sync) error {
	return core.ValidateTechniques(layout, flow, sync)
}

// Store is an open out-of-core partitioned grid store: the grid layout of
// Section 5.1, resident on disk as per-cell segments and streamed through
// a bounded memory budget during execution (see internal/oocore for the
// format). Only vertex-level metadata is kept in memory.
type Store struct {
	s *oocore.Store
}

// OpenStore opens a partitioned grid store file, validating its checksums
// and that no edge segment is truncated.
func OpenStore(path string) (*Store, error) {
	s, err := oocore.Open(path)
	if err != nil {
		return nil, err
	}
	return &Store{s: s}, nil
}

// BuildStore writes g's edges as a partitioned grid store at path: 8-byte
// (src, dst) records, plus a weight plane when some weight is not 1. gridP
// follows Config.GridP semantics (0 = the paper's 256, clamped for small
// graphs); undirected mirrors each edge into the store, which WCC requires.
func BuildStore(path string, g *Graph, gridP int, undirected bool) error {
	_, err := oocore.BuildStoreFromGraph(path, g.g, gridP, undirected)
	return err
}

// BuildCompressedStore is BuildStore for the version-3 format: each edge is
// written as two fixed-width offsets inside its cell's ranges (2 bytes each
// on 1,024-wide ranges; weights, when present, in a parallel plane),
// decoded inside the prefetch pipeline during streamed runs. Results stay
// bit-identical to BuildStore's stores and in-memory runs; only the bytes
// moved per pass shrink.
func BuildCompressedStore(path string, g *Graph, gridP int, undirected bool) error {
	_, err := oocore.BuildCompressedStoreFromGraph(path, g.g, gridP, undirected)
	return err
}

// Close releases the store's file handle.
func (st *Store) Close() error { return st.s.Close() }

// NumVertices returns the store's vertex count.
func (st *Store) NumVertices() int { return st.s.NumVertices() }

// NumEdges returns the number of stored edge records (doubled for
// undirected stores).
func (st *Store) NumEdges() int64 { return st.s.NumEdges() }

// GridP returns the store's grid dimension.
func (st *Store) GridP() int { return st.s.GridP() }

// Undirected reports whether edges were mirrored into the store.
func (st *Store) Undirected() bool { return st.s.Undirected() }

// FormatVersion returns the store's on-disk format version: 4 for
// pair-record segments, 3 for compressed segments.
func (st *Store) FormatVersion() int { return st.s.Header().Version }

// Compressed reports whether the store holds compressed (version-3) cell
// segments.
func (st *Store) Compressed() bool { return st.s.Compressed() }

// Weighted reports whether the store carries a weight plane.
func (st *Store) Weighted() bool { return st.s.Header().Weighted }

// CompressionRatio returns the binary edge file's bytes (12 per stored
// edge) over the store's actual edge-data footprint: 12 / (8 + 4 when
// weighted) for pair records; for compressed stores 12 / (2w + 4 when
// weighted), w the offset width: 1.5x for a weighted store on 1,024-wide
// ranges, 6x unweighted on 256-wide.
func (st *Store) CompressionRatio() float64 {
	p := st.s.GridP()
	var stored int64
	for cell := 0; cell < p*p; cell++ {
		stored += st.s.CellStoredBytes(cell)
	}
	if stored == 0 {
		return 1
	}
	return float64(st.s.NumEdges()*12) / float64(stored)
}

// IOStats returns the store's cumulative storage accounting.
func (st *Store) IOStats() IOStats { return st.s.Stats() }

// Run executes alg out-of-core over the store's streamed cells. Streamed
// execution is the grid layout under partition-free column scheduling —
// the only discipline whose ownership argument survives cells arriving
// from disk — so cfg.Layout and cfg.Sync are ignored and forced to
// LayoutGrid and SyncPartitionFree; Flow (push, pull or the switching
// combination), Workers, MemoryBudget and the iteration caps are honoured.
// The breakdown reports how much of the algorithm time stalled on storage
// and how much storage time the prefetch overlap hid.
func (st *Store) Run(alg Algorithm, cfg Config) (*Result, error) {
	before := st.s.Stats()
	res, err := core.RunStreamed(st.s, alg, streamConfig(cfg))
	if err != nil {
		return nil, err
	}
	io := res.IO.Sub(before)
	hidden := io.IOTime - io.IOWait
	if hidden < 0 {
		hidden = 0
	}
	bd := Breakdown{
		Algorithm: res.AlgorithmTime,
		IOWait:    io.IOWait,
		IOHidden:  hidden,
	}
	return &Result{Breakdown: bd, Run: res}, nil
}

// streamConfig is the engine configuration of a Store run.
func streamConfig(cfg Config) core.Config {
	return core.Config{
		Layout:        LayoutGrid,
		Flow:          cfg.Flow,
		Sync:          SyncPartitionFree,
		Workers:       cfg.Workers,
		PushPullAlpha: cfg.PushPullAlpha,
		MaxIterations: cfg.MaxIterations,
		MemoryBudget:  cfg.MemoryBudget,
		Lease:         cfg.Lease,
		Trace:         cfg.Trace,
	}
}

// Lease is a reserved subset of the shared worker pool. Runs configured
// with a lease (Config.Lease) execute on exactly that subset with their own
// gang-loop state, so two leased runs — in-memory or streamed, even over one
// open Store — proceed concurrently instead of serializing on the global
// loop. Release it when done; a released lease's workers rejoin the shared
// pool.
type Lease = sched.Lease

// NewLease reserves up to n workers of the shared pool (the caller's
// goroutine always participates, so a lease never computes with fewer than
// one worker; when the pool is fully subscribed the lease may hold fewer
// than n). Always pair with Release.
func NewLease(n int) *Lease { return sched.DefaultPool().Lease(n) }

// BatchKind selects which algorithm a Batch call runs.
type BatchKind = core.BatchKind

// Batch kinds.
const (
	// BatchBFS batches breadth-first traversals.
	BatchBFS = core.BatchBFS
	// BatchSSSP batches single-source shortest-path computations.
	BatchSSSP = core.BatchSSSP
)

// BatchSourceResult is one source's share of a batched run.
type BatchSourceResult = core.BatchSourceResult

// Batch answers many same-algorithm queries in one call, one single-source
// run per source, with results in input order. The runs go side by side on
// worker-pool leases, one worker wide once there are at least as many
// sources as workers; on a caller-held cfg.Lease they go one after another.
// cfg follows Run semantics; cfg.Workers bounds the combined worker count
// across the side-by-side runs, and cfg.Trace records the first source's
// run only.
func (g *Graph) Batch(kind BatchKind, sources []VertexID, cfg Config) ([]BatchSourceResult, error) {
	if _, err := g.Prepare(cfg); err != nil {
		return nil, err
	}
	return core.Batch(g.g, kind, sources, engineConfig(cfg))
}

// BatchLanes returns how many runs Graph.Batch puts side by side for n
// sources under cfg: one on a caller-held lease, min(workers, n) otherwise.
func BatchLanes(cfg Config, n int) int { return core.BatchLanes(engineConfig(cfg), n) }

// engineConfig is the engine configuration of an in-memory run.
func engineConfig(cfg Config) core.Config {
	return core.Config{
		Layout:        cfg.Layout,
		Flow:          cfg.Flow,
		Sync:          cfg.Sync,
		Workers:       cfg.Workers,
		PushPullAlpha: cfg.PushPullAlpha,
		MaxIterations: cfg.MaxIterations,
		Lease:         cfg.Lease,
		Trace:         cfg.Trace,
	}
}

// Algorithm constructors.

// BFS returns a breadth-first search rooted at source.
func BFS(source VertexID) *algorithms.BFS { return algorithms.NewBFS(source) }

// PageRank returns a PageRank with the paper's defaults (10 iterations,
// damping 0.85).
func PageRank() *algorithms.PageRank { return algorithms.NewPageRank() }

// WCC returns a weakly-connected-components computation.
func WCC() *algorithms.WCC { return algorithms.NewWCC() }

// SSSP returns a single-source shortest-paths computation rooted at source.
func SSSP(source VertexID) *algorithms.SSSP { return algorithms.NewSSSP(source) }

// SpMV returns a sparse matrix-vector multiplication with an all-ones input
// vector.
func SpMV() *algorithms.SpMV { return algorithms.NewSpMV() }

// ALS returns an alternating-least-squares factorization for a bipartite
// graph whose first `users` vertices are users.
func ALS(users int) *algorithms.ALS { return algorithms.NewALS(users) }
