package core

import (
	"fmt"
	"time"

	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/sched"
)

// Run executes alg over g with the techniques selected by cfg and returns
// the per-iteration statistics. The graph must already carry the layouts the
// configuration needs (see internal/prep); Run measures only algorithm
// execution time, never pre-processing, matching the paper's methodology of
// reporting the two phases separately.
//
// Every iteration executes through an explicit StepPlan produced by the
// planner (see plan.go) — over the configured plan for a static
// configuration, over every runnable layout for Flow == Auto — and the plan
// each iteration ran is recorded in its IterationStats.
//
// Steady-state execution (every iteration after the first) performs no heap
// allocations and spawns no goroutines: parallel loops run on persistent
// pool workers (see internal/sched), the next-frontier builders and the
// frontiers they emit are double-buffered and recycled, and every loop body
// is bound once at setup and reused; each chunk of a loop is one call into
// the algorithm's span kernels (see Algorithm). Allocation happens only while
// the buffers warm up during the first iterations.
func Run(g *graph.Graph, alg Algorithm, cfg Config) (*Result, error) {
	if err := cfg.Validate(g); err != nil {
		return nil, err
	}
	workers := resolveWorkers(cfg)
	r := newRunner(g, alg, cfg, workers)
	pl, err := residentPlanner(g, cfg, r, resolveAlpha(cfg), workers, !alg.Dense())
	if err != nil {
		return nil, err
	}
	return iterate(g, alg, cfg, workers, pl, nil, func(plan StepPlan, frontier *graph.Frontier) (*graph.Frontier, error) {
		return r.execute(plan, frontier), nil
	})
}

// iterate is the engine's one plan → execute → observe loop, behind both Run
// and RunStreamed: the only place where an iteration is timed and recorded.
// g is what the algorithm initializes against (the resident graph, or
// RunStreamed's vertex-only shim), step executes one iteration under the
// chosen plan and returns the next frontier (nil for dense algorithms), and
// src — nil for in-memory runs — is the streamed source whose I/O accounting
// is diffed around every iteration and around the run.
func iterate(g *graph.Graph, alg Algorithm, cfg Config, workers int, pl *planner, src Source,
	step func(StepPlan, *graph.Frontier) (*graph.Frontier, error)) (*Result, error) {
	if ra, ok := alg.(Rooted); ok {
		if s, n := ra.Root(), g.NumVertices(); int(s) >= n {
			return nil, fmt.Errorf("core: source %d out of range (graph has %d vertices)", s, n)
		}
	}
	if rb, ok := alg.(RunBound); ok {
		rb.BindRun(workers, parallelFor(cfg))
	}
	alg.Init(g)
	frontier := alg.InitialFrontier(g)
	res := &Result{Algorithm: alg.Name()}

	// A traced run diffs the scheduler's counters around itself: the lease's
	// own gang counters when it holds one (concurrent leased runs must not
	// read each other's loops), the process-wide pool's otherwise.
	schedCounters := sched.DefaultCounters
	if cfg.Lease != nil {
		schedCounters = cfg.Lease.Counters
	}
	rec := cfg.Trace
	var labeler *planLabeler
	var schedBefore sched.PoolCounters
	if rec != nil {
		rec.SetNumVertices(g.NumVertices())
		labeler = newPlanLabeler(rec)
		schedBefore = schedCounters()
	}
	ioStart := sourceStats(src)

	start := time.Now()
	for iter := 0; ; iter++ {
		if cfg.MaxIterations > 0 && iter >= cfg.MaxIterations {
			break
		}
		if !alg.Dense() && frontier.IsEmpty() {
			break
		}

		alg.BeforeIteration(iter)
		iterStart := time.Now()
		ioBefore := sourceStats(src)

		// Plan selection is part of the timed iteration: the threshold
		// tests and the cost model are real switching overhead and must
		// show up in the per-iteration accounting.
		plan := pl.Next(iter, frontier)
		stats := IterationStats{
			Iteration:      iter,
			ActiveVertices: frontier.Count(),
			ActiveEdges:    frontier.OutEdges(),
			Plan:           plan,
		}

		next, err := step(plan, frontier)
		if err != nil {
			return nil, err
		}

		stats.Duration = time.Since(iterStart)
		if stats.ActiveEdges < 0 {
			// A push step walked the frontier's degrees to chunk it.
			stats.ActiveEdges = frontier.OutEdges()
		}
		io := sourceStats(src).Sub(ioBefore)
		stats.IOWait = io.IOWait
		if hidden := io.IOTime - io.IOWait; hidden > 0 {
			stats.IOHidden = hidden
		}
		res.PerIteration = append(res.PerIteration, stats)
		res.Iterations++
		if labeler != nil {
			labeler.emitIteration(iterStart, stats)
		}
		pl.Observe(plan, stats)

		converged := alg.AfterIteration(iter)
		if !alg.Dense() {
			frontier = next
		}
		if converged {
			break
		}
	}
	res.AlgorithmTime = time.Since(start)
	res.IO = sourceStats(src)
	if rec != nil {
		finishRunTrace(rec, res, schedCounters().Sub(schedBefore), src != nil, res.IO.Sub(ioStart))
	}
	return res, nil
}

// sourceStats reads a run's cumulative I/O accounting: the source's for a
// streamed run, all zeros — as is every difference of it — for an in-memory
// one (src == nil).
func sourceStats(src Source) SourceStats {
	if src == nil {
		return SourceStats{}
	}
	return src.Stats()
}

// resolveAlpha resolves the direction-switch threshold denominator.
func resolveAlpha(cfg Config) int {
	if cfg.PushPullAlpha > 0 {
		return cfg.PushPullAlpha
	}
	return DefaultPushPullAlpha
}

// resolveWorkers resolves a run's degree of parallelism: the configured
// count (0 = all CPUs), additionally bounded by the lease's width when the
// run executes on a lease — per-worker scratch is sized to this, and leased
// loops hand out dense worker ids below it.
func resolveWorkers(cfg Config) int {
	workers := cfg.Workers
	if workers <= 0 {
		workers = sched.MaxWorkers()
	}
	if cfg.Lease != nil {
		if lw := cfg.Lease.Workers(); lw < workers {
			workers = lw
		}
	}
	return workers
}

// parallelFor returns the run's parallel-loop executor: the lease-scoped one
// when the run holds a lease, the process-wide pool's otherwise. Bound once
// per run so the per-iteration paths stay allocation-free.
func parallelFor(cfg Config) func(begin, end, chunk, p int, body func(worker, lo, hi int)) {
	if cfg.Lease != nil {
		return cfg.Lease.ParallelForWorker
	}
	return sched.ParallelForWorker
}

// stepper is the engine's side of the span contract, shared by the in-memory
// and the streamed runner: it binds which kernels execute an iteration (the
// algorithm's own, or its locked pushes under SyncLocks), fills the
// iteration's graph.Span, and owns the double-buffered next-frontier state —
// two (builder, frontier) pairs so one frontier can be consumed while the
// next is built into the other pair's buffers.
type stepper struct {
	alg         Algorithm
	numVertices int
	workers     int
	track       bool // build the next frontier (false for dense algorithms)

	// locked runs alg's pushes under the stripe locks; its table is
	// allocated by the first SyncLocks plan.
	locked lockedPush

	// Per-iteration binding, set by begin and read by every worker.
	kern Algorithm
	span graph.Span
	pull bool // flat edge slices run the pull kernel

	builders [2]*graph.FrontierBuilder
	fronts   [2]graph.Frontier
	flip     int
}

func newStepper(alg Algorithm, numVertices, workers int) stepper {
	return stepper{
		alg:         alg,
		numVertices: numVertices,
		workers:     workers,
		track:       !alg.Dense(),
		locked:      lockedPush{Algorithm: alg},
	}
}

// begin binds the kernels and the span of one iteration. Builders alternate
// between two instances so the frontier emitted by the previous iteration
// (which shares its builder's bitmap) stays valid while this iteration's
// frontier is assembled. Callers that test frontier membership set
// span.Bits themselves: converting the frontier is only worth paying where
// the layout path needs the bitmap.
func (st *stepper) begin(flow Flow, sync SyncMode, frontier *graph.Frontier) {
	st.kern = st.alg
	if sync == SyncLocks {
		if st.locked.locks == nil {
			st.locked.locks = newVertexLocks()
		}
		st.kern = &st.locked
	}
	st.pull = flow == Pull
	// A one-worker run shares no destination with anyone: every iteration
	// is owned.
	st.span = graph.Span{
		Full:   frontier.Count() == st.numVertices,
		Atomic: sync == SyncAtomics && st.workers > 1,
	}
	if !st.track {
		return
	}
	b := st.builders[st.flip]
	if b == nil {
		b = graph.NewFrontierBuilder(st.numVertices, st.workers)
		st.builders[st.flip] = b
	} else {
		b.Reset()
	}
	st.span.Next = b
}

// finish turns the iteration's builder into the next frontier, reusing the
// buffers of the Frontier paired with it, and flips the double buffer. It
// returns nil for dense algorithms.
func (st *stepper) finish() *graph.Frontier {
	b := st.span.Next
	if b == nil {
		return nil
	}
	f := b.CollectInto(&st.fronts[st.flip])
	st.flip = 1 - st.flip
	st.span.Next = nil
	return f
}

// edges applies one flat edge slice (edge-array chunk, grid cell, decoded or
// streamed cell) in the iteration's direction.
func (st *stepper) edges(worker int, es []graph.Edge) {
	if st.pull {
		st.kern.PullEdges(&st.span, worker, es)
	} else {
		st.kern.PushEdges(&st.span, worker, es)
	}
}

// runner carries the per-run execution state shared by the layout paths.
//
// Everything a steady-state iteration needs is owned by the runner and
// recycled: the stepper's frontier buffers, the edge-balanced chunk table
// for push iterations, and every parallel loop body, bound once here so no
// closure is created inside the iteration loop. Per-iteration inputs (active
// list, span, grid level) are passed to the bodies through runner fields.
type runner struct {
	stepper
	g *graph.Graph
	// pfor executes the run's parallel loops: lease-scoped for leased runs,
	// the process-wide pool otherwise. Bound once here so the iteration
	// paths never re-resolve it.
	pfor func(begin, end, chunk, p int, body func(worker, lo, hi int))

	out *graph.Adjacency // push adjacency (nil if not built)
	in  *graph.Adjacency // pull adjacency (nil if not built)

	// Per-iteration inputs read by the loop bodies.
	active []graph.VertexID // current active list (push)
	level  *graph.GridLevel // pyramid level of the current grid iteration
	// fineLevel is the runner-local identity view of a grid built outside
	// prep (no pyramid attached): the engine must never mutate the shared
	// graph mid-run, so the fallback level is owned here.
	fineLevel graph.GridLevel

	chunkStarts []int           // edge-balanced chunk boundaries into active
	chunkEdges  int64           // out-edges of active, summed by the walk that chunked it
	chunked     *graph.Frontier // the frontier chunkStarts was built for this iteration

	// Loop bodies, bound once at setup.
	pushChunksBody func(worker, lo, hi int) // walks chunkStarts over active
	pullBody       func(worker, lo, hi int) // destination rows of the in-adjacency
	edgeBody       func(worker, lo, hi int) // edge-array index range
	gridOwnedBody  func(worker, lo, hi int) // column-owned grid traversal
	gridCellsBody  func(worker, lo, hi int) // cell-parallel grid traversal
}

// newRunner builds the per-run state and binds every loop body once. Each
// body hands its chunk to the iteration's span kernels in one call.
func newRunner(g *graph.Graph, alg Algorithm, cfg Config, workers int) *runner {
	r := &runner{
		stepper: newStepper(alg, g.NumVertices(), workers),
		g:       g,
		out:     g.Out,
		in:      g.PullAdjacency(),
		pfor:    parallelFor(cfg),
	}

	r.pushChunksBody = func(worker, lo, hi int) {
		// One call per chunk, so a hub that is its own chunk stays its own
		// unit of work.
		starts := r.chunkStarts
		for c := lo; c < hi; c++ {
			r.kern.PushRows(&r.span, worker, r.out, r.active[starts[c]:starts[c+1]])
		}
	}
	r.pullBody = func(worker, lo, hi int) {
		r.kern.PullRows(&r.span, worker, r.in, lo, hi)
	}
	r.edgeBody = func(worker, lo, hi int) {
		// Edge-centric iterations apply push updates whatever the flow.
		r.kern.PushEdges(&r.span, worker, r.g.EdgeArray.Edges[lo:hi])
	}

	if g.Grid != nil {
		grid := g.Grid
		// The grid bodies execute at whatever pyramid level the plan chose
		// (r.level, set per iteration by gridStep). A coarse column J covers
		// the fine columns [Bounds[J], Bounds[J+1]), whose cells are
		// contiguous per fine row, so the body streams one span per fine
		// row — ascending fine rows, which fixes the per-destination visit
		// order identically at every level (bit-reproducibility across
		// resolutions a run pins). Empty spans cost one index subtraction
		// (the CellIndex-driven skip that keeps sparse frontiers at coarse
		// levels free of setup work for untouched ranges).
		if grid.NumLevels() == 0 {
			r.fineLevel = grid.FineLevel()
		}
		fineP := grid.P
		edges, cellIndex := grid.Edges, grid.CellIndex
		r.gridOwnedBody = func(worker, lo, hi int) {
			// Column ownership at level lv: coarse columns are unions of
			// fine columns, so their destination ranges stay pairwise
			// disjoint and the partition-free argument holds per level.
			lv := r.level
			for col := lo; col < hi; col++ {
				jLo, jHi := lv.Bounds[col], lv.Bounds[col+1]
				for row := 0; row < fineP; row++ {
					base := row * fineP
					span := edges[cellIndex[base+jLo]:cellIndex[base+jHi]]
					if len(span) > 0 {
						r.edges(worker, span)
					}
				}
			}
		}
		r.gridCellsBody = func(worker, lo, hi int) {
			lv := r.level
			for c := lo; c < hi; c++ {
				rLo, rHi, cLo, cHi := lv.CellBounds(c/lv.P, c%lv.P)
				for row := rLo; row < rHi; row++ {
					base := row * fineP
					span := edges[cellIndex[base+cLo]:cellIndex[base+cHi]]
					if len(span) > 0 {
						r.edges(worker, span)
					}
				}
			}
		}
	}
	return r
}

// activeOutEdges returns the summed out-degrees of the frontier's vertices
// (the quantity compared against |E|/alpha by the direction-optimizing
// switch). The sum is a by-product of chunking the frontier for a push
// iteration and is memoized on the frontier, so the planner's threshold
// test, its cost model, the push step and the per-iteration statistics all
// share one degree walk — and a long-lived dense frontier (PageRank's) never
// pays one: its total is read off the CSR index.
func (r *runner) activeOutEdges(f *graph.Frontier) int64 {
	if f.OutEdges() < 0 {
		r.pushChunks(f)
	}
	return f.OutEdges()
}
