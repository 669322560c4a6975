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
	pl, err := residentPlanner(g, cfg, r, resolveAlpha(cfg), !alg.Dense())
	if err != nil {
		return nil, err
	}
	return iterate(g, alg, cfg, workers, pl, nil, r.execute)
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

// runner carries the per-run execution state of Run and RunStreamed alike:
// the engine's side of the span contract. It binds which kernels execute an
// iteration (the algorithm's own, or its locked pushes under SyncLocks),
// fills the iteration's graph.Span, and owns the double-buffered
// next-frontier state — two (builder, frontier) pairs so one frontier can be
// consumed while the next is built into the other pair's buffers.
//
// Everything a steady-state iteration needs is owned by the runner and
// recycled: the frontier buffers, the edge-balanced chunk table for push
// iterations, and every parallel loop body, bound once here so no closure
// is created inside the iteration loop. Per-iteration inputs (active list,
// span) are passed to the bodies through runner fields.
type runner struct {
	alg     Algorithm
	g       *graph.Graph
	workers int
	// pfor executes the run's parallel loops: lease-scoped for leased runs,
	// the process-wide pool otherwise. Bound once here so the iteration
	// paths never re-resolve it.
	pfor func(begin, end, chunk, p int, body func(worker, lo, hi int))

	out *graph.Adjacency // push adjacency (nil if not built)
	in  *graph.Adjacency // pull adjacency (nil if not built)

	// locked runs alg's pushes under the stripe locks; its table is
	// allocated by the first SyncLocks plan.
	locked lockedPush

	// Per-iteration binding, set by begin and read by every worker.
	kern Algorithm
	span graph.Span

	builders [2]*graph.FrontierBuilder
	fronts   [2]graph.Frontier
	flip     int

	// Per-iteration inputs read by the loop bodies.
	active []graph.VertexID // current active list (push)

	chunkStarts []int           // edge-balanced chunk boundaries into active
	chunkEdges  int64           // out-edges of active, summed by the walk that chunked it
	chunked     *graph.Frontier // the frontier chunkStarts was built for this iteration

	// Loop bodies, bound once at setup.
	pushChunksBody func(worker, lo, hi int) // walks chunkStarts over active
	pullBody       func(worker, lo, hi int) // destination rows of the in-adjacency
	edgeBody       func(worker, lo, hi int) // edge-array index range

	// gridPass runs one grid iteration's column-owned walk (see execute):
	// the resident grid's for Run, the source's StreamCells for RunStreamed.
	gridPass func() error
}

// newRunner builds the per-run state and binds every loop body once. Each
// body hands its chunk to the iteration's span kernels in one call.
func newRunner(g *graph.Graph, alg Algorithm, cfg Config, workers int) *runner {
	r := &runner{
		alg:     alg,
		g:       g,
		workers: workers,
		pfor:    parallelFor(cfg),
		out:     g.Out,
		in:      g.PullAdjacency(),
		locked:  lockedPush{Algorithm: alg},
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
		// The walk streams the grid's cells in ascending row order per
		// column, which fixes every destination's visit order; an empty cell
		// costs one index subtraction.
		grid := g.Grid
		p := grid.P
		columns := func(worker, lo, hi int) {
			// Column ownership: a column's destinations belong to one worker.
			for col := lo; col < hi; col++ {
				for row := 0; row < p; row++ {
					if pairs, weights := grid.Cell(row, col); len(pairs) > 0 {
						r.cells(worker, pairs, weights)
					}
				}
			}
		}
		r.gridPass = func() error {
			r.pfor(0, p, 1, r.workers, columns)
			return nil
		}
	}
	return r
}

// begin binds the kernels and the span of one iteration. Builders alternate
// between two instances so the frontier emitted by the previous iteration
// (which shares its builder's bitmap) stays valid while this iteration's
// frontier is assembled. Callers that test frontier membership set
// span.Bits themselves: converting the frontier is only worth paying where
// the layout path needs the bitmap.
func (r *runner) begin(sync SyncMode, frontier *graph.Frontier) {
	r.kern = r.alg
	if sync == SyncLocks {
		if r.locked.locks == nil {
			r.locked.locks = newVertexLocks()
		}
		r.kern = &r.locked
	}
	// A one-worker run shares no destination with anyone: every iteration
	// is owned.
	r.span = graph.Span{
		Full:   frontier.Count() == r.g.NumVertices(),
		Atomic: sync == SyncAtomics && r.workers > 1,
	}
	if r.alg.Dense() { // no next frontier to build
		return
	}
	b := r.builders[r.flip]
	if b == nil {
		b = graph.NewFrontierBuilder(r.g.NumVertices(), r.workers)
		r.builders[r.flip] = b
	} else {
		b.Reset()
	}
	r.span.Next = b
}

// finish turns the iteration's builder into the next frontier, reusing the
// buffers of the Frontier paired with it, and flips the double buffer. It
// returns nil for dense algorithms.
func (r *runner) finish() *graph.Frontier {
	b := r.span.Next
	if b == nil {
		return nil
	}
	f := b.CollectInto(&r.fronts[r.flip])
	r.flip = 1 - r.flip
	r.span.Next = nil
	return f
}

// cells applies a run of grid-cell pairs (resident, decoded or streamed) in
// the iteration's direction.
func (r *runner) cells(worker int, pairs []graph.Pair, weights []graph.Weight) {
	r.kern.Cells(&r.span, worker, pairs, weights)
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
