package core

import (
	"fmt"

	"github.com/epfl-repro/everythinggraph/internal/cachesim"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/trace"
)

// This file contains the per-iteration execution planner. The engine never
// reads techniques off Config inside its iteration loop; instead a planner
// resolves every iteration into an explicit StepPlan, and Run/RunStreamed
// reduce to `plan := planner.Next(...); execute(plan)`. There is one
// planner over a candidate set: the static configurations of the paper's
// individual experiments are a one-candidate set per direction, and the
// paper's synthesis — no single (layout, flow, sync) point wins, the best
// combination changes per algorithm, per graph and per iteration — is the
// same planner over every runnable plan under Flow == Auto.

// StepPlan is the fully resolved execution recipe for one iteration: which
// layout to iterate, in which direction, under which synchronization
// discipline, whether the next frontier is built, and — for streamed
// (out-of-core) iterations — the I/O recipe of the pass. Flow is always
// Push or Pull here — the dynamic flows (PushPull, Auto) exist only at the
// Config level and are resolved by the planner before execution.
type StepPlan struct {
	Layout graph.Layout
	Flow   Flow
	Sync   SyncMode
	// Tracked reports whether the iteration builds a next frontier (false
	// for dense algorithms that process the whole graph every iteration).
	Tracked bool
	// GridLevel is the grid resolution (the dimension P) the iteration runs
	// at, for grid plans: static configurations pin the materialized grid's
	// (or the stored) P, the adaptive planner chooses among the pyramid's
	// levels per run — and, on streamed runs, among the store's virtual
	// coarsening ladder. 0 on non-grid plans. Unlike the I/O knobs it is part
	// of the plan's identity (key() keeps it): per-edge cost is a property of
	// the resolution — the whole point of planning it — so cost entries are
	// kept per level.
	GridLevel int
	// StreamFormat is the storage format version of a streamed plan (1 =
	// fixed-record, 2 = compressed segments); 0 on in-memory plans. It is
	// part of the plan's identity and its label ("@s<N>" after the level):
	// the same grid label over different on-disk formats measures different
	// byte costs, and keeping them apart stops persisted cost entries from
	// cross-seeding across formats.
	StreamFormat int
	// Multi is the source-batch width of a multi-source sweep (see
	// algorithms.MultiBFS): the iteration advances Multi frontiers through
	// one edge scan. 0 (and 1) mean an ordinary single-source run. It is part
	// of the plan's identity and its label ("×<k>" suffix): a batched sweep
	// does k sources' work per scanned edge, so its ns/edge is a different
	// quantity than the single-source kernel's and the two must never
	// cross-seed in the cost model or the persisted cache.
	Multi int
	// IO is the I/O dimension of a streamed iteration: how deep each worker
	// prefetches and how much resident buffer memory the pass may use. It is
	// the zero IOPlan for in-memory iterations.
	IO IOPlan
}

// IOPlan is the I/O dimension of a streamed StepPlan. Static configurations
// pin it to the configured knobs; the adaptive planner moves it between
// iterations using the measured IOWait/IOHidden breakdown.
type IOPlan struct {
	// PrefetchDepth is the number of segment buffers each worker keeps in
	// rotation (2 = classic double buffering). 0 marks an in-memory plan.
	PrefetchDepth int
	// MemoryBudget bounds the resident edge-buffer bytes of the pass.
	MemoryBudget int64
	// StreamWorkers, when non-zero, runs the pass on that many stream
	// workers instead of the run's full streaming-effective count — the
	// planner's response to a bandwidth-saturated device once depth and
	// budget are already at their caps: fewer workers own wider column
	// groups, so the same bytes arrive through fewer, longer sequential
	// reads. 0 means the full count (every unshed pass, and all static
	// configurations).
	StreamWorkers int
}

// String renders the I/O recipe as "[d<depth> <budget>]", with the shed
// worker count appended ("[d<depth> <budget> w<workers>]") while a pass
// runs below the full stream parallelism.
func (io IOPlan) String() string {
	if io.StreamWorkers > 0 {
		return fmt.Sprintf("[d%d %s w%d]", io.PrefetchDepth, formatBytes(io.MemoryBudget), io.StreamWorkers)
	}
	return fmt.Sprintf("[d%d %s]", io.PrefetchDepth, formatBytes(io.MemoryBudget))
}

// formatBytes renders a byte count with the largest binary unit that divides
// it exactly, so plan traces stay short for the power-of-two budgets the
// planner uses.
func formatBytes(n int64) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// String returns the "layout/flow/sync" label used in plan traces — grid
// plans carry their resolution as "grid/<P>/flow/sync", streamed plans
// their store format too ("grid/<P>@s1/…", "compressed/<P>@s2/…" for
// compressed stores) and the I/O recipe. Non-grid in-memory plans render
// exactly as before the IO and resolution dimensions existed, keeping
// recorded traces comparable.
func (p StepPlan) String() string {
	layout := p.Layout.String()
	if (p.Layout == graph.LayoutGrid || p.Layout == graph.LayoutGridCompressed) && p.GridLevel > 0 {
		if p.StreamFormat > 0 {
			layout = fmt.Sprintf("%s/%d@s%d", layout, p.GridLevel, p.StreamFormat)
		} else {
			layout = fmt.Sprintf("%s/%d", layout, p.GridLevel)
		}
	}
	var multi string
	if p.Multi > 1 {
		multi = fmt.Sprintf("×%d", p.Multi)
	}
	if p.IO.PrefetchDepth > 0 {
		return fmt.Sprintf("%s/%v/%v%s%v", layout, p.Flow, p.Sync, multi, p.IO)
	}
	return fmt.Sprintf("%s/%v/%v%s", layout, p.Flow, p.Sync, multi)
}

// key returns the plan with its I/O dimension cleared — the identity used to
// match a plan back to its planner candidate and to label cost measurements:
// the I/O knobs tune how a pass is fed, not which kernel executes, so cost
// bookkeeping is keyed by {layout, flow, sync, tracked, grid level} alone.
// GridLevel deliberately survives: two resolutions execute the same kernel
// over different access patterns, and keeping their cost entries separate is
// what lets measurements choose among them.
func (p StepPlan) key() StepPlan {
	p.IO = IOPlan{}
	return p
}

// plannerEnv is what a planner knows about the run, fixed at setup.
type plannerEnv struct {
	numVertices int
	// totalEdges is the number of edges one full scan visits (out-adjacency
	// entries when resident, otherwise stored edges, doubled for undirected
	// datasets). It is the denominator of the direction thresholds and the
	// work unit of the cost model.
	totalEdges int64
	// alpha is the direction-switch threshold denominator (|E|/alpha).
	alpha int
	// tracked mirrors StepPlan.Tracked for the whole run.
	tracked bool
	// activeOutEdges sums the out-degrees of a frontier, memoizing the
	// result on the frontier. nil when no out index is resident (grid-only
	// and streamed runs), in which case the planner falls back to the
	// active-vertex-count heuristic.
	activeOutEdges func(*graph.Frontier) int64
	// multi is the run's source-batch width (see StepPlan.Multi): stamped on
	// every plan the planner emits so labels and cost entries carry it. 0
	// for ordinary single-source runs.
	multi int
}

// overThreshold applies the direction-optimizing test shared by every
// dynamic flow: pull when the frontier's outgoing edges exceed |E|/alpha,
// or — when no out index is resident — when the active vertex count
// exceeds |V|/alpha (the grid and streamed heuristic).
func (env *plannerEnv) overThreshold(f *graph.Frontier) bool {
	if env.activeOutEdges != nil {
		return env.activeOutEdges(f) > env.totalEdges/int64(env.alpha)
	}
	return f.Count() > env.numVertices/env.alpha
}

// I/O-planner thresholds. An iteration counts as I/O-bound when the
// measured stall fraction (IOWait / wall time) reaches ioRaiseWaitFraction,
// and as comfortably compute-bound below ioShrinkWaitFraction; in between,
// the knobs hold still. Shrinking additionally waits for ioCalmIterations
// consecutive compute-bound iterations so one lucky pass cannot strip the
// pipeline that made it lucky.
const (
	ioRaiseWaitFraction  = 0.25
	ioShrinkWaitFraction = 0.02
	ioCalmIterations     = 2
	// ioBudgetFloorDiv bounds how far the adaptive planner sheds memory: the
	// budget never drops below cap/ioBudgetFloorDiv.
	ioBudgetFloorDiv = 4
	// ioShedPatience is how many consecutive I/O-bound iterations with depth
	// AND budget already at their caps the planner tolerates before shedding
	// stream workers: one capped-and-stalled iteration can be a burst, a
	// sustained run means the device is bandwidth-saturated and more
	// parallel readers only add seeks.
	ioShedPatience = 2
	// ioWorkerFloorDiv bounds the shedding: the pass never runs below
	// fullWorkers/ioWorkerFloorDiv workers (and never below 1).
	ioWorkerFloorDiv = 4
)

// ioLastAction remembers the planner's previous knob move so an over-shrink
// can be recognized and undone (see observe).
type ioLastAction int

const (
	ioActNone ioLastAction = iota
	ioActShrunkBudget
	ioActShrunkDepth
	ioActRegrewWorkers
)

// ioPlanner drives the I/O dimension of streamed plans. Static
// candidate sets construct it fixed: the knobs pin to the configured values
// for the whole run. Under Flow == Auto it is a small feedback controller
// over the per-iteration IOWait breakdown:
//
//   - while I/O wait dominates the iteration, deepen the prefetch pipeline
//     (x2 up to MaxPrefetchDepth) so more reads overlap compute, then widen
//     the buffers (x2 up to the configured cap) so each read moves more;
//   - while iterations are comfortably compute-bound, give memory back:
//     halve the budget down to cap/4, then shallow the pipeline back toward
//     MinPrefetchDepth;
//   - a shrink that turns the next iteration I/O-bound is undone and the
//     pre-shrink level becomes a floor, so the controller settles instead of
//     oscillating between two tiers.
//
// The knobs only change how a pass is fed — column ownership and the
// per-column row order are untouched — so adapting them never perturbs
// result bits, and dense algorithms adapt I/O even while their {layout,
// flow, sync} choice is frozen for reproducibility.
type ioPlanner struct {
	fixed bool
	cur   IOPlan
	cap   int64 // configured budget ceiling
	// workers normalizes the stall fraction: IterationStats.IOWait sums
	// stalls across workers while Duration is wall time, so the comparable
	// per-worker fraction is IOWait / (Duration * workers). Callers pass
	// the streaming-effective count (clamped to the grid dimension and
	// budget-shed, see StreamExecWorkers), not the configured one.
	workers int
	// depthCap is the deepest pipeline the budget can feed without slices
	// shrinking below MinStreamSliceEdges — the same bound the source's
	// buffer pool enforces, so a planned depth is always the executed
	// depth and the recorded plan never claims a pipeline the pass could
	// not run.
	depthCap int
	// Floors raised by shrink-reversals (and initialized to the hard
	// minima), below which the shrink path never goes again.
	budgetFloor int64
	depthFloor  int
	// Worker-count shedding state: workerFloor bounds how far the stream
	// parallelism sheds, workerCeil is lowered when a regrow immediately
	// re-saturates the device (the regrow analogue of the shrink-reversal
	// floors), and sat counts consecutive I/O-bound iterations with depth
	// and budget already capped (the shed trigger).
	workerFloor int
	workerCeil  int
	sat         int
	calm        int
	last        ioLastAction
	// rec receives one IOAdjust event per knob move (never per iteration:
	// a settled controller is silent in the trace).
	rec *trace.Recorder
}

// newIOPlanner resolves the configured knobs (applying defaults and clamps)
// and builds the controller. Adaptive runs start from half the budget cap
// at the default depth — the controller earns the rest when the IOWait
// breakdown shows the pass is starved, and sheds toward cap/4 when it is
// not; fixed runs pin the configured values exactly.
func newIOPlanner(cfg Config, workers int, adaptive bool) *ioPlanner {
	budget := cfg.MemoryBudget
	if budget <= 0 {
		budget = DefaultStreamMemoryBudget
	}
	if workers < 1 {
		workers = 1
	}
	depth := cfg.PrefetchDepth
	if depth <= 0 {
		depth = DefaultPrefetchDepth
	}
	if depth < MinPrefetchDepth {
		depth = MinPrefetchDepth
	}
	p := &ioPlanner{
		fixed:       !adaptive,
		cur:         IOPlan{PrefetchDepth: depth, MemoryBudget: budget},
		cap:         budget,
		workers:     workers,
		depthCap:    StreamDepthCap(workers, budget),
		budgetFloor: budget / ioBudgetFloorDiv,
		depthFloor:  MinPrefetchDepth,
		workerFloor: max(1, workers/ioWorkerFloorDiv),
		workerCeil:  workers,
		rec:         cfg.Trace,
	}
	// The floor must also keep slices non-degenerate at the shallowest
	// pipeline: worker shedding only guarantees the budget CEILING feeds
	// every worker minBuf-sized slices, so shrinking toward cap/4 could
	// otherwise starve a many-worker pass that the ceiling comfortably fed.
	if feed := int64(workers) * MinPrefetchDepth * MinStreamSliceEdges * StreamResidentEdgeBytes; p.budgetFloor < feed {
		p.budgetFloor = feed
	}
	if p.budgetFloor < 1 {
		p.budgetFloor = 1
	}
	if adaptive {
		if half := budget / 2; half >= p.budgetFloor {
			p.cur.MemoryBudget = half
		}
	}
	if ceil := p.depthCeil(); p.cur.PrefetchDepth > ceil {
		p.cur.PrefetchDepth = ceil
	}
	return p
}

// depthCeil is the deepest pipeline the CURRENT working budget can feed
// without slices degenerating below MinStreamSliceEdges — the budget-cap
// ceiling tightened whenever the working budget has been shed below the
// cap, so no knob combination the planner emits produces degenerate
// slices.
func (p *ioPlanner) depthCeil() int {
	return min(p.depthCap, StreamDepthCap(p.workers, p.cur.MemoryBudget))
}

// current returns the I/O recipe for the iteration about to execute.
func (p *ioPlanner) current() IOPlan { return p.cur }

// effectiveWorkers is the stream parallelism of the next pass: the full
// streaming-effective count unless the controller shed it.
func (p *ioPlanner) effectiveWorkers() int {
	if p.cur.StreamWorkers > 0 {
		return p.cur.StreamWorkers
	}
	return p.workers
}

// setWorkers records a new pass parallelism, normalizing "back to full" to
// the zero StreamWorkers (so unshed plans render — and compare — exactly as
// before worker shedding existed).
func (p *ioPlanner) setWorkers(w int) {
	if w >= p.workers {
		p.cur.StreamWorkers = 0
		return
	}
	if w < 1 {
		w = 1
	}
	p.cur.StreamWorkers = w
}

// observe folds one iteration's measured I/O breakdown into the knobs.
func (p *ioPlanner) observe(stats IterationStats) {
	if p.fixed || stats.Duration <= 0 {
		return
	}
	// The stall fraction is normalized by the parallelism the measured pass
	// actually ran (cur is only mutated below, after the read). A coarse
	// stream level owns at most GridLevel columns, so the pass cannot have
	// run more workers than that whatever the shed state says.
	eff := p.effectiveWorkers()
	if gl := stats.Plan.GridLevel; gl > 0 && stats.Plan.StreamFormat > 0 && eff > gl {
		eff = gl
	}
	wait := float64(stats.IOWait) / (float64(stats.Duration) * float64(eff))
	prev := p.cur
	defer func() {
		if p.rec != nil && p.cur != prev {
			p.rec.IOAdjust(stats.Iteration, p.cur.PrefetchDepth, p.cur.MemoryBudget, p.effectiveWorkers(), wait)
		}
	}()
	switch {
	case wait >= ioRaiseWaitFraction:
		p.calm = 0
		switch p.last {
		case ioActShrunkBudget:
			// The shrink starved the pass: undo it and never shrink past
			// this level again.
			p.cur.MemoryBudget = min(p.cap, p.cur.MemoryBudget*2)
			p.budgetFloor = p.cur.MemoryBudget
			p.sat = 0
		case ioActShrunkDepth:
			p.cur.PrefetchDepth = min(p.depthCeil(), p.cur.PrefetchDepth*2)
			p.depthFloor = p.cur.PrefetchDepth
			p.sat = 0
		case ioActRegrewWorkers:
			// The regrow re-saturated the device: shed back and pin the
			// ceiling there, so the controller settles shed instead of
			// oscillating between two parallelism tiers.
			p.setWorkers(max(p.workerFloor, eff/2))
			p.workerCeil = p.effectiveWorkers()
			p.sat = 0
		default:
			if ceil := p.depthCeil(); p.cur.PrefetchDepth < ceil {
				p.cur.PrefetchDepth = min(ceil, p.cur.PrefetchDepth*2)
				p.sat = 0
			} else if p.cur.MemoryBudget < p.cap {
				p.cur.MemoryBudget = min(p.cap, p.cur.MemoryBudget*2)
				p.sat = 0
			} else if eff > p.workerFloor {
				// Depth and budget are both at their caps and the passes
				// still stall: the device is bandwidth-saturated, and the
				// remaining lever is fewer workers reading longer
				// sequential column groups. Shedding parallelism is the
				// costliest move, so it waits for a SUSTAINED stall.
				p.sat++
				if p.sat >= ioShedPatience {
					p.sat = 0
					p.setWorkers(max(p.workerFloor, eff/2))
				}
			}
		}
		p.last = ioActNone
	case wait <= ioShrinkWaitFraction:
		// A calm iteration proves the previous shrink (if any) did not
		// starve the pass: only a shrink that turns the NEXT iteration
		// I/O-bound is treated as an over-shrink, so the marker must not
		// survive past this observation.
		p.last = ioActNone
		p.sat = 0
		p.calm++
		if p.calm < ioCalmIterations {
			return
		}
		p.calm = 0
		if eff < p.workerCeil {
			// Shed parallelism regrows first: idle cores cost more than a
			// generous buffer budget does.
			next := min(p.workerCeil, eff*2)
			p.setWorkers(next)
			p.last = ioActRegrewWorkers
		} else if half := p.cur.MemoryBudget / 2; half >= p.budgetFloor {
			p.cur.MemoryBudget = half
			p.last = ioActShrunkBudget
			// Keep the slices non-degenerate: a smaller working budget may
			// no longer feed the current pipeline depth.
			if ceil := p.depthCeil(); p.cur.PrefetchDepth > ceil {
				p.cur.PrefetchDepth = ceil
			}
		} else if half := p.cur.PrefetchDepth / 2; half >= p.depthFloor {
			p.cur.PrefetchDepth = half
			p.last = ioActShrunkDepth
		}
	default:
		// Neither bound dominates: the knobs are where the workload wants
		// them.
		p.calm = 0
		p.sat = 0
		p.last = ioActNone
	}
}

// Cost-model priors: assumed nanoseconds per scanned edge before any
// measurement exists. Absolute values are irrelevant — only the ordering
// matters, and it encodes the paper's findings: pull over adjacency lists
// is cheapest per edge (vertex ownership, no synchronization, early exit),
// push over adjacency pays for atomics, the grid trades per-edge cost for
// partition-free columns, and the edge array pays both a full scan and
// atomics. Measured costs replace the priors after one iteration.
const (
	priorAdjacencyPull = 1.0
	priorAdjacencyPush = 1.6
	priorGridPush      = 2.4
	priorGridPull      = 2.5
	// A compressed (v2) store streams the raw grid's kernels behind a
	// per-cell decode, so its priors sit just above the grid's (decode CPU
	// is assumed to cost a little until measured).
	priorCompressedPush = 2.7
	priorCompressedPull = 2.8
	priorEdgeArray      = 3.0
)

// Grid-resolution prior terms. The base grid priors above describe an
// ideally-fitting resolution; a pyramid level departs from them in four
// measurable ways, each folded into the level's prior so the planner's
// first choice (and a dense run's frozen choice) already reflects the
// Section 5 cell-sizing trade-off:
//
//   - LLC misfit: a level whose per-range destination metadata exceeds the
//     LLC pays a DRAM access on the fraction cachesim predicts will not be
//     resident (gridLLCMissPenalty extra per-edge cost at hit ratio 0);
//   - inner-cache misfit: within a span, destination accesses are random
//     inside the range, so a range beyond the per-core L1 pays a (cheaper)
//     inner miss on the predicted non-resident fraction — the term that
//     stops the model at the LLC-only optimum of "P = 1" on graphs whose
//     whole metadata fits the LLC;
//   - span setup: every non-empty (fine row x coarse column) span costs a
//     bounds lookup and a call; fine levels on small graphs drown in it
//     (gridSpanSetupNs per span, amortized over the scanned edges);
//   - ownership-limited parallelism: column scheduling cannot use more
//     workers than the level has columns, so levels coarser than the worker
//     count serialize proportionally.
//
// Measured ns/edge replaces the prediction after one iteration, with the
// usual one-iteration misprediction abandonment (dense algorithms freeze on
// the prediction for bit-reproducibility — persisted measurements via
// Config.CostPriors upgrade their frozen choice too).
const (
	gridLLCMissPenalty   = 1.5
	gridInnerMissPenalty = 0.6
	gridSpanSetupNs      = 60.0
)

// gridLevelPrior predicts the per-edge cost prior of one pyramid level.
func gridLevelPrior(base float64, lv *graph.GridLevel, spansPrior float64, workers int, llc cachesim.Config) float64 {
	ws := int64(lv.RangeSize) * graph.GridVertexMetaBytes
	miss := gridLLCMissPenalty*(1-llc.PredictHitRatio(ws)) +
		gridInnerMissPenalty*(1-cachesim.L1D.PredictHitRatio(ws))
	prior := base * (1 + miss)
	if workers > lv.P {
		prior *= float64(workers) / float64(lv.P)
	}
	return prior + spansPrior
}

// adaptiveDenseFrontier is the frontier density at or above which the
// adaptive planner pulls without summing frontier out-degrees: a quarter of
// all vertices active puts any remotely uniform frontier far beyond the
// |E|/alpha threshold, so the O(frontier) degree pass is skipped.
const adaptiveDenseFrontier = 0.25

// ewmaNewWeight is the weight of the newest per-edge cost measurement. It
// is deliberately high (latest-wins) so one bad iteration is enough to
// abandon a mispredicted plan.
const ewmaNewWeight = 0.75

// minMeasureEdges is the smallest iteration (in traversed edges) whose
// duration updates the cost model. Below it, fixed per-iteration costs
// (scheduling, frontier management) dominate the measurement and would be
// misread as an enormous per-edge cost, making the planner flee a
// perfectly good plan on the evidence of a microscopic frontier.
const minMeasureEdges = 4096

// planCandidate is one runnable plan with its cost-model state.
type planCandidate struct {
	plan StepPlan
	// prior is the assumed ns/edge before any measurement.
	prior float64
	// fullScan reports that an iteration visits all totalEdges regardless
	// of frontier size (pull, grid and edge-array iterations); push over
	// adjacency lists visits only the frontier's out-edges.
	fullScan bool
}

// planner chooses the StepPlan of every iteration from one candidate set —
// enumerate (a candidate source below), prior, measure, freeze — and
// receives the measured outcome of each choice. Next runs inside the timed
// portion of every iteration, so both methods are cheap and allocation-free
// in the steady state.
//
// A static Config is a candidate set with one candidate per direction its
// flow admits (staticCandidates): layout, sync and grid resolution never
// move, PushPull picks its direction per iteration with the |E|/alpha
// threshold test alone, and nothing is measured. Flow == Auto (adaptive)
// is the paper's synthesis as an online policy:
//
//   - direction by frontier density and active-out-edge thresholds (the
//     direction-optimizing switch generalized beyond BFS to every tracked
//     algorithm);
//   - layout by predicted scan volume × measured per-edge cost, which makes
//     the planner leave adjacency lists for edge-array/grid iteration
//     exactly when the frontier is near-dense enough that a full sequential
//     scan is cheaper than frontier-driven access;
//   - sync by ownership: partition-free whenever the chosen layout gives
//     the worker exclusive destinations (pull-mode vertex ownership, grid
//     columns), atomics otherwise — locks are never chosen, matching
//     Section 6.1.2's result;
//   - feedback: measured per-edge costs replace the model's priors with
//     latest-wins weighting, so a plan that mispredicted is abandoned after
//     a single iteration.
//
// Dense (whole-graph) algorithms under Auto are planned once and frozen:
// their iterations are statistically identical, so there is nothing to
// adapt to, and freezing keeps results bit-identical to the equivalent
// static configuration (floating-point accumulation order never changes
// mid-run). On streamed runs io drives the I/O knobs of every plan.
type planner struct {
	env        plannerEnv
	adaptive   bool
	candidates []planCandidate
	measured   []float64 // ns/edge EWMA per candidate; 0 = unmeasured
	// hasPush and hasPull record which directions the set offers.
	hasPush, hasPull bool
	// last is the candidate chosen most recently (-1 before the first
	// iteration): a dense Auto run's frozen plan, a static run's current
	// direction.
	last int
	io   *ioPlanner

	// Decision tracing: candLabels holds one interned label per candidate
	// (the plan key, matching PlanCosts), so emitting a decision is a loop
	// of ring stores with no allocation.
	rec        *trace.Recorder
	candLabels []int32
}

// newPlanner builds the planner over a candidate set; adaptive selects the
// Auto policy (see planner). priors — Config.CostPriors, read only by
// adaptive sets — seed the cost model with persisted measurements.
func newPlanner(env plannerEnv, candidates []planCandidate, adaptive bool, priors map[string]float64, rec *trace.Recorder) *planner {
	p := &planner{
		env:        env,
		adaptive:   adaptive,
		candidates: candidates,
		measured:   make([]float64, len(candidates)),
		last:       -1,
		rec:        rec,
	}
	// The batch width is a property of the run, not of any one candidate:
	// stamp it across the set so labels, cost entries and Observe's key
	// matching all carry it.
	for i := range candidates {
		candidates[i].plan.Multi = env.multi
		if candidates[i].plan.Flow == Push {
			p.hasPush = true
		} else {
			p.hasPull = true
		}
	}
	if rec != nil {
		p.candLabels = make([]int32, len(candidates))
		for i := range candidates {
			p.candLabels[i] = rec.Intern(candidates[i].plan.key().String())
		}
	}
	if len(priors) == 0 {
		return p
	}
	// Persisted measurements from a previous run seed the starting EWMA (so
	// a tracked run's first cost comparison uses them) and the prior (so a
	// dense run's frozen choice does, too). The hand priors are only an
	// ordering while measurements are real nanoseconds, so the two scales
	// must never be compared directly: the unmeasured candidates' priors
	// are rescaled by the seeded candidates' mean measured/prior ratio,
	// which puts every candidate on the measured scale while preserving
	// the hand ordering among still-unmeasured plans. Unknown keys and
	// non-positive values are ignored.
	var ratioSum float64
	var seeded int
	for i := range p.candidates {
		if per, ok := priors[p.candidates[i].plan.key().String()]; ok && per > 0 {
			p.measured[i] = per
			ratioSum += per / p.candidates[i].prior
			seeded++
		}
	}
	if seeded > 0 {
		scale := ratioSum / float64(seeded)
		for i := range p.candidates {
			if p.measured[i] > 0 {
				p.candidates[i].prior = p.measured[i]
			} else {
				p.candidates[i].prior *= scale
			}
		}
	}
	return p
}

// measuredCosts exports the candidates' measured (or cache-seeded) per-edge
// costs keyed by plan label, the payload persisted by the cost cache. Static
// sets measure nothing and export nil.
func (p *planner) measuredCosts() map[string]float64 {
	var out map[string]float64
	for i, c := range p.candidates {
		if p.measured[i] > 0 {
			if out == nil {
				out = make(map[string]float64, len(p.candidates))
			}
			out[c.plan.key().String()] = p.measured[i]
		}
	}
	return out
}

// Next returns the plan for the iteration about to execute, given the
// current frontier.
func (p *planner) Next(iter int, f *graph.Frontier) StepPlan {
	switch {
	case p.adaptive && !p.env.tracked:
		if p.last < 0 {
			p.last = p.cheapestPrior()
			p.emitDecision(iter, true)
		}
	case p.adaptive:
		p.last = p.cheapest(p.direction(f), f)
		p.emitDecision(iter, false)
	default:
		// One candidate per direction: the direction decides, and each
		// flip is the static set's only decision event.
		if c := p.cheapest(p.direction(f), f); c != p.last {
			p.last = c
			p.emitDecision(iter, !p.hasPush || !p.hasPull)
		}
	}
	plan := p.candidates[p.last].plan
	if p.io != nil {
		plan.IO = p.io.current()
	}
	return plan
}

// emitDecision records one planning step. An adaptive set records every
// alternative with its predicted (prior) and measured ns/edge plus which
// one won — once at a dense run's freeze, every iteration of a tracked run,
// the explainability trail the compressed plan trace cannot carry. A
// static set records only its chosen candidate, at iteration 0 and on each
// direction flip; frozen marks a choice that cannot change for the rest of
// the run.
func (p *planner) emitDecision(iter int, frozen bool) {
	if p.rec == nil {
		return
	}
	for i := range p.candidates {
		if p.adaptive || i == p.last {
			p.rec.Decision(iter, p.candLabels[i], p.candidates[i].prior, p.measured[i], i == p.last, frozen)
		}
	}
}

// cheapestPrior returns the candidate with the lowest prior per-edge cost —
// the plan a dense (whole-graph) algorithm freezes on under Auto.
// Measurements are deliberately ignored: dense iterations are statistically
// identical, and never switching keeps the floating-point accumulation
// order — and hence the result bits — identical to the equivalent static
// configuration.
func (p *planner) cheapestPrior() int {
	best := 0
	for i, c := range p.candidates {
		if c.prior < p.candidates[best].prior {
			best = i
		}
	}
	return best
}

// direction picks push or pull for an iteration. Under Auto the density
// test runs first because it is O(1); the degree sum only runs when the
// frontier is sparse enough that density alone cannot decide. A static
// PushPull set applies the threshold test alone.
func (p *planner) direction(f *graph.Frontier) Flow {
	switch {
	case !p.hasPull:
		return Push
	case !p.hasPush:
		return Pull
	case p.adaptive && f.Density() >= adaptiveDenseFrontier:
		return Pull
	case p.env.overThreshold(f):
		return Pull
	}
	return Push
}

// cheapest returns the candidate with the lowest estimated cost for this
// iteration among those propagating in the desired direction: per-edge cost
// (measured, or the model's prior) times predicted scan volume. Comparing a
// frontier-proportional adjacency push against full-scan candidates is what
// implements the near-dense layout switch: as the frontier's out-edges
// approach |E|, a cheaper-per-edge full scan overtakes it.
func (p *planner) cheapest(flow Flow, f *graph.Frontier) int {
	best := -1
	var bestCost float64
	for i, c := range p.candidates {
		if c.plan.Flow != flow {
			continue
		}
		per := p.measured[i]
		if per == 0 {
			per = c.prior
		}
		work := float64(p.env.totalEdges)
		if !c.fullScan {
			work = float64(p.predictedActiveEdges(f))
		}
		if cost := per * work; best < 0 || cost < bestCost {
			best, bestCost = i, cost
		}
	}
	if best < 0 {
		// No candidate in the desired direction (e.g. a directed graph with
		// no in-adjacency); fall back to whatever exists. Candidate sets are
		// never empty.
		return p.cheapest(oppositeFlow(flow), f)
	}
	return best
}

// predictedActiveEdges estimates the edges a frontier-proportional (push)
// iteration will traverse.
func (p *planner) predictedActiveEdges(f *graph.Frontier) int64 {
	if aoe := f.OutEdges(); aoe >= 0 {
		return aoe
	}
	if p.env.activeOutEdges != nil {
		return p.env.activeOutEdges(f)
	}
	// No out index: scale the average degree by the frontier size.
	if p.env.numVertices == 0 {
		return 0
	}
	return int64(f.Count()) * p.env.totalEdges / int64(p.env.numVertices)
}

func oppositeFlow(flow Flow) Flow {
	if flow == Pull {
		return Push
	}
	return Pull
}

// Observe feeds the I/O breakdown of an executed plan to the I/O
// controller on streamed runs and, under Auto, folds the measured iteration
// cost into the candidate's per-edge estimate with latest-wins weighting.
// Candidates match on the plan's key — the I/O knobs vary per iteration
// without multiplying the cost model's arms.
func (p *planner) Observe(plan StepPlan, stats IterationStats) {
	if p.io != nil {
		p.io.observe(stats)
	}
	if !p.adaptive || stats.Duration <= 0 {
		return
	}
	key := plan.key()
	idx := -1
	for i, c := range p.candidates {
		if c.plan == key {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	work := float64(p.env.totalEdges)
	if !p.candidates[idx].fullScan {
		if stats.ActiveEdges >= 0 {
			work = float64(stats.ActiveEdges)
		} else if p.env.numVertices > 0 {
			work = float64(stats.ActiveVertices) * float64(p.env.totalEdges) / float64(p.env.numVertices)
		}
	}
	if work < minMeasureEdges {
		return
	}
	per := float64(stats.Duration.Nanoseconds()) / work
	if old := p.measured[idx]; old != 0 {
		per = (1-ewmaNewWeight)*old + ewmaNewWeight*per
	}
	p.measured[idx] = per
}

// staticCandidates is the candidate source of a static Config: the
// configured layout and sync at grid resolution gridP (0 off the grid) and
// store format (0 in memory), one candidate per direction the flow admits —
// both for PushPull. Edge-centric iterations always push. A static set has
// no cost model: zero priors and full scans, so picking the candidate of a
// direction never sums frontier degrees.
func staticCandidates(layout graph.Layout, flow Flow, sync SyncMode, gridP, format int, tracked bool) []planCandidate {
	flows := []Flow{flow}
	switch {
	case layout == graph.LayoutEdgeArray:
		flows = []Flow{Push}
	case flow == PushPull:
		flows = []Flow{Push, Pull}
	}
	cs := make([]planCandidate, len(flows))
	for i, fl := range flows {
		cs[i] = planCandidate{
			plan:     StepPlan{Layout: layout, Flow: fl, Sync: sync, Tracked: tracked, GridLevel: gridP, StreamFormat: format},
			fullScan: true,
		}
	}
	return cs
}

// residentPlanner builds the planner of an in-memory run: every runnable
// layout under Flow == Auto, the configured one — at the materialized grid
// P on the grid — otherwise.
func residentPlanner(g *graph.Graph, cfg Config, r *runner, alpha int, workers int, tracked bool) (*planner, error) {
	env := plannerEnv{
		numVertices: g.NumVertices(),
		totalEdges:  residentScanEdges(g),
		alpha:       alpha,
		tracked:     tracked,
		multi:       multiSourceWidth(r.alg),
	}
	if g.Out != nil {
		env.activeOutEdges = r.activeOutEdges
	}
	if cfg.Flow == Auto {
		candidates := autoCandidates(g, workers, tracked)
		if len(candidates) == 0 {
			return nil, fmt.Errorf("core: auto flow found no runnable layout (build adjacency lists, a grid, or supply edges)")
		}
		return newPlanner(env, candidates, true, cfg.CostPriors, cfg.Trace), nil
	}
	var gridP int
	if cfg.Layout == graph.LayoutGrid {
		// The grid has no per-vertex out index; its direction switch uses
		// the active-vertex heuristic even when an out-adjacency happens to
		// be resident, preserving the measured behaviour of the paper's
		// grid configurations.
		env.activeOutEdges = nil
		gridP = g.Grid.P
	}
	return newPlanner(env, staticCandidates(cfg.Layout, cfg.Flow, cfg.Sync, gridP, 0, tracked), false, nil, cfg.Trace), nil
}

// gridCandidateLevels returns the pyramid levels Auto chooses among. A grid
// built outside prep has no pyramid; it contributes its own resolution
// only, via a planner-local level that leaves the shared graph untouched.
// Degenerate grids (P < 1) contribute nothing.
func gridCandidateLevels(grid *graph.Grid) []graph.GridLevel {
	if len(grid.Levels) > 0 {
		return grid.Levels
	}
	if grid.P < 1 {
		return nil
	}
	return []graph.GridLevel{grid.FineLevel()}
}

// autoCandidates is the candidate source of Auto over resident layouts:
// one plan per materialized layout (and direction), each with the sync mode
// its ownership structure dictates. The grid contributes one push/pull
// candidate pair per pyramid level, with priors derived from the cachesim
// LLC model (see gridLevelPrior) so the first resolution choice already
// encodes the cell-sizing trade-off.
func autoCandidates(g *graph.Graph, workers int, tracked bool) []planCandidate {
	var cs []planCandidate
	if g.In != nil || (!g.Directed && g.Out != nil) {
		cs = append(cs, planCandidate{
			plan:     StepPlan{Layout: graph.LayoutAdjacency, Flow: Pull, Sync: SyncPartitionFree, Tracked: tracked},
			prior:    priorAdjacencyPull,
			fullScan: true,
		})
	}
	if g.Out != nil {
		cs = append(cs, planCandidate{
			plan:  StepPlan{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics, Tracked: tracked},
			prior: priorAdjacencyPush,
		})
	}
	if g.Grid != nil {
		totalEdges := float64(g.Grid.NumEdges())
		for _, lv := range gridCandidateLevels(g.Grid) {
			lv := lv
			var spansPrior float64
			if totalEdges > 0 {
				spansPrior = gridSpanSetupNs * float64(lv.Spans) / totalEdges
			}
			for _, d := range []struct {
				flow Flow
				base float64
			}{{Push, priorGridPush}, {Pull, priorGridPull}} {
				cs = append(cs, planCandidate{
					plan:     StepPlan{Layout: graph.LayoutGrid, Flow: d.flow, Sync: SyncPartitionFree, Tracked: tracked, GridLevel: lv.P},
					prior:    gridLevelPrior(d.base, &lv, spansPrior, workers, cachesim.MachineB),
					fullScan: true,
				})
			}
		}
	}
	if len(g.EdgeArray.Edges) > 0 {
		cs = append(cs, planCandidate{
			plan:     StepPlan{Layout: graph.LayoutEdgeArray, Flow: Push, Sync: SyncAtomics, Tracked: tracked},
			prior:    priorEdgeArray,
			fullScan: true,
		})
	}
	return cs
}

// residentScanEdges returns the edges one full scan visits on this graph:
// the out-adjacency entry count when resident (doubled already for
// undirected pre-processing), otherwise the stored edges with the
// undirected mirroring the edge-centric path applies.
func residentScanEdges(g *graph.Graph) int64 {
	if g.Out != nil {
		return int64(g.Out.NumEdges())
	}
	m := int64(len(g.EdgeArray.Edges))
	if !g.Directed {
		m *= 2
	}
	return m
}

// streamReadPrior is the assumed cost of one coalesced stream read (issue,
// slot handoff, pipeline protocol) in the same hand-prior units as the
// per-edge priors above: one read is priced like ~5000 edges of grid
// compute. Only the ordering matters — the term makes a store averaging
// well under that many edges per coalesced read (an over-partitioned store)
// read-overhead-bound in the model, so its prior-frozen dense runs already
// choose a coarser virtual level, while stores whose reads amortize keep
// the finest level and its better cache behaviour. Measured ns/edge
// replaces the prediction per level after one iteration on tracked runs.
const streamReadPrior = 12000.0

// streamCandidateLevels returns the virtual resolutions a streamed run may
// execute at, finest first: the source's ladder when it has one, otherwise
// the single stored resolution (every Source can stream at its own P).
func streamCandidateLevels(src Source, workers int, budgetCap int64) []StreamLevelInfo {
	if sl, ok := src.(StreamLeveler); ok {
		if levels := sl.StreamLevels(workers, budgetCap); len(levels) > 0 {
			return levels
		}
	}
	p := src.GridP()
	rangeSize := 0
	if p > 0 {
		rangeSize = (src.NumVertices() + p - 1) / p
	}
	return []StreamLevelInfo{{
		P:         p,
		RangeSize: rangeSize,
		Workers:   StreamExecWorkers(p, workers, budgetCap),
	}}
}

// admitStreamLevels drops rungs that would execute indistinguishably from
// the previous kept one: a coarser level only changes a pass through its
// worker clamp or its coalesced read count, so a rung with the same
// effective workers and a read count within 10% of the last kept rung's
// would just be a duplicate arm of the cost model, slowing convergence.
// The finest level is always kept.
func admitStreamLevels(levels []StreamLevelInfo) []StreamLevelInfo {
	out := levels[:1:1]
	kept := levels[0]
	for _, lv := range levels[1:] {
		if lv.Workers < kept.Workers || lv.Reads*10 <= kept.Reads*9 {
			out = append(out, lv)
			kept = lv
		}
	}
	return out
}

// streamLevelPrior predicts the per-edge cost prior of one stream level.
// Compute departs from the base prior exactly like the in-memory pyramid's
// (destination-metadata cache misfit, ownership-limited parallelism, see
// gridLevelPrior); the read side prices the level's predicted coalesced
// read count per fetcher, amortized over the scanned edges. Reads overlap
// compute — that is the prefetch pipeline's whole point — so the predicted
// wall cost is whichever side of the overlap dominates.
func streamLevelPrior(base float64, lv StreamLevelInfo, workers int, totalEdges int64) float64 {
	ws := int64(lv.RangeSize) * graph.GridVertexMetaBytes
	miss := gridLLCMissPenalty*(1-cachesim.MachineB.PredictHitRatio(ws)) +
		gridInnerMissPenalty*(1-cachesim.L1D.PredictHitRatio(ws))
	compute := base * (1 + miss)
	if lv.Workers > 0 && workers > lv.Workers {
		compute *= float64(workers) / float64(lv.Workers)
	}
	if totalEdges <= 0 || lv.Reads <= 0 || lv.Workers <= 0 {
		return compute
	}
	fetch := streamReadPrior * float64(lv.Reads) / (float64(lv.Workers) * float64(totalEdges))
	if fetch > compute {
		return fetch
	}
	return compute
}

// streamPlanner builds the planner of a streamed (out-of-core) run: layout
// and sync are pinned by the store's column-ownership argument, so the
// plannable dimensions are the direction, the virtual grid level (the
// store's coarsening ladder, see StreamLeveler) and the I/O knobs. A static
// flow streams at the ladder's finest rung — the stored resolution — with
// the I/O knobs fixed to the configured values; Flow == Auto enumerates one
// push/pull candidate pair per admitted rung, costed by streamLevelPrior and
// refined by measured ns/edge, with the I/O knobs moved online from the
// measured IOWait breakdown.
func streamPlanner(src Source, cfg Config, workers int, budgetCap int64, alpha int, tracked bool, multi int) *planner {
	env := plannerEnv{
		numVertices: src.NumVertices(),
		totalEdges:  src.NumEdges(),
		alpha:       alpha,
		tracked:     tracked,
		multi:       multi,
		// No resident out index: the count heuristic decides direction.
	}
	// Compressed (v2) stores label and cost their plans as "compressed/<P>";
	// both formats append "@s<version>" so traces and cached measurements
	// never conflate a level across storage formats.
	layout := graph.LayoutGrid
	pushPrior, pullPrior := priorGridPush, priorGridPull
	format := 1
	if src.Compressed() {
		layout = graph.LayoutGridCompressed
		pushPrior, pullPrior = priorCompressedPush, priorCompressedPull
		format = 2
	}
	levels := streamCandidateLevels(src, workers, budgetCap)
	adaptive := cfg.Flow == Auto
	var candidates []planCandidate
	if !adaptive {
		candidates = staticCandidates(layout, cfg.Flow, SyncPartitionFree, levels[0].P, format, tracked)
	} else {
		for _, lv := range admitStreamLevels(levels) {
			for _, d := range []struct {
				flow Flow
				base float64
			}{{Push, pushPrior}, {Pull, pullPrior}} {
				candidates = append(candidates, planCandidate{
					plan: StepPlan{
						Layout: layout, Flow: d.flow, Sync: SyncPartitionFree,
						Tracked: tracked, GridLevel: lv.P, StreamFormat: format,
					},
					prior:    streamLevelPrior(d.base, lv, workers, env.totalEdges),
					fullScan: true,
				})
			}
		}
	}
	p := newPlanner(env, candidates, adaptive, cfg.CostPriors, cfg.Trace)
	p.io = newIOPlanner(cfg, StreamExecWorkers(levels[0].P, workers, budgetCap), adaptive)
	return p
}
