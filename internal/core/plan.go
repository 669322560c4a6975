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
// discipline, at which grid resolution and whether the next frontier is
// built. Flow is always Push or Pull here — the dynamic flows (PushPull,
// Auto) exist only at the Config level and are resolved by the planner
// before execution. A plan is also its own cost key: the planner matches
// measurements to candidates, and labels cost entries, by the whole plan.
// (The I/O recipe of a streamed pass is not part of it: every pass of a run
// uses the one RunStreamed resolves.)
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
	// coarsening ladder. 0 on non-grid plans. Per-edge cost is a property of
	// the resolution — the whole point of planning it — so cost entries are
	// kept per level.
	GridLevel int
	// StreamFormat is the storage format version of a streamed plan (1 =
	// fixed-record, 3 = compressed segments); 0 on in-memory plans. It is
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
}

// String returns the "layout/flow/sync" label used in plan traces and as
// the cost-cache key — grid plans carry their resolution as
// "grid/<P>/flow/sync", streamed plans their store format too
// ("grid/<P>@s1/…", "compressed/<P>@s3/…" for compressed stores). Non-grid
// in-memory plans render exactly as before the resolution dimension
// existed, keeping recorded traces comparable.
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
	return fmt.Sprintf("%s/%v/%v%s", layout, p.Flow, p.Sync, multi)
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
// mid-run).
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

	// Decision tracing: candLabels holds one interned label per candidate
	// (matching PlanCosts), so emitting a decision is a loop
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
	// stamp it across the set so labels, cost entries and Observe's plan
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
			p.candLabels[i] = rec.Intern(candidates[i].plan.String())
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
		if per, ok := priors[p.candidates[i].plan.String()]; ok && per > 0 {
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
			out[c.plan.String()] = p.measured[i]
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
	return p.candidates[p.last].plan
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

// Observe folds the measured cost of an executed plan into its candidate's
// per-edge estimate with latest-wins weighting. Only Auto measures; static
// sets ignore it.
func (p *planner) Observe(plan StepPlan, stats IterationStats) {
	if !p.adaptive || stats.Duration <= 0 {
		return
	}
	idx := -1
	for i, c := range p.candidates {
		if c.plan == plan {
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
func streamCandidateLevels(src Source, workers int, budget int64) []StreamLevelInfo {
	if sl, ok := src.(StreamLeveler); ok {
		if levels := sl.StreamLevels(workers, budget); len(levels) > 0 {
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
		Workers:   StreamExecWorkers(p, workers, budget),
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
// plannable dimensions are the direction and the virtual grid level (the
// store's coarsening ladder, see StreamLeveler). A static flow streams at
// the ladder's finest rung — the stored resolution; Flow == Auto enumerates
// one push/pull candidate pair per admitted rung, costed by
// streamLevelPrior and refined by measured ns/edge.
func streamPlanner(src Source, cfg Config, workers int, budget int64, alpha int, tracked bool, multi int) *planner {
	env := plannerEnv{
		numVertices: src.NumVertices(),
		totalEdges:  src.NumEdges(),
		alpha:       alpha,
		tracked:     tracked,
		multi:       multi,
		// No resident out index: the count heuristic decides direction.
	}
	// Compressed stores label and cost their plans as "compressed/<P>"; both
	// formats append "@s<version>" (oocore.FormatVersion and
	// FormatVersionCompressed) so traces and cached measurements never
	// conflate a level across storage formats.
	layout := graph.LayoutGrid
	pushPrior, pullPrior := priorGridPush, priorGridPull
	format := 1
	if src.Compressed() {
		layout = graph.LayoutGridCompressed
		pushPrior, pullPrior = priorCompressedPush, priorCompressedPull
		format = 3
	}
	levels := streamCandidateLevels(src, workers, budget)
	if cfg.Flow != Auto {
		return newPlanner(env, staticCandidates(layout, cfg.Flow, SyncPartitionFree, levels[0].P, format, tracked), false, nil, cfg.Trace)
	}
	var candidates []planCandidate
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
	return newPlanner(env, candidates, true, cfg.CostPriors, cfg.Trace)
}
