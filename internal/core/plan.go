package core

import (
	"fmt"
	"time"

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
// discipline and whether the next frontier is built. Flow is always Push or Pull here — the dynamic flows (PushPull,
// Auto) exist only at the Config level and are resolved by the planner
// before execution. A plan is also its own cost key: the planner matches
// measurements to candidates by the whole plan.
// (The I/O recipe of a streamed pass is not part of it: every pass of a run
// uses the one RunStreamed resolves.)
type StepPlan struct {
	Layout graph.Layout
	Flow   Flow
	Sync   SyncMode
	// Tracked reports whether the iteration builds a next frontier (false
	// for dense algorithms that process the whole graph every iteration).
	Tracked bool
}

// String returns the "layout/flow/sync" label shown in plan traces and
// Result.PlanTrace. A grid runs at the P it was built with, which the label
// does not repeat. It is for display only: nothing parses it.
func (p StepPlan) String() string {
	return fmt.Sprintf("%v/%v/%v", p.Layout, p.Flow, p.Sync)
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
	priorEdgeArray     = 3.0
)

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
// flow admits (staticCandidates): layout and sync never move, PushPull
// picks its direction per iteration with the |E|/alpha threshold test
// alone, and nothing is measured. Flow == Auto (adaptive) is the paper's
// synthesis as an online policy:
//
//   - direction by frontier density and active-out-edge thresholds (the
//     direction-optimizing switch generalized beyond BFS to every tracked
//     algorithm), and — Beamer's second rule — staying in pull while the
//     run's own pulls keep halving and the frontier holds at least
//     |V|/pullBeta vertices;
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
	// pulls holds the durations of the run's last two measured pull
	// iterations, the newest first (Auto only).
	pulls [2]time.Duration

	// Decision tracing: candLabels holds one interned label per candidate,
	// so emitting a decision is a loop of ring stores with no allocation.
	rec        *trace.Recorder
	candLabels []int32
}

// newPlanner builds the planner over a candidate set; adaptive selects the
// Auto policy (see planner).
func newPlanner(env plannerEnv, candidates []planCandidate, adaptive bool, rec *trace.Recorder) *planner {
	p := &planner{
		env:        env,
		adaptive:   adaptive,
		candidates: candidates,
		measured:   make([]float64, len(candidates)),
		last:       -1,
		rec:        rec,
	}
	for i := range candidates {
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
	return p
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

// pullBeta is Beamer et al.'s β: a run that is pulling keeps pulling while
// the frontier holds at least |V|/pullBeta vertices.
const pullBeta = 24

// direction picks push or pull for an iteration. Under Auto the density
// test runs first because it is O(1). Then, as in Beamer et al.'s
// direction-optimizing BFS, a run that pulled last iteration stays in pull
// while its frontier holds at least |V|/pullBeta vertices, provided its last
// pull took at most half as long as the one before: that shrink stands in
// for Beamer's unexplored-edge count (BFS's bottom-up step skips visited
// vertices, so its pulls shrink; WCC's and SSSP's rescan every row, so they
// never keep pulling on this rule). Only then does the degree sum run. A
// static PushPull set measures nothing and applies the threshold test alone.
func (p *planner) direction(f *graph.Frontier) Flow {
	switch {
	case !p.hasPull:
		return Push
	case !p.hasPush:
		return Pull
	case p.adaptive && f.Density() >= adaptiveDenseFrontier:
		return Pull
	case p.adaptive && p.last >= 0 && p.candidates[p.last].plan.Flow == Pull &&
		p.pulls[0] > 0 && 2*p.pulls[0] <= p.pulls[1] && f.Count()*pullBeta >= p.env.numVertices:
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
	if plan.Flow == Pull {
		p.pulls = [2]time.Duration{stats.Duration, p.pulls[0]}
	}
	per := float64(stats.Duration.Nanoseconds()) / work
	if old := p.measured[idx]; old != 0 {
		per = (1-ewmaNewWeight)*old + ewmaNewWeight*per
	}
	p.measured[idx] = per
}

// staticCandidates is the candidate source of a static Config: the
// configured layout and sync, one candidate per direction the flow admits —
// both for PushPull. Edge-centric iterations always push. A static set has
// no cost model: zero priors and full scans, so picking the candidate of a
// direction never sums frontier degrees.
func staticCandidates(layout graph.Layout, flow Flow, sync SyncMode, tracked bool) []planCandidate {
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
			plan:     StepPlan{Layout: layout, Flow: fl, Sync: sync, Tracked: tracked},
			fullScan: true,
		}
	}
	return cs
}

// residentPlanner builds the planner of an in-memory run: every runnable
// layout under Flow == Auto, the configured one otherwise.
func residentPlanner(g *graph.Graph, cfg Config, r *runner, alpha int, tracked bool) (*planner, error) {
	env := plannerEnv{
		numVertices: g.NumVertices(),
		totalEdges:  residentScanEdges(g),
		alpha:       alpha,
		tracked:     tracked,
	}
	if g.Out != nil {
		env.activeOutEdges = r.activeOutEdges
	}
	if cfg.Flow == Auto {
		candidates := autoCandidates(g, tracked)
		if len(candidates) == 0 {
			return nil, fmt.Errorf("core: auto flow found no runnable layout (build adjacency lists, a grid, or supply edges)")
		}
		return newPlanner(env, candidates, true, cfg.Trace), nil
	}
	if cfg.Layout == graph.LayoutGrid {
		// The grid has no per-vertex out index; its direction switch uses
		// the active-vertex heuristic even when an out-adjacency happens to
		// be resident, preserving the measured behaviour of the paper's
		// grid configurations.
		env.activeOutEdges = nil
	}
	return newPlanner(env, staticCandidates(cfg.Layout, cfg.Flow, cfg.Sync, tracked), false, cfg.Trace), nil
}

// autoCandidates is the candidate source of Auto over resident layouts:
// one plan per materialized layout (and direction), each with the sync mode
// its ownership structure dictates. The grid runs at the P it was built
// with: the resolution is a pre-processing choice (prep.BuildGrid's P), not
// a planner dimension.
func autoCandidates(g *graph.Graph, tracked bool) []planCandidate {
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
	if g.Grid != nil && g.Grid.P > 0 { // a zero-value grid iterates nothing
		cs = append(cs, gridCandidates(tracked)...)
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

// gridCandidates is the push/pull pair a grid offers Auto, in memory or
// streamed: column ownership makes both partition-free.
func gridCandidates(tracked bool) []planCandidate {
	return []planCandidate{
		{plan: StepPlan{Layout: graph.LayoutGrid, Flow: Push, Sync: SyncPartitionFree, Tracked: tracked}, prior: priorGridPush, fullScan: true},
		{plan: StepPlan{Layout: graph.LayoutGrid, Flow: Pull, Sync: SyncPartitionFree, Tracked: tracked}, prior: priorGridPull, fullScan: true},
	}
}

// streamPlanner builds the planner of a streamed (out-of-core) run: layout
// and sync are pinned by the store's column-ownership argument and every
// pass streams at the stored P, so the only plannable dimension is the
// direction. A static flow keeps its configured candidates; Flow == Auto
// offers the grid's push/pull pair.
func streamPlanner(src Source, cfg Config, alpha int, tracked bool) *planner {
	env := plannerEnv{
		numVertices: src.NumVertices(),
		totalEdges:  src.NumEdges(),
		alpha:       alpha,
		tracked:     tracked,
		// No resident out index: the count heuristic decides direction.
	}
	if cfg.Flow != Auto {
		return newPlanner(env, staticCandidates(graph.LayoutGrid, cfg.Flow, SyncPartitionFree, tracked), false, cfg.Trace)
	}
	return newPlanner(env, gridCandidates(tracked), true, cfg.Trace)
}
