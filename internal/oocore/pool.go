package oocore

import (
	"time"

	"github.com/epfl-repro/everythinggraph/internal/core"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/sched"
	"github.com/epfl-repro/everythinggraph/internal/storage"
	"github.com/epfl-repro/everythinggraph/internal/trace"
)

// This file is the streamed executor's recycled machinery. A streamed pass
// used to allocate its segment buffers, one goroutine and one channel per
// read — thousands of allocations per pass on a 256x256 grid. The pool
// replaces all of it with state the store recycles from pass to pass:
//
//   - every column group owns a ring of prefetch slots, allocated once and
//     sized so the whole pool never exceeds the run's budget. A raw store's
//     records are read straight into a slot's edges (12 bytes per buffered
//     edge); a compressed store's slot also holds the payload it decodes;
//   - every group owns one persistent fetcher goroutine that parks on a
//     request channel between passes, so a pass spawns nothing;
//   - fetcher and compute worker exchange slot *indexes* over two
//     fixed-capacity channels (filled, freed), so the per-slice protocol is
//     two channel operations and zero allocations.
//
// The pass options select how much of the allocated ring a pass actually
// uses: depth picks the number of slots in rotation, the budget bounds the
// slice length fetched into each slot, and the grid level picks one of the
// precomputed column partitions. A run hands every pass the same depth and
// budget and moves only the level, which reuses the same buffers; a depth
// change reuses them too, a different worker count or budget rebuilds.

// passReq describes one pass over a group's columns, handed to its fetcher.
type passReq struct {
	colLo, colHi int
	depth        int
	bufEdges     int
	// factor is the virtual-coarsening factor of the pass's grid level:
	// consecutive fine-row segments inside one coarse row (factor fine rows)
	// merge into a single read whenever the cells between them are empty.
	// factor 1 — the store's own resolution — merges nothing.
	factor int
	// level is the pass's virtual grid dimension, carried for fetch spans.
	level int
	// rec receives this pass's fetch (read/decode) spans; nil when the run
	// is untraced. It travels in the request — not read off the pool — so a
	// fetcher still draining never races the next pass's beginPass.
	rec *trace.Recorder
}

// stallSpanMin is the shortest prefetch stall recorded as a trace span:
// sub-10µs waits are pipeline jitter, and recording each of them would
// drown the trace in noise the IOWait counters already sum precisely.
const stallSpanMin = 10 * time.Microsecond

// slot is one prefetch buffer of a group's ring. edges is a view into the
// group's edge arena, re-carved by the fetcher at every pass so that any
// pipeline depth can spend the whole per-group budget: at depth d each
// in-rotation slot owns a 1/d share of the arena.
type slot struct {
	edges []graph.Edge
	n     int
}

// group is one column group: its buffer arenas and slot ring, its parked
// fetcher, and the index channels the fetcher and the compute worker
// exchange slots over.
type group struct {
	// id is the group's index: its compute worker records on trace track
	// TrackWorkerBase+id, its fetcher on TrackFetcherBase+id.
	id int32
	// edgeArena backs every slot of the ring, and (compressed stores only)
	// rawArena the payload each slot decodes from; their capacity is the
	// group's share of the pool's budget.
	rawArena  []byte
	edgeArena []graph.Edge
	slots     []slot
	// req carries one passReq per pass; closing it retires the fetcher.
	req chan passReq
	// filled delivers filled slot indexes to the compute worker, -1
	// terminating the pass. Capacity depthCap+1 so the sentinel never
	// blocks behind unconsumed slots.
	filled chan int
	// freed returns consumed slot indexes to the fetcher. Capacity depthCap
	// so returning never blocks.
	freed chan int
	// free is the fetcher's pass-local free-slot stack, kept here so a pass
	// allocates nothing.
	free []int
}

// streamPool is one pass's recycled streaming state. A pass borrows an idle
// pool built for its shape — worker count and budget — from the store and
// returns it afterwards, so every pass and run of that shape reuses it.
type streamPool struct {
	store   *Store
	workers int   // stream worker count at the stored resolution
	cap     int64 // budget the arenas are sized for
	// depthCap is the deepest prefetch pipeline the budget can feed without
	// slices degenerating (core.StreamDepthCap, lowered further for
	// compressed stores so whole-cell slots fit the budget); arenaEdges is
	// each group's arena capacity — workers*arenaEdges edges fit the budget
	// by construction, whatever depth carves them up.
	depthCap   int
	arenaEdges int
	// rawPerEdge is the on-disk bytes one buffered edge needs: a 12-byte
	// record for raw stores, two range offsets (plus 4 weight bytes when a
	// weight plane exists) for compressed ones.
	// residentPerEdge is the per-edge resident cost the arenas are sized by
	// and the accounting charges: one graph.Edge, which a raw store's record
	// is read into, plus a compressed store's payload bytes.
	rawPerEdge      int
	residentPerEdge int64
	// One column partition and largest coalesced read per virtual grid
	// level: a pass may run at a coarser level than the store's resolution
	// (the planner's GridLevel choice), and each level needs its own
	// boundaries and segment bound. Precomputed here so choosing a level per
	// pass allocates nothing.
	levels []poolLevel
	groups []group
	body   func(worker, lo, hi int) // compute fan-out body, bound once

	// Per-pass state, set by beginPass before the fan-out starts.
	passWorkers int
	passBounds  []int
	passFactor  int
	passLevel   int
	depth       int
	bufEdges    int
	visit       func(worker int, edges []graph.Edge)
	rec         *trace.Recorder
	abort       streamAbort
}

// poolLevel is one virtual grid level's precomputed pass shape: the level's
// stream worker count (core.StreamExecWorkers at its dimension), their
// column boundaries and the largest coalesced read one of them issues.
type poolLevel struct {
	p, factor int
	workers   int
	bounds    []int
	maxSeg    int
}

// poolParams resolves the pass shape that determines the pool build: the
// worker count (grid-clamped and budget-shed by the shared
// core.StreamExecWorkers rule, so the planner's view of the parallelism is
// exactly what runs) and the budget buffers are sized for.
func (s *Store) poolParams(opt core.StreamOptions) (workers int, budget int64) {
	workers = opt.Workers
	if workers <= 0 {
		workers = sched.MaxWorkers()
	}
	budget = opt.MemoryBudget
	if budget <= 0 {
		budget = DefaultMemoryBudget
	}
	return core.StreamExecWorkers(s.header.P, workers, budget), budget
}

// borrowPool takes an idle pool built for the pass's shape off the store's
// idle list, or builds one when none is. Steady-state passes reuse; a pass
// that builds retires the idle pools of other shapes, which is how a run
// that changes its worker count or budget frees the buffers of the old one.
func (s *Store) borrowPool(opt core.StreamOptions) *streamPool {
	workers, budget := s.poolParams(opt)
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	for i, p := range s.idle {
		if p.workers == workers && p.cap == budget {
			last := len(s.idle) - 1
			s.idle[i], s.idle[last] = s.idle[last], nil
			s.idle = s.idle[:last]
			return p
		}
	}
	for _, p := range s.idle {
		p.stop()
	}
	clear(s.idle)
	s.idle = s.idle[:0]
	return s.buildPool(workers, budget)
}

// returnPool puts a pool whose pass has finished back on the idle list.
func (s *Store) returnPool(p *streamPool) {
	s.poolMu.Lock()
	s.idle = append(s.idle, p)
	s.poolMu.Unlock()
}

// buildPool allocates the arenas and starts the fetchers. Each group's
// arena is its share of the budget (so a depth-2 pass uses the whole budget
// in two big slices, a depth-8 pass the same budget in eight smaller ones),
// clamped to depthCap times the largest coalesced read any group can issue
// — a larger arena would never fill. depthCap is the deepest pipeline the
// budget can feed without slices degenerating (core.StreamDepthCap, the
// same bound core.StreamRecipe clamps against, so a resolved depth is an
// executed depth).
func (s *Store) buildPool(workers int, budget int64) *streamPool {
	// One column partition (and largest-read figure) per virtual grid level.
	// maxSeg tracks the largest coalesced read any level can issue — coarse
	// levels merge row segments, so their reads can be far larger than the
	// finest level's, and the arenas must fit them to realize the fewer,
	// larger I/Os the level is chosen for.
	levels := make([]poolLevel, len(s.levels))
	maxSeg := 0
	for li, lv := range s.levels {
		pl := poolLevel{p: lv.P, factor: lv.Factor, workers: core.StreamExecWorkers(lv.P, workers, budget)}
		pl.bounds = s.levelBounds(lv.Factor, pl.workers)
		_, pl.maxSeg = s.levelRuns(lv.Factor, pl.bounds)
		maxSeg = max(maxSeg, pl.maxSeg)
		levels[li] = pl
	}
	rawPerEdge := s.rawEdgeBytes()
	residentPerEdge := int64(decodedEdgeBytes)
	if s.Compressed() {
		residentPerEdge += int64(rawPerEdge)
	}
	depthCap := core.StreamDepthCap(workers, budget)
	// Compressed cells decode whole (a cell's CRC covers its whole payload,
	// so none of it is used before all of it is read), so every in-rotation
	// slot holds at least the largest cell: rotate fewer slots while that
	// floor would overrun the budget. At MinPrefetchDepth it stays, overrun
	// or not (see core.StreamOptions.MemoryBudget).
	for s.Compressed() && depthCap > core.MinPrefetchDepth &&
		int64(workers)*int64(depthCap)*int64(s.maxCellEdges)*residentPerEdge > budget {
		depthCap--
	}
	arenaEdges := int(budget / (int64(workers) * residentPerEdge))
	if maxSeg > 0 && arenaEdges > maxSeg*depthCap {
		arenaEdges = maxSeg * depthCap
	}
	if arenaEdges < depthCap {
		arenaEdges = depthCap // one edge per slot, degenerate but safe
	}
	// Every slot must fit the largest cell even when the budget asks for
	// less.
	if min := s.maxCellEdges * depthCap; s.Compressed() && arenaEdges < min {
		arenaEdges = min
	}

	p := &streamPool{
		store:           s,
		workers:         workers,
		cap:             budget,
		depthCap:        depthCap,
		arenaEdges:      arenaEdges,
		rawPerEdge:      rawPerEdge,
		residentPerEdge: residentPerEdge,
		levels:          levels,
		groups:          make([]group, workers),
	}
	for i := range p.groups {
		g := &p.groups[i]
		g.id = int32(i)
		if s.Compressed() {
			g.rawArena = make([]byte, arenaEdges*rawPerEdge)
		}
		g.edgeArena = make([]graph.Edge, arenaEdges)
		g.slots = make([]slot, depthCap)
		g.req = make(chan passReq)
		g.filled = make(chan int, depthCap+1)
		g.freed = make(chan int, depthCap)
		g.free = make([]int, 0, depthCap)
		go p.fetchLoop(g)
	}
	p.body = func(_, lo, hi int) {
		for g := lo; g < hi; g++ {
			p.runGroup(g)
		}
	}
	return p
}

// stop retires the pool's fetchers. No pass may be in flight on it.
func (p *streamPool) stop() {
	for i := range p.groups {
		close(p.groups[i].req)
	}
}

// beginPass resolves the pass options against the allocated arenas: the
// pass's grid level (the pool is never rebuilt for it) selects a
// precomputed column partition, depth ≤ depthCap slots rotate per group,
// each owning a 1/depth share of its group's arena, with slices
// additionally bounded by the budget and by the largest coalesced read that
// can ever fill at this level.
func (p *streamPool) beginPass(opt core.StreamOptions, visit func(worker int, edges []graph.Edge)) {
	lv := &p.levels[0]
	if opt.GridLevel > 0 {
		for i := range p.levels {
			if p.levels[i].p == opt.GridLevel {
				lv = &p.levels[i]
				break
			}
		}
	}
	workers := lv.workers
	depth := opt.PrefetchDepth
	if depth <= 0 {
		depth = core.DefaultPrefetchDepth
	}
	if depth < core.MinPrefetchDepth {
		depth = core.MinPrefetchDepth
	}
	if depth > p.depthCap {
		depth = p.depthCap
	}
	bufEdges := int(p.cap / (int64(workers) * int64(depth) * p.residentPerEdge))
	if share := p.arenaEdges / depth; bufEdges > share {
		bufEdges = share
	}
	if lv.maxSeg > 0 && bufEdges > lv.maxSeg {
		bufEdges = lv.maxSeg
	}
	// Whole-cell decode granularity: a compressed slot must fit the largest
	// cell. The arena always can (buildPool sized it to maxCellEdges slots
	// at depthCap), so this raises only the budget-derived figure.
	if p.store.Compressed() && bufEdges < p.store.maxCellEdges {
		bufEdges = p.store.maxCellEdges
	}
	if bufEdges < 1 {
		bufEdges = 1
	}
	p.passWorkers, p.passBounds = workers, lv.bounds
	p.passFactor, p.passLevel = lv.factor, lv.p
	p.depth, p.bufEdges, p.visit = depth, bufEdges, visit
	p.rec = opt.Trace
	p.abort.reset()
}

// runGroup is the compute side of one group's pass: request the pass from
// the parked fetcher, then consume filled slots in order until the
// sentinel. The in-rotation buffers are accounted resident for the pass.
func (p *streamPool) runGroup(gi int) {
	if p.passBounds[gi] >= p.passBounds[gi+1] {
		return
	}
	g := &p.groups[gi]
	s := p.store

	resident := int64(p.depth) * int64(p.bufEdges) * p.residentPerEdge
	s.stats.addResident(resident)
	defer s.stats.addResident(-resident)

	g.req <- passReq{
		colLo: p.passBounds[gi], colHi: p.passBounds[gi+1],
		depth: p.depth, bufEdges: p.bufEdges,
		factor: p.passFactor, level: p.passLevel,
		rec: p.rec,
	}
	for {
		t0 := time.Now()
		idx := <-g.filled
		wait := time.Since(t0)
		s.stats.ioWaitNanos.Add(int64(wait))
		if p.rec != nil && wait >= stallSpanMin {
			p.rec.Stall(trace.TrackWorkerBase+g.id, t0, wait)
		}
		if idx < 0 {
			return
		}
		if !p.abort.flag.Load() {
			sl := &g.slots[idx]
			p.visit(gi, sl.edges[:sl.n])
		}
		g.freed <- idx
	}
}

// fetchLoop is a group's persistent fetcher: it parks on the request
// channel between passes and retires when the channel closes (pool rebuild
// or store close).
func (p *streamPool) fetchLoop(g *group) {
	for req := range g.req {
		if p.store.Compressed() {
			p.fetchCompressed(g, req)
		} else {
			p.fetchPass(g, req)
		}
	}
}

// fetchPass streams the group's columns once: for every owned row, the
// contiguous (row x owned-columns) file segment is fetched as one coalesced
// read, split into budget-bounded slices, each slice read into a free slot
// and handed to the compute worker in order. Row-ascending order per column
// is what keeps streamed results bit-identical to the in-memory grid path;
// the slot ring only changes how far ahead of the consumer the reads run.
func (p *streamPool) fetchPass(g *group, req passReq) {
	s := p.store
	gp := s.header.P
	free := g.free[:0]
	for i := req.depth - 1; i >= 0; i-- {
		free = append(free, i)
	}
	// Carve the arena into the pass's in-rotation slots: slot i owns the
	// bufEdges-wide span starting at i*bufEdges (depth*bufEdges edges fit
	// the arena by beginPass's arithmetic).
	for i := 0; i < req.depth; i++ {
		g.slots[i].edges = g.edgeArena[i*req.bufEdges : (i+1)*req.bufEdges]
	}

	row := 0
	var segPos, segEnd uint64
pass:
	for {
		for segPos >= segEnd {
			if row >= gp {
				break pass
			}
			segPos = s.cellIndex[row*gp+req.colLo]
			// Virtual coarsening: while the next fine row lies in the same
			// coarse row and every cell between this row's segment and the
			// next row's is empty, the two segments are file-contiguous —
			// extend the read across them. Empty gap cells contribute no
			// records, so the merged read delivers exactly the owned edges
			// in the unmerged order.
			for req.factor > 1 && row+1 < gp && (row+1)%req.factor != 0 &&
				s.cellIndex[row*gp+req.colHi] == s.cellIndex[(row+1)*gp+req.colLo] {
				row++
			}
			segEnd = s.cellIndex[row*gp+req.colHi]
			row++
		}
		if p.abort.flag.Load() {
			break
		}
		n := int(segEnd - segPos)
		if n > req.bufEdges {
			n = req.bufEdges
		}
		var idx int
		if len(free) > 0 {
			idx = free[len(free)-1]
			free = free[:len(free)-1]
		} else {
			idx = <-g.freed
		}
		sl := &g.slots[idx]
		sl.n = n
		var t0 time.Time
		if req.rec != nil {
			t0 = time.Now()
		}
		if err := s.readSegment(int64(segPos), sl.edges[:n]); err != nil {
			p.abort.set(err)
			free = append(free, idx)
			break
		}
		segPos += uint64(n)
		if req.rec != nil {
			req.rec.FetchSpan(trace.TrackFetcherBase+g.id, t0, int64(n), int64(n*storage.EdgeBytes), false, req.level)
		}
		g.filled <- idx
	}
	g.filled <- -1
	// Reclaim every slot still with the consumer so the next pass starts
	// with a clean ring (conservation: depth slots are either on the free
	// stack or will come back through freed).
	for out := req.depth - len(free); out > 0; out-- {
		<-g.freed
	}
}

// fetchCompressed is fetchPass for version-3 stores. A cell's payload is
// checksummed as a whole, so instead of budget-bounded slices the fetcher
// packs runs of consecutive whole cells along each owned row — as many as
// fit the slot — issues one coalesced payload read (plus one contiguous
// weight-plane read when weighted), CRC-verifies each cell and decodes it
// into the slot's edge scratch. Row-ascending whole-cell order per column
// is exactly the raw path's visit order, so streamed results stay
// bit-identical. Decode time is charged to ioTime: to the planner it is part
// of what a compressed byte costs to turn into edges.
func (p *streamPool) fetchCompressed(g *group, req passReq) {
	s := p.store
	gp := s.header.P
	free := g.free[:0]
	for i := req.depth - 1; i >= 0; i-- {
		free = append(free, i)
	}
	for i := 0; i < req.depth; i++ {
		g.slots[i].edges = g.edgeArena[i*req.bufEdges : (i+1)*req.bufEdges]
	}

pass:
	for row := 0; row < gp; {
		// Virtual coarsening, same condition as fetchPass: merge consecutive
		// fine rows inside one coarse row while the cells between their
		// owned segments are empty. The packing loop then walks the merged
		// window's cell span; the gap cells inside it are empty (zero
		// payload, zero edges), so packing them along costs nothing and the
		// coalesced payload read stays contiguous.
		end := row
		for req.factor > 1 && end+1 < gp && (end+1)%req.factor != 0 &&
			s.cellIndex[end*gp+req.colHi] == s.cellIndex[(end+1)*gp+req.colLo] {
			end++
		}
		cell := row*gp + req.colLo
		rowEnd := end*gp + req.colHi
		row = end + 1
		for cell < rowEnd {
			if p.abort.flag.Load() {
				break pass
			}
			// Pack consecutive whole cells into one slot. The first cell
			// always fits: bufEdges >= maxCellEdges, and the slot's raw bytes
			// hold rawPerEdge for each of its edges.
			first := cell
			n := 0
			for cell < rowEnd {
				ce := int(s.cellIndex[cell+1] - s.cellIndex[cell])
				if cell > first && n+ce > req.bufEdges {
					break
				}
				n += ce
				cell++
			}
			if n == 0 {
				continue
			}
			var idx int
			if len(free) > 0 {
				idx = free[len(free)-1]
				free = free[:len(free)-1]
			} else {
				idx = <-g.freed
			}
			sl := &g.slots[idx]
			sl.n = n
			// Slot idx decodes from its own share of the raw arena.
			raw := g.rawArena[idx*req.bufEdges*p.rawPerEdge:][:n*p.rawPerEdge]
			t0 := time.Now()
			err := s.readCells(first, cell, raw, sl.edges[:n])
			s.stats.ioTimeNanos.Add(int64(time.Since(t0)))
			if err != nil {
				p.abort.set(err)
				free = append(free, idx)
				break pass
			}
			if req.rec != nil {
				req.rec.FetchSpan(trace.TrackFetcherBase+g.id, t0, int64(n), int64(n*p.rawPerEdge), true, req.level)
			}
			g.filled <- idx
		}
	}
	g.filled <- -1
	for out := req.depth - len(free); out > 0; out-- {
		<-g.freed
	}
}
