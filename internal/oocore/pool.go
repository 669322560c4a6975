package oocore

import (
	"time"

	"github.com/epfl-repro/everythinggraph/internal/core"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/sched"
	"github.com/epfl-repro/everythinggraph/internal/trace"
)

// This file is the streamed executor's recycled machinery. A streamed pass
// used to allocate its segment buffers, one goroutine and one channel per
// read — thousands of allocations per pass on a 256x256 grid. The pool
// replaces all of it with state the store recycles from pass to pass:
//
//   - every column group owns a ring of two prefetch slots (double
//     buffering), carved once out of arenas sized so the whole pool never
//     exceeds the run's budget. A raw store's records are read in place
//     into a slot's pairs (8 bytes per buffered edge), and its weight plane,
//     when it has one, into the slot's weights; a compressed store's slot
//     also holds the payload it decodes;
//   - every group owns one persistent fetcher goroutine that parks on a
//     request channel between passes, so a pass spawns nothing;
//   - fetcher and compute worker exchange slot *indexes* over two
//     fixed-capacity channels (filled, freed), so the per-slice protocol is
//     two channel operations and zero allocations.
//
// A pass uses the whole ring: the budget bounds the slice length fetched
// into each slot. A run hands every pass the same options, which reuse the
// same buffers; a different worker count or budget rebuilds.

// passReq describes one pass over a group's columns, handed to its fetcher.
type passReq struct {
	colLo, colHi int
	// rec receives this pass's fetch (read/decode) spans; nil when the run
	// is untraced. It travels in the request — not read off the pool — so a
	// fetcher still draining never races the next pass's StreamCells.
	rec *trace.Recorder
}

// stallSpanMin is the shortest prefetch stall recorded as a trace span:
// sub-10µs waits are pipeline jitter, and recording each of them would
// drown the trace in noise the IOWait counters already sum precisely.
const stallSpanMin = 10 * time.Microsecond

// slot is one prefetch buffer of a group's ring: its bufEdges-wide halves of
// the group's pair and weight arenas (weights nil when slots carry none).
type slot struct {
	pairs   []graph.Pair
	weights []graph.Weight
	n       int
}

// cell returns the slot's filled pairs and their weights.
func (sl *slot) cell() ([]graph.Pair, []graph.Weight) {
	if sl.weights == nil {
		return sl.pairs[:sl.n], nil
	}
	return sl.pairs[:sl.n], sl.weights[:sl.n]
}

// group is one column group: its buffer arenas and slot ring, its parked
// fetcher, and the index channels the fetcher and the compute worker
// exchange slots over.
type group struct {
	// id is the group's index: its compute worker records on trace track
	// TrackWorkerBase+id, its fetcher on TrackFetcherBase+id.
	id int32
	// pairArena and (when slots carry weights) weightArena back both slots
	// of the ring, and (compressed stores only) rawArena the payload each
	// slot decodes from; each holds two slots of bufEdges edges.
	rawArena    []byte
	pairArena   []graph.Pair
	weightArena []graph.Weight
	slots       [core.MinPrefetchDepth]slot
	// req carries one passReq per pass; closing it retires the fetcher.
	req chan passReq
	// filled delivers filled slot indexes to the compute worker, -1
	// terminating the pass. One more than the ring so the sentinel never
	// blocks behind unconsumed slots.
	filled chan int
	// freed returns consumed slot indexes to the fetcher. As many as the
	// ring so returning never blocks.
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
	// bufEdges is one slot's capacity in edges: the longest slice a fetcher
	// reads or the most whole cells it packs into one slot.
	bufEdges int
	// resident is the bytes of every arena of the pool, which a pass
	// charges to the resident-bytes account while it runs.
	resident int64
	// bounds partitions the columns among the groups (workers+1 entries)
	// and maxSeg is the largest read one of them issues: one row's segment
	// across the group's columns.
	bounds []int
	maxSeg int
	groups []group
	body   func(worker, lo, hi int) // compute fan-out body, bound once

	// Per-pass state, set by StreamCells before the fan-out starts.
	visit func(worker int, pairs []graph.Pair, weights []graph.Weight)
	rec   *trace.Recorder
	abort streamAbort
}

// poolParams resolves the pass shape that determines the pool build: the
// worker count (grid-clamped and budget-shed by execWorkers) and the budget
// buffers are sized for.
func (s *Store) poolParams(opt core.StreamOptions) (workers int, budget int64) {
	workers = opt.Workers
	if workers <= 0 {
		workers = sched.MaxWorkers()
	}
	budget = opt.MemoryBudget
	if budget <= 0 {
		budget = core.DefaultStreamMemoryBudget
	}
	return execWorkers(s.header.P, workers, budget, s.residentEdgeBytes()), budget
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

// buildPool allocates the arenas, carves each group's two slots out of
// them and starts the fetchers. A slot holds bufEdges edges: half the
// group's share of the budget, clamped to the largest read any group issues
// — a larger slot would never fill.
func (s *Store) buildPool(workers int, budget int64) *streamPool {
	bounds := partitionColumns(s.colEdges, workers)
	maxSeg := s.largestRead(bounds)
	perEdge := s.residentEdgeBytes()
	bufEdges := int(min(budget/(int64(workers)*core.MinPrefetchDepth*perEdge), int64(maxSeg)))
	// Compressed cells decode whole (a cell's CRC covers its whole payload,
	// so none of it is used before all of it is read), so every slot holds
	// at least the largest cell, overrunning the budget when two of those
	// per worker do not fit it (see core.StreamOptions.MemoryBudget).
	if s.Compressed() {
		bufEdges = max(bufEdges, s.maxCellEdges)
	}
	bufEdges = max(bufEdges, 1)

	p := &streamPool{
		store:    s,
		workers:  workers,
		cap:      budget,
		bufEdges: bufEdges,
		resident: int64(workers*core.MinPrefetchDepth*bufEdges) * perEdge,
		bounds:   bounds,
		maxSeg:   maxSeg,
		groups:   make([]group, workers),
	}
	for i := range p.groups {
		g := &p.groups[i]
		g.id = int32(i)
		if s.Compressed() {
			g.rawArena = make([]byte, len(g.slots)*bufEdges*s.edgeBytes)
		}
		g.pairArena = make([]graph.Pair, len(g.slots)*bufEdges)
		if s.weightOff > 0 {
			g.weightArena = make([]graph.Weight, len(g.slots)*bufEdges)
		}
		for j := range g.slots {
			g.slots[j].pairs = g.pairArena[j*bufEdges : (j+1)*bufEdges]
			if g.weightArena != nil {
				g.slots[j].weights = g.weightArena[j*bufEdges : (j+1)*bufEdges]
			}
		}
		g.req = make(chan passReq)
		g.filled = make(chan int, len(g.slots)+1)
		g.freed = make(chan int, len(g.slots))
		g.free = make([]int, 0, len(g.slots))
		go p.fetchLoop(g)
	}
	p.body = func(_, lo, hi int) {
		for g := lo; g < hi; g++ {
			p.runGroup(g)
		}
	}
	return p
}

// largestRead returns the largest read a pass over the given column groups
// issues: one row's segment across a group's columns.
func (s *Store) largestRead(bounds []int) int {
	gp := s.header.P
	var largest uint64
	for g := 0; g+1 < len(bounds); g++ {
		for row := 0; row < gp; row++ {
			largest = max(largest, s.cellIndex[row*gp+bounds[g+1]]-s.cellIndex[row*gp+bounds[g]])
		}
	}
	return int(largest)
}

// stop retires the pool's fetchers. No pass may be in flight on it.
func (p *streamPool) stop() {
	for i := range p.groups {
		close(p.groups[i].req)
	}
}

// runGroup is the compute side of one group's pass: request the pass from
// the parked fetcher, then consume filled slots in order until the
// sentinel.
func (p *streamPool) runGroup(gi int) {
	if p.bounds[gi] >= p.bounds[gi+1] {
		return
	}
	g := &p.groups[gi]
	s := p.store

	g.req <- passReq{colLo: p.bounds[gi], colHi: p.bounds[gi+1], rec: p.rec}
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
			pairs, weights := g.slots[idx].cell()
			p.visit(gi, pairs, weights)
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

// fetchPass streams the group's columns once: for every row, the
// contiguous (row x owned-columns) file segment is fetched as one coalesced
// read, split into budget-bounded slices, each slice read into a free slot
// and handed to the compute worker in order. Row-ascending order per column
// is what keeps streamed results bit-identical to the in-memory grid path;
// the slot ring only changes how far ahead of the consumer the reads run.
func (p *streamPool) fetchPass(g *group, req passReq) {
	s := p.store
	gp := s.header.P
	free := g.free[:0]
	for i := len(g.slots) - 1; i >= 0; i-- {
		free = append(free, i)
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
			segEnd = s.cellIndex[row*gp+req.colHi]
			row++
		}
		if p.abort.flag.Load() {
			break
		}
		n := min(int(segEnd-segPos), p.bufEdges)
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
		if err := s.readSegment(int64(segPos), sl.pairs[:n], sl.weights); err != nil {
			p.abort.set(err)
			free = append(free, idx)
			break
		}
		segPos += uint64(n)
		if req.rec != nil {
			req.rec.FetchSpan(trace.TrackFetcherBase+g.id, t0, int64(n), int64(n*s.rawEdgeBytes()), false)
		}
		g.filled <- idx
	}
	g.filled <- -1
	// Reclaim every slot still with the consumer so the next pass starts
	// with a clean ring (conservation: each slot is either on the free
	// stack or will come back through freed).
	for out := len(g.slots) - len(free); out > 0; out-- {
		<-g.freed
	}
}

// fetchCompressed is fetchPass for version-3 stores. A cell's payload is
// checksummed as a whole, so instead of budget-bounded slices the fetcher
// packs runs of consecutive whole cells along each row — as many as
// fit the slot — issues one coalesced payload read (plus one contiguous
// weight-plane read in place when weighted), CRC-verifies each cell and
// decodes it into the slot's pairs (readCells). Row-ascending whole-cell
// order per column is exactly the raw path's visit order, so streamed
// results stay bit-identical.
func (p *streamPool) fetchCompressed(g *group, req passReq) {
	s := p.store
	gp := s.header.P
	free := g.free[:0]
	for i := len(g.slots) - 1; i >= 0; i-- {
		free = append(free, i)
	}

pass:
	for row := 0; row < gp; row++ {
		cell := row*gp + req.colLo
		rowEnd := row*gp + req.colHi
		for cell < rowEnd {
			if p.abort.flag.Load() {
				break pass
			}
			// Pack consecutive whole cells into one slot. The first cell
			// always fits: bufEdges >= maxCellEdges, and the slot's raw bytes
			// hold edgeBytes for each of its edges.
			first := cell
			n := 0
			for cell < rowEnd {
				ce := int(s.cellIndex[cell+1] - s.cellIndex[cell])
				if cell > first && n+ce > p.bufEdges {
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
			raw := g.rawArena[idx*p.bufEdges*s.edgeBytes:][:n*s.edgeBytes]
			var t0 time.Time
			if req.rec != nil {
				t0 = time.Now()
			}
			if err := s.readCells(first, cell, raw, sl.pairs[:n], sl.weights); err != nil {
				p.abort.set(err)
				free = append(free, idx)
				break pass
			}
			if req.rec != nil {
				req.rec.FetchSpan(trace.TrackFetcherBase+g.id, t0, int64(n), int64(n*s.rawEdgeBytes()), true)
			}
			g.filled <- idx
		}
	}
	g.filled <- -1
	for out := len(g.slots) - len(free); out > 0; out-- {
		<-g.freed
	}
}
