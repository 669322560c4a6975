package oocore

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/epfl-repro/everythinggraph/internal/core"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/sched"
)

// This file is the streaming executor's entry point: one StreamCells call is
// one full pass over the grid, with columns partitioned among workers (the
// grid's partition-free ownership, Section 6.1.2) and every worker's segment
// reads prefetched through a ring of recycled slots so the next slices are
// in flight while the current one is being computed on — the same overlap
// idea the paper applies to loading vs. pre-processing (Section 3.4),
// applied per cell. The rings, their fetcher goroutines and every per-pass
// buffer live in the store's streamPool (see pool.go), so steady-state
// passes allocate nothing.

// pairBytes is the size of one graph.Pair: a raw store's record, which a
// slot reads in place.
const pairBytes = int(unsafe.Sizeof(graph.Pair{}))

// minSliceEdges is the slice granularity below which streaming degenerates
// (per-read overheads dominate): a pass sheds workers before its slices
// shrink past it.
const minSliceEdges = 64

// execWorkers returns the number of workers a streamed pass actually runs:
// the requested count clamped to the grid dimension (one worker per column
// at most) and shed while the budget cannot feed every worker's minimal
// slots at perEdge resident bytes an edge (a starved slice costs every
// read, a shed worker only costs parallelism).
func execWorkers(gridP, workers int, budget, perEdge int64) int {
	if gridP > 0 && workers > gridP {
		workers = gridP
	}
	workers = max(workers, 1)
	for workers > 1 && int64(workers)*core.MinPrefetchDepth*minSliceEdges*perEdge > budget {
		workers--
	}
	return workers
}

// partitionColumns splits the P columns into `workers` contiguous groups of
// roughly equal edge mass (power-law columns make equal-width grouping
// badly skewed). Returns workers+1 monotone boundaries; groups may be
// empty.
func partitionColumns(colEdges []uint64, workers int) []int {
	p := len(colEdges)
	bounds := make([]int, workers+1)
	var total uint64
	for _, c := range colEdges {
		total += c
	}
	var acc uint64
	col := 0
	for g := 1; g < workers; g++ {
		target := total * uint64(g) / uint64(workers)
		for col < p && acc < target {
			acc += colEdges[col]
			col++
		}
		bounds[g] = col
	}
	bounds[workers] = p
	return bounds
}

// streamAbort propagates the first error across a pass's workers. It is
// owned by the pool and recycled: reset rearms it for the next pass, take
// consumes the pass's verdict.
type streamAbort struct {
	flag atomic.Bool
	mu   sync.Mutex
	err  error
}

func (a *streamAbort) set(err error) {
	a.mu.Lock()
	if a.err == nil {
		a.err = err
	}
	a.mu.Unlock()
	a.flag.Store(true)
}

func (a *streamAbort) reset() {
	a.mu.Lock()
	a.err = nil
	a.mu.Unlock()
	a.flag.Store(false)
}

func (a *streamAbort) take() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// StreamCells implements core.Source: one full pass over every cell, with
// column ownership, row-ascending order within each column, and per-worker
// prefetch through recycled slot rings. The pass borrows an idle stream
// pool of its shape (arenas, slot rings, persistent per-group fetchers) and
// returns it afterwards, so concurrent passes on one open store each run on
// a pool of their own: they share the file handle, the cell index and the
// stats counters, but no scratch. The compute fan-out runs on the run's
// lease when it holds one and on the process-wide sched pool otherwise; the
// reads run on the pool's fetchers (the sched workers are busy computing,
// which is the point).
//
// The pass charges its pool's whole arenas to the resident-bytes account
// while it runs, so a pass's peak does not depend on how its groups
// happened to overlap.
func (s *Store) StreamCells(opt core.StreamOptions, visit func(worker int, pairs []graph.Pair, weights []graph.Weight)) error {
	p := s.borrowPool(opt)
	defer s.returnPool(p)
	s.stats.addResident(p.resident)
	defer s.stats.addResident(-p.resident)
	p.visit, p.rec = visit, opt.Trace
	p.abort.reset()
	if opt.Lease != nil {
		opt.Lease.ParallelForWorker(0, p.workers, 1, p.workers, p.body)
	} else {
		sched.ParallelForWorker(0, p.workers, 1, p.workers, p.body)
	}
	p.visit = nil
	if err := p.abort.take(); err != nil {
		return err
	}
	// Only completed passes count; an aborted pass did not cover every
	// cell and must not skew per-pass I/O averages.
	s.stats.passes.Add(1)
	return nil
}
