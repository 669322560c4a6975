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

// DefaultMemoryBudget bounds resident edge buffers when the caller does not
// configure a budget (256 MiB).
const DefaultMemoryBudget = core.DefaultStreamMemoryBudget

// decodedEdgeBytes is the in-memory size of one graph.Edge: what a raw
// store's slot holds per buffered edge, its record read in place.
const decodedEdgeBytes = int(unsafe.Sizeof(graph.Edge{}))

// The core side (StreamRecipe, StreamExecWorkers, StreamDepthCap) sizes its
// budget arithmetic with core.StreamResidentEdgeBytes; this compile-time
// check keeps it at the size of the edge a slot buffers.
const _ = uint(decodedEdgeBytes-core.StreamResidentEdgeBytes) +
	uint(core.StreamResidentEdgeBytes-decodedEdgeBytes)

// The slice granularity below which streaming degenerates is
// core.MinStreamSliceEdges, shared with the core side: worker shedding
// (core.StreamExecWorkers) and the depth cap (core.StreamDepthCap) are
// both derived from it, on both sides of the Source boundary.

// The largest coalesced read any group will issue — and hence the prefetch
// slot bound — is level-dependent, so it lives with the virtual-coarsening
// walk: see (*Store).levelRuns in levels.go.

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
func (s *Store) StreamCells(opt core.StreamOptions, visit func(worker int, edges []graph.Edge)) error {
	p := s.borrowPool(opt)
	defer s.returnPool(p)
	p.beginPass(opt, visit)
	if opt.Lease != nil {
		opt.Lease.ParallelForWorker(0, p.passWorkers, 1, p.passWorkers, p.body)
	} else {
		sched.ParallelForWorker(0, p.passWorkers, 1, p.passWorkers, p.body)
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
