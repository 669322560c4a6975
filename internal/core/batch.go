package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/sched"
)

// BatchKind names the algorithm a batched query set runs: one of the
// single-source traversals.
type BatchKind int

const (
	// BatchBFS batches breadth-first traversals (algorithms.BFS).
	BatchBFS BatchKind = iota
	// BatchSSSP batches shortest-path computations (algorithms.SSSP).
	BatchSSSP
)

// BatchSourceResult is one query's share of a batched run.
type BatchSourceResult struct {
	// Source is the query's root.
	Source graph.VertexID
	// Parent and Level are the per-vertex BFS tree and depths (BatchBFS
	// only; nil for BatchSSSP).
	Parent []int32
	Level  []int32
	// Dist is the per-vertex distance array (BatchSSSP only; nil for
	// BatchBFS).
	Dist []float32
	// Run is the engine result of this query's own run.
	Run *Result
}

// Batch answers many same-algorithm queries, one single-source Run per
// source, and returns their results in input order. cfg is validated once,
// before any run starts, and then applies to every run unchanged, except
// that cfg.Trace (a single-run recorder) attaches to the first source's run
// only.
//
// The runs go side by side in lanes: min(workers, len(sources)) of them,
// the workers split evenly over the lanes, each lane on its own pool lease
// taking the next unanswered source. With at least as many sources as
// workers every lane is one worker wide, which runs small push iterations
// on the caller without atomics — measured faster than the same runs one
// after another on every worker (BenchmarkBatch64). If the caller already
// holds cfg.Lease, the runs go one after another on it: leases do not nest.
func Batch(g *graph.Graph, kind BatchKind, sources []graph.VertexID, cfg Config) ([]BatchSourceResult, error) {
	if kind != BatchBFS && kind != BatchSSSP {
		return nil, fmt.Errorf("core: unknown batch kind %d", int(kind))
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("core: batch needs at least one source")
	}
	n := g.NumVertices()
	for _, s := range sources {
		if int(s) >= n {
			return nil, fmt.Errorf("core: batch source %d out of range (graph has %d vertices)", s, n)
		}
	}
	if err := cfg.Validate(g); err != nil {
		return nil, err
	}

	out := make([]BatchSourceResult, len(sources))
	runOne := func(i int, cfg Config) error {
		if i > 0 {
			cfg.Trace = nil
		}
		r := &out[i]
		r.Source = sources[i]
		var err error
		switch kind {
		case BatchBFS:
			bfs := algorithms.NewBFS(sources[i])
			r.Run, err = Run(g, bfs, cfg)
			r.Parent, r.Level = bfs.Parent, bfs.Level
		case BatchSSSP:
			sssp := algorithms.NewSSSP(sources[i])
			r.Run, err = Run(g, sssp, cfg)
			r.Dist = sssp.Distances()
		}
		return err
	}

	lanes := BatchLanes(cfg, len(sources))
	if lanes == 1 {
		for i := range sources {
			if err := runOne(i, cfg); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	workers := resolveWorkers(cfg)
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, lanes)
	for l := range lanes {
		width := workers / lanes
		if l < workers%lanes {
			width++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			lease := sched.DefaultPool().Lease(width)
			defer lease.Release()
			cfgL := cfg
			cfgL.Workers, cfgL.Lease = width, lease
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sources) {
					return
				}
				if err := runOne(i, cfgL); err != nil {
					errs[l] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// BatchLanes returns how many runs Batch puts side by side for n sources
// under cfg: one on a caller-held lease, min(workers, n) otherwise.
func BatchLanes(cfg Config, n int) int {
	if cfg.Lease != nil {
		return 1
	}
	return min(resolveWorkers(cfg), n)
}
