// Package sched provides the parallel runtime used by the rest of the
// library. It is the substitute for the Cilk 4.8 work-stealing runtime used
// in the paper: work is split into chunks, each worker owns a deque of
// chunks, and idle workers steal from victims chosen at random.
//
// The package exposes two levels of API:
//
//   - Parallel-for helpers (ParallelFor, ParallelForChunked, ParallelReduce)
//     that cover the common "iterate over a range of vertices or edges"
//     pattern with chunked work distribution, exactly as described in the
//     paper ("threads take work items from the queue in large enough chunks
//     to reduce the work distribution overheads").
//
//   - A Pool of persistent workers with per-worker deques and random
//     stealing, used by the engine for irregular work such as frontier
//     expansion where chunk sizes are not known in advance.
//
// # Zero-allocation steady state
//
// The parallel-for helpers do not spawn goroutines on the hot path. They run
// on a process-wide pool of persistent workers (DefaultPool), as the paper's
// Cilk runtime keeps its threads between parallel regions: the calling
// goroutine participates as worker 0, chunks are claimed with a single
// atomic counter, and a worker that leaves a loop polls briefly for the next
// one before it parks (gang.go: the spin-then-park barrier, one
// implementation for the pool and for leases), so loops that follow each
// other within tens of microseconds — an engine's sparse iterations — never
// pay a futex wake. The loop descriptor is a single reusable structure, so a
// parallel-for call performs zero heap allocations and zero goroutine
// creations beyond the closure its caller builds. Engines that hoist their
// loop bodies out of the iteration loop therefore run whole iterations
// without allocating.
//
// Nested or concurrent parallel-for calls cannot deadlock: the pool accepts
// one loop at a time, and a call that finds the pool busy (including a loop
// body that itself calls ParallelFor) falls back to a goroutine-spawning
// path with identical semantics.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultChunkSize is the number of items handed to a worker at a time when
// the caller does not specify a chunk size. The paper uses "large enough
// chunks to reduce the work distribution overheads"; 1024 edges/vertices per
// chunk keeps the distribution overhead well below 1% for the graph sizes
// exercised by the benchmarks while still allowing stealing to balance skew.
const DefaultChunkSize = 1024

// MaxWorkers returns the degree of parallelism used when the caller passes
// zero workers: the number of usable CPUs.
func MaxWorkers() int {
	return runtime.GOMAXPROCS(0)
}

// normWorkers clamps a worker count to [1, MaxWorkers] and substitutes the
// default for zero or negative values.
func normWorkers(p int) int {
	if p <= 0 {
		return MaxWorkers()
	}
	return p
}

// normChunk substitutes the default chunk size for non-positive values.
func normChunk(c int) int {
	if c <= 0 {
		return DefaultChunkSize
	}
	return c
}

var (
	defaultPoolOnce sync.Once
	defaultPool     *Pool
)

// DefaultPool returns the process-wide persistent worker pool backing the
// parallel-for helpers. It has MaxWorkers-1 workers because the goroutine
// that issues a loop always participates in it, so a loop runs on exactly
// MaxWorkers goroutines with no oversubscription. The pool is created on
// first use and lives for the rest of the process.
func DefaultPool() *Pool {
	defaultPoolOnce.Do(func() {
		w := MaxWorkers() - 1
		if w < 1 {
			w = 1
		}
		defaultPool = NewPool(w)
	})
	return defaultPool
}

// DefaultCounters returns the lifetime scheduling counters of the
// process-wide pool. Callers attributing activity to one run snapshot it
// before and after and diff with Sub; the engine does exactly that when a
// trace recorder is attached.
func DefaultCounters() PoolCounters {
	return DefaultPool().Counters()
}

// ParallelFor executes body(i) for every i in [begin, end) using p workers
// (p<=0 means MaxWorkers). Iterations are distributed dynamically in chunks
// of DefaultChunkSize so that skewed per-iteration cost (e.g. high-degree
// vertices) is balanced.
func ParallelFor(begin, end, p int, body func(i int)) {
	ParallelForChunked(begin, end, DefaultChunkSize, p, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ParallelForChunked executes body(lo, hi) over consecutive half-open chunks
// [lo, hi) covering [begin, end). Chunks are claimed with an atomic counter,
// which behaves like a single shared work queue with chunked items: the same
// contract as the paper's Cilk work queue. chunk<=0 selects
// DefaultChunkSize; p<=0 selects MaxWorkers. The chunks run on the
// persistent DefaultPool workers; no goroutines are spawned unless the pool
// is already running another loop.
func ParallelForChunked(begin, end, chunk, p int, body func(lo, hi int)) {
	n := end - begin
	if n <= 0 {
		return
	}
	chunk = normChunk(chunk)
	p = normWorkers(p)
	if p == 1 || n <= chunk {
		body(begin, end)
		return
	}
	if DefaultPool().tryLoop(begin, end, chunk, p, nil, body) {
		return
	}
	spawnForChunked(begin, end, chunk, p, body)
}

// ParallelForWorker is like ParallelForChunked but also passes the worker
// index (0..p-1) to the body, so callers can keep per-worker state (local
// frontiers, per-worker accumulators) without synchronization.
func ParallelForWorker(begin, end, chunk, p int, body func(worker, lo, hi int)) {
	n := end - begin
	if n <= 0 {
		return
	}
	chunk = normChunk(chunk)
	p = normWorkers(p)
	if p == 1 || n <= chunk {
		body(0, begin, end)
		return
	}
	if DefaultPool().tryLoop(begin, end, chunk, p, body, nil) {
		return
	}
	spawnForWorker(begin, end, chunk, p, body)
}

// ParallelReduce runs body over chunks of [begin, end) and merges the
// per-chunk results with merge. identity is the reduction identity. The
// reduction order is unspecified, so merge must be associative and
// commutative.
func ParallelReduce[T any](begin, end, chunk, p int, identity T, body func(lo, hi int, acc T) T, merge func(a, b T) T) T {
	n := end - begin
	if n <= 0 {
		return identity
	}
	chunk = normChunk(chunk)
	p = normWorkers(p)
	if p == 1 || n <= chunk {
		return body(begin, end, identity)
	}
	partial := make([]T, p)
	for i := range partial {
		partial[i] = identity
	}
	ParallelForWorker(begin, end, chunk, p, func(worker, lo, hi int) {
		partial[worker] = body(lo, hi, partial[worker])
	})
	out := identity
	for _, v := range partial {
		out = merge(out, v)
	}
	return out
}

// spawnForChunked is the goroutine-spawning fallback used when the
// persistent pool is busy with another loop (nested or concurrent
// parallel-for calls). Work distribution is identical: chunks are claimed
// from an atomic counter.
func spawnForChunked(begin, end, chunk, p int, body func(lo, hi int)) {
	spawnForWorker(begin, end, chunk, p, func(_, lo, hi int) { body(lo, hi) })
}

// spawnForWorker is the worker-indexed goroutine-spawning fallback.
func spawnForWorker(begin, end, chunk, p int, body func(worker, lo, hi int)) {
	n := end - begin
	numChunks := (n + chunk - 1) / chunk
	if p > numChunks {
		p = numChunks
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				c := atomic.AddInt64(&next, 1) - 1
				if c >= int64(numChunks) {
					return
				}
				lo := begin + int(c)*chunk
				hi := lo + chunk
				if hi > end {
					hi = end
				}
				body(worker, lo, hi)
			}
		}(w)
	}
	wg.Wait()
}

// Do runs the given functions concurrently (one goroutine each) and waits
// for all of them, mirroring Cilk spawn/sync for a small static set of
// tasks.
func Do(fns ...func()) {
	if len(fns) == 0 {
		return
	}
	if len(fns) == 1 {
		fns[0]()
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(fns) - 1)
	for _, fn := range fns[1:] {
		go func(f func()) {
			defer wg.Done()
			f()
		}(fn)
	}
	fns[0]()
	wg.Wait()
}
