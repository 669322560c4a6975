package sched

import (
	"sync"
	"sync/atomic"
)

// Lease is a carved-out subset of a Pool's workers dedicated to one run, so
// independent runs execute truly concurrently instead of serializing on the
// pool's single gang-loop slot. A lease owns its own gang-loop descriptor,
// sequence and counters; its workers service only the lease's loops (they
// wait on the lease's own condition variable, so global loop wake-ups never
// reach them and lease wake-ups never stampede the rest of the pool).
//
// A lease is held by one run at a time: loops are issued sequentially by the
// holder (each ParallelFor call blocks until its loop completes), and
// Release returns the workers to the pool once the run is done. Leases with
// zero granted workers are valid — their loops run serially on the caller —
// so over-subscription degrades to sequential execution, never to an error.
type Lease struct {
	pool    *Pool
	cond    *sync.Cond // waited on by leased workers; shares the pool's mutex
	workers []int      // pool worker indexes assigned to this lease (guarded by pool.mu)

	// Gang-loop state, mirroring Pool's: one loop in flight per lease,
	// distinguished by seq so a worker joins each at most once, with a single
	// reusable descriptor so steady-state loops allocate nothing. All guarded
	// by pool.mu except the atomic seq (see Pool.loopSeq).
	loop     *loopDesc
	loopSeq  atomic.Uint64
	loopD    loopDesc
	released bool

	cGangLoops atomic.Int64
	cGangJoins atomic.Int64
}

// Lease carves up to n-1 currently unleased workers out of the pool (the
// caller participates in every loop, so the lease executes on up to n
// goroutines). Fewer workers — possibly zero — are granted when the pool is
// smaller, closed, or already leased out; Workers reports what was granted.
// Release must be called to return the workers.
func (p *Pool) Lease(n int) *Lease {
	l := &Lease{pool: p}
	l.cond = sync.NewCond(&p.mu)
	if n <= 1 {
		return l
	}
	p.mu.Lock()
	if p.closed || p.stopped {
		p.mu.Unlock()
		return l
	}
	for w := 0; w < p.workers && len(l.workers) < n-1; w++ {
		if p.wleases[w].Load() == nil {
			p.wleases[w].Store(l)
			l.workers = append(l.workers, w)
		}
	}
	p.leases = append(p.leases, l)
	// Wake parked workers so the newly leased ones migrate onto the lease's
	// condition variable before its first loop arrives.
	p.cond.Broadcast()
	p.mu.Unlock()
	return l
}

// Workers returns the lease's degree of parallelism: granted pool workers
// plus the calling goroutine.
func (l *Lease) Workers() int {
	p := l.pool
	p.mu.Lock()
	n := len(l.workers) + 1
	p.mu.Unlock()
	return n
}

// Release returns the lease's workers to the pool. The lease must be idle
// (its holder issues loops synchronously, so after the run finishes it is).
// Release is idempotent; the lease must not be used afterwards.
func (l *Lease) Release() {
	p := l.pool
	p.mu.Lock()
	if l.released {
		p.mu.Unlock()
		return
	}
	l.released = true
	for _, w := range l.workers {
		p.wleases[w].Store(nil)
	}
	l.workers = nil
	for i, o := range p.leases {
		if o == l {
			p.leases = append(p.leases[:i], p.leases[i+1:]...)
			break
		}
	}
	// Leased workers park on the lease's cond; wake them so they re-read
	// their assignment and rejoin the global scheduling loop.
	l.cond.Broadcast()
	p.mu.Unlock()
}

// Counters returns the lease's gang counters, combined with the pool's
// park/unpark accounting (parking is per worker, not per lease; under
// concurrent leases the park numbers describe the whole pool).
func (l *Lease) Counters() PoolCounters {
	p := l.pool
	return PoolCounters{
		GangLoops: l.cGangLoops.Load(),
		GangJoins: l.cGangJoins.Load(),
		Parks:     p.cParks.Load(),
		Unparks:   p.cUnparks.Load(),
	}
}

// tryLoop is Pool.tryLoop scoped to the lease's workers: it installs one
// chunked loop on the lease, runs the caller as worker 0, and waits for the
// joined workers to drain. It returns false when the lease cannot take the
// loop (nested call, released lease, stopped pool); the caller then falls
// back to the goroutine-spawning path.
func (l *Lease) tryLoop(begin, end, chunk, limit int, bodyW func(worker, lo, hi int), body func(lo, hi int)) bool {
	p := l.pool
	numChunks := int64((end - begin + chunk - 1) / chunk)
	if int64(limit) > numChunks {
		limit = int(numChunks)
	}
	p.mu.Lock()
	if l.loop != nil || l.released || p.closed || p.stopped {
		p.mu.Unlock()
		return false
	}
	d := &l.loopD
	d.bodyW, d.body = bodyW, body
	d.begin, d.end, d.chunk = begin, end, chunk
	d.numChunks = numChunks
	d.next.Store(0)
	d.limit = limit
	d.joined = 1 // the caller
	d.running = 0
	l.loop = d
	l.loopSeq.Add(1)
	l.cGangLoops.Add(1)
	l.cond.Broadcast()
	p.mu.Unlock()

	d.run(0)

	p.mu.Lock()
	for d.running > 0 {
		l.cond.Wait()
	}
	l.loop = nil
	d.bodyW, d.body = nil, nil
	p.mu.Unlock()
	return true
}

// ParallelForWorker is sched.ParallelForWorker executed on the lease's
// workers instead of the global pool: body(worker, lo, hi) over chunks of
// [begin, end), worker dense in [0, participants). p bounds the participants
// below the lease's width (p <= 0 uses the full lease).
func (l *Lease) ParallelForWorker(begin, end, chunk, p int, body func(worker, lo, hi int)) {
	n := end - begin
	if n <= 0 {
		return
	}
	chunk = normChunk(chunk)
	limit := len(l.workers) + 1
	if p > 0 && p < limit {
		limit = p
	}
	if limit == 1 || n <= chunk {
		body(0, begin, end)
		return
	}
	if l.tryLoop(begin, end, chunk, limit, body, nil) {
		return
	}
	spawnForWorker(begin, end, chunk, limit, body)
}

// ParallelForChunked is sched.ParallelForChunked on the lease's workers.
func (l *Lease) ParallelForChunked(begin, end, chunk, p int, body func(lo, hi int)) {
	n := end - begin
	if n <= 0 {
		return
	}
	chunk = normChunk(chunk)
	limit := len(l.workers) + 1
	if p > 0 && p < limit {
		limit = p
	}
	if limit == 1 || n <= chunk {
		body(begin, end)
		return
	}
	if l.tryLoop(begin, end, chunk, limit, nil, body) {
		return
	}
	spawnForChunked(begin, end, chunk, limit, body)
}

// runLeased is the leased-mode body of a pool worker's scheduling loop: it
// joins the lease's pending gang loop if any, otherwise parks on the lease's
// condition variable until a new loop arrives, the lease is released, or the
// pool stops. It returns true when the worker should exit (pool stopped).
func (p *Pool) runLeased(worker int, l *Lease, lastSeq *uint64) bool {
	if l.loopSeq.Load() != *lastSeq {
		p.mu.Lock()
		*lastSeq = l.loopSeq.Load()
		if d := l.loop; d != nil && d.joined < d.limit {
			id := d.joined
			d.joined++
			d.running++
			l.cGangJoins.Add(1)
			p.mu.Unlock()
			d.run(id)
			p.mu.Lock()
			d.running--
			if d.running == 0 {
				l.cond.Broadcast()
			}
			p.mu.Unlock()
			return false
		}
		p.mu.Unlock()
	}
	p.mu.Lock()
	parked := false
	for p.wleases[worker].Load() == l && !p.stopped && !(l.loop != nil && l.loopSeq.Load() != *lastSeq) {
		if !parked {
			parked = true
			p.cParks.Add(1)
		}
		l.cond.Wait()
	}
	if parked {
		p.cUnparks.Add(1)
	}
	stopped := p.stopped
	p.mu.Unlock()
	return stopped
}
