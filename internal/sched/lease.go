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

	// CPU-affinity pin state (see Pin). pinned and pinMask are guarded by
	// pool.mu; pinSeq is bumped after every state change so workers notice
	// with one uncontended atomic load per scheduling round. selfPin is the
	// holder goroutine's own thread pin (holder-only, no locking).
	pinned  bool
	pinMask CPUSet
	pinSeq  atomic.Uint32
	selfPin workerPin
	// pinHolders counts the pool workers whose threads are (or are about to
	// be) pinned on this lease's behalf; guarded by pool.mu. Unpin and
	// Release wait for it to drain — see awaitUnpinned.
	pinHolders int

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
// When Release returns, no thread is pinned on the lease's behalf: a pinned
// lease waits for its workers to restore their affinity masks, a lease that
// was never pinned (or is already unpinned) returns without waiting.
// Release is idempotent; the lease must not be used afterwards.
func (l *Lease) Release() {
	p := l.pool
	p.mu.Lock()
	if l.released {
		p.mu.Unlock()
		return
	}
	l.released = true
	l.pinned = false
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
	// their assignment and rejoin the global scheduling loop (unpinning on
	// the way out).
	l.cond.Broadcast()
	l.awaitUnpinned()
	p.mu.Unlock()
	l.unpinSelf()
}

// awaitUnpinned blocks, with pool.mu held, until every worker that pinned
// its thread for this lease has restored its mask. The caller has already
// withdrawn the pin (or the workers) and broadcast; each holder acknowledges
// through Pool.unpinWorker. A lease with no pinned worker does not wait.
func (l *Lease) awaitUnpinned() {
	for l.pinHolders > 0 {
		l.cond.Wait()
	}
}

// Pin restricts the lease's execution to the given CPUs: the calling
// goroutine (the holder participates in every lease loop as worker 0) is
// pinned immediately via LockOSThread + sched_setaffinity, and the lease's
// pool workers pin themselves before joining their next loop. Pinning is
// best-effort — on platforms without affinity support, with an empty CPU
// list, or when the CPUs all fall outside a thread's allowed set (cgroup
// cpuset), threads stay unpinned. The pool's Pins/Unpins counters record
// what was actually applied. Re-pinning with a different CPU list is
// allowed; Unpin or Release restores original masks.
func (l *Lease) Pin(cpus []int) {
	if !affinityOS || len(cpus) == 0 {
		return
	}
	mask := MaskOf(cpus)
	p := l.pool
	p.mu.Lock()
	if l.released || p.closed || p.stopped {
		p.mu.Unlock()
		return
	}
	l.pinned = true
	l.pinMask = mask
	l.pinSeq.Add(1)
	// Parked workers must wake to apply the new mask before their next loop.
	l.cond.Broadcast()
	p.mu.Unlock()
	l.pinSelf(&mask)
}

// Unpin restores the original thread affinity of the holder and of every
// lease worker, and returns once they all have. No-op when the lease is not
// pinned.
func (l *Lease) Unpin() {
	if !affinityOS {
		return
	}
	p := l.pool
	p.mu.Lock()
	if l.pinned {
		l.pinned = false
		l.pinSeq.Add(1)
		l.cond.Broadcast()
		l.awaitUnpinned()
	}
	p.mu.Unlock()
	l.unpinSelf()
}

// pinSelf pins the holder goroutine's thread. Holder-only state.
func (l *Lease) pinSelf(mask *CPUSet) {
	pin, unpin := l.selfPin.pin(mask)
	if pin {
		l.pool.cPins.Add(1)
	}
	if unpin {
		l.pool.cUnpins.Add(1)
	}
}

// unpinSelf restores the holder goroutine's thread affinity.
func (l *Lease) unpinSelf() {
	if l.selfPin.unpin() {
		l.pool.cUnpins.Add(1)
	}
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
		Pins:      p.cPins.Load(),
		Unpins:    p.cUnpins.Load(),
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
// condition variable until a new loop arrives, the lease's pin state changes
// (pinSeq is the state the worker has applied; a mismatch sends it back to
// the scheduling loop to re-sync), the lease is released, or the pool stops.
// It returns true when the worker should exit (pool stopped).
func (p *Pool) runLeased(worker int, l *Lease, lastSeq *uint64, pinSeq uint32) bool {
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
	for p.wleases[worker].Load() == l && !p.stopped && l.pinSeq.Load() == pinSeq &&
		!(l.loop != nil && l.loopSeq.Load() != *lastSeq) {
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
