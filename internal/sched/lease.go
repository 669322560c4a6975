package sched

import "sync"

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
	// The lease's own gang-loop slot, descriptor, counters and condition
	// variable (on the pool's mutex): the same protocol the pool's unleased
	// workers serve, scoped to the lease's.
	gang
	workers []int // pool worker indexes assigned to this lease (guarded by pool.mu)
}

// Lease carves up to n-1 currently unleased workers out of the pool (the
// caller participates in every loop, so the lease executes on up to n
// goroutines). Fewer workers — possibly zero — are granted when the pool is
// smaller, closed, or already leased out; Workers reports what was granted.
// Release must be called to return the workers.
func (p *Pool) Lease(n int) *Lease {
	l := &Lease{gang: gang{pool: p, cond: sync.NewCond(&p.mu)}}
	if n <= 1 {
		return l
	}
	p.mu.Lock()
	if p.closed {
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
	// their assignment and move to the pool's gang.
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

// ParallelForWorker is sched.ParallelForWorker executed on the lease's
// workers instead of the global pool: body(worker, lo, hi) over chunks of
// [begin, end), worker dense in [0, participants). p bounds the participants
// below the lease's width (p <= 0 uses the full lease).
func (l *Lease) ParallelForWorker(begin, end, chunk, p int, body func(worker, lo, hi int)) {
	l.parallelFor(begin, end, chunk, l.width(p), body, nil)
}

// ParallelForChunked is sched.ParallelForChunked on the lease's workers.
func (l *Lease) ParallelForChunked(begin, end, chunk, p int, body func(lo, hi int)) {
	l.parallelFor(begin, end, chunk, l.width(p), nil, body)
}

// width is the participant count of a loop asking for p: the lease's
// granted workers plus the caller, or fewer when 0 < p is smaller.
func (l *Lease) width(p int) int {
	w := len(l.workers) + 1
	if p > 0 && p < w {
		return p
	}
	return w
}
