package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// loopDesc describes one gang-scheduled parallel loop executed by the
// caller plus pool workers. Chunks are claimed with an atomic counter,
// exactly like the chunked parallel-for helpers, so the work distribution
// behaviour (and therefore the set of executed chunks) is identical to the
// goroutine-spawning path. Exactly one of bodyW/body is non-nil.
type loopDesc struct {
	bodyW             func(worker, lo, hi int)
	body              func(lo, hi int)
	begin, end, chunk int
	numChunks         int64
	next              atomic.Int64
	limit             int          // max participants, including the caller
	joined            int          // participants so far (incl. caller); guarded by Pool.mu
	running           atomic.Int32 // pool workers still executing; written under Pool.mu
	waiting           bool         // the caller is blocked on the cond; guarded by Pool.mu
}

// run claims and executes chunks until the loop's counter is exhausted.
// worker is this participant's dense id in [0, limit).
func (d *loopDesc) run(worker int) {
	for {
		c := d.next.Add(1) - 1
		if c >= d.numChunks {
			return
		}
		lo := d.begin + int(c)*d.chunk
		hi := min(lo+d.chunk, d.end)
		if d.bodyW != nil {
			d.bodyW(worker, lo, hi)
		} else {
			d.body(lo, hi)
		}
	}
}

// gang is the install → run → drain protocol of a gang-scheduled loop,
// written once and embedded by Pool (every unleased worker serves it) and by
// Lease (its carved-out workers do). One loop is in flight per gang;
// loopSeq distinguishes successive loops so a worker joins each at most once
// (atomic so workers check it without taking the mutex); loopD is the single
// reusable descriptor, so steady-state loops allocate nothing.
//
// Both ends of the barrier are spin-then-park. A worker that has just left a
// loop polls loopSeq for pollBudget before it parks, so back-to-back loops —
// an engine's iterations — find it already running instead of paying a futex
// wake each, and the caller polls the running count for as long before it
// blocks on the cond. Everything except the atomics is guarded by pool.mu.
type gang struct {
	pool     *Pool
	cond     *sync.Cond // on pool.mu: the gang's workers park here, its caller waits here
	released bool       // a released lease takes no more loops

	loop    *loopDesc
	loopSeq atomic.Uint64
	loopD   loopDesc
	polling atomic.Int32 // workers in their polling phase: they need no wake-up

	cGangLoops atomic.Int64
	cGangJoins atomic.Int64
}

// pollBudget bounds each polling phase. A park costs a loop about 55 µs on
// the 2-CPU reference host (the caller's futex wake, its working alone until
// the woken worker arrives, then waiting for that late joiner at the
// barrier), and an engine's sparse iterations issue their loops 20-50 µs
// apart: two parks' worth of polling catches over 99% of them.
const pollBudget = 100 * time.Microsecond

// poll spins until done reports true or pollBudget runs out. It yields
// between probes so goroutines queued behind a poller on an oversubscribed
// host still run, and it does not spin at all with a single P, where what it
// waits for could only happen once it stops.
func poll(done func() bool) {
	if runtime.GOMAXPROCS(0) == 1 {
		return
	}
	for start := time.Now(); !done() && time.Since(start) < pollBudget; {
		runtime.Gosched()
	}
}

// tryLoop runs one chunked parallel loop on the gang's workers, with the
// calling goroutine participating as worker 0. It returns false — without
// running anything — if the gang cannot take the loop right now (another
// loop is in flight, the lease is released, or the pool is closed); the
// caller then falls back to the goroutine-spawning path. This keeps nested
// parallel-for calls deadlock-free: a loop body that itself calls
// ParallelFor simply spawns.
//
// Workers that are polling or parked when the loop is installed join it;
// workers that arrive after it has completed never touch it. Completion
// requires only that every chunk has been claimed and every joined
// participant has finished, so a loop never waits for a worker that is busy
// with an unrelated task.
func (g *gang) tryLoop(begin, end, chunk, limit int, bodyW func(worker, lo, hi int), body func(lo, hi int)) bool {
	p := g.pool
	numChunks := int64((end - begin + chunk - 1) / chunk)
	if int64(limit) > numChunks {
		limit = int(numChunks)
	}
	p.mu.Lock()
	if g.loop != nil || g.released || p.closed || p.stopped {
		p.mu.Unlock()
		return false
	}
	d := &g.loopD
	d.bodyW, d.body = bodyW, body
	d.begin, d.end, d.chunk = begin, end, chunk
	d.numChunks = numChunks
	d.next.Store(0)
	d.limit = limit
	d.joined = 1 // the caller
	g.loop = d
	g.cGangLoops.Add(1)
	// Wake only as many parked workers as can join and are not already
	// polling for this loop: broadcasting for a 2-worker loop on a large
	// pool would stampede every parked worker through the mutex just to find
	// joined >= limit. A poller whose budget runs out now re-checks for a
	// pending loop under the mutex before it parks, so counting it is safe.
	// A Signal consumed by a non-worker waiter (Pool.Wait during a Submit
	// workload) merely costs the loop one participant — completion never
	// depends on any particular worker.
	for n := limit - 1 - int(g.polling.Load()); n > 0; n-- {
		g.cond.Signal()
	}
	g.loopSeq.Add(1) // last: a poller that sees it goes straight for the mutex
	p.mu.Unlock()

	d.run(0)

	poll(func() bool { return d.running.Load() == 0 })
	p.mu.Lock()
	for d.running.Load() > 0 { // still running, or joined after the poll
		d.waiting = true
		g.cond.Wait()
	}
	d.waiting = false
	g.loop = nil
	d.bodyW, d.body = nil, nil
	p.mu.Unlock()
	return true
}

// unseenLoop reports whether a loop is in flight that a worker whose last
// seen sequence is last has not looked at yet. Called with pool.mu held: it
// is the part of a worker's park condition that tryLoop's Signal changes.
func (g *gang) unseenLoop(last uint64) bool {
	return g.loop != nil && g.loopSeq.Load() != last
}

// serve is a worker's visit to the gang: if a loop was installed since the
// worker last looked (*last), it joins it when there is room, runs its share
// of the chunks, and then polls for the next loop before the caller lets it
// park. It reports whether anything new was seen — the worker then goes
// round its scheduling loop again instead of parking.
func (g *gang) serve(last *uint64) bool {
	if g.loopSeq.Load() == *last {
		return false
	}
	p := g.pool
	p.mu.Lock()
	*last = g.loopSeq.Load()
	if d := g.loop; d != nil {
		if d.joined >= d.limit {
			// Full: this worker is surplus to the loops being issued.
			p.mu.Unlock()
			return true
		}
		id := d.joined
		d.joined++
		d.running.Add(1)
		g.cGangJoins.Add(1)
		p.mu.Unlock()
		d.run(id)
		p.mu.Lock()
		if d.running.Add(-1) == 0 && d.waiting {
			g.cond.Broadcast()
		}
	}
	p.mu.Unlock()
	// Whether it ran or arrived late, loops are being issued right now.
	seen := *last
	g.polling.Add(1)
	poll(func() bool { return g.loopSeq.Load() != seen })
	g.polling.Add(-1)
	return true
}
