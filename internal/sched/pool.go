package sched

import (
	"math/rand"
	"sync"
	"sync/atomic"
)

// Task is a unit of work executed by a Pool worker. The worker index is
// passed so tasks can use per-worker scratch state without locking.
type Task func(worker int)

// Pool is a work-stealing thread pool: each worker owns a deque of tasks,
// pushes locally produced work onto its own deque, and steals from a random
// victim when its deque is empty. It is the direct substitute for the Cilk
// runtime's scheduler used by the paper.
//
// The pool is intended for irregular, nested work (e.g. recursive radix-sort
// buckets, frontier expansion with per-vertex fan-out); for flat loops the
// chunked parallel-for helpers in this package are cheaper.
type Pool struct {
	workers int
	deques  []*deque
	wg      sync.WaitGroup

	mu      sync.Mutex
	pending int  // submitted but not yet finished tasks
	queued  int  // submitted but not yet dequeued tasks
	closed  bool // Close has been called; no further Submits allowed
	stopped bool // workers should exit once the deques drain

	// Gang-scheduled parallel loops over the unleased workers (tryLoop). Its
	// cond is also where Wait and workers with nothing to do block.
	gang

	// Worker leasing (see Lease). wleases[w] is the lease worker w is
	// currently dedicated to (nil = serves the global pool); an atomic
	// pointer so the worker's scheduling loop checks its assignment without
	// taking mu. leases tracks the active leases so Close can wake their
	// parked workers.
	wleases []atomic.Pointer[Lease]
	leases  []*Lease

	// Lifetime observability counters (see Counters; the gang counts its own
	// loops and joins). Atomics rather than mu-guarded ints so the
	// park/unpark accounting never extends a critical section; callers diff
	// them around a run.
	cParks   atomic.Int64
	cUnparks atomic.Int64
}

// PoolCounters is a point-in-time snapshot of a pool's lifetime scheduling
// counters. Counters only increase; diff two snapshots (Sub) to attribute
// activity to one run.
type PoolCounters struct {
	// GangLoops is the number of gang-scheduled parallel loops installed.
	GangLoops int64
	// GangJoins is the number of times a pool worker joined a gang loop
	// (the installing caller is not counted).
	GangJoins int64
	// Parks counts worker park episodes (a worker found no work anywhere,
	// polled for the next gang loop in vain and blocked); Unparks counts the
	// wake-ups that ended them. Unparks can lag Parks by up to Workers()
	// while workers are currently parked.
	Parks   int64
	Unparks int64
}

// Sub returns the counter-wise difference c - o.
func (c PoolCounters) Sub(o PoolCounters) PoolCounters {
	return PoolCounters{
		GangLoops: c.GangLoops - o.GangLoops,
		GangJoins: c.GangJoins - o.GangJoins,
		Parks:     c.Parks - o.Parks,
		Unparks:   c.Unparks - o.Unparks,
	}
}

// Counters returns a snapshot of the pool's lifetime scheduling counters.
func (p *Pool) Counters() PoolCounters {
	return PoolCounters{
		GangLoops: p.cGangLoops.Load(),
		GangJoins: p.cGangJoins.Load(),
		Parks:     p.cParks.Load(),
		Unparks:   p.cUnparks.Load(),
	}
}

// NewPool creates a pool with p workers (p<=0 selects MaxWorkers) and starts
// them. Close must be called to release the workers.
func NewPool(p int) *Pool {
	p = normWorkers(p)
	pool := &Pool{
		workers: p,
		deques:  make([]*deque, p),
		wleases: make([]atomic.Pointer[Lease], p),
	}
	pool.gang = gang{pool: pool, cond: sync.NewCond(&pool.mu)}
	for i := range pool.deques {
		pool.deques[i] = newDeque()
	}
	pool.wg.Add(p)
	for i := 0; i < p; i++ {
		go pool.run(i)
	}
	return pool
}

// Workers returns the number of workers in the pool.
func (p *Pool) Workers() int { return p.workers }

// Submit enqueues a task on the deque of a pseudo-randomly chosen worker.
func (p *Pool) Submit(t Task) {
	p.SubmitTo(rand.Intn(p.workers), t)
}

// SubmitTo enqueues a task on a specific worker's deque. Worker indexes wrap
// around, so callers may pass any non-negative integer (e.g. a partition id)
// to obtain a stable assignment.
func (p *Pool) SubmitTo(worker int, t Task) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		panic("sched: Submit on closed Pool")
	}
	p.pending++
	p.queued++
	p.mu.Unlock()
	p.deques[worker%p.workers].push(t)
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Wait blocks until every submitted task has finished.
func (p *Pool) Wait() {
	p.mu.Lock()
	for p.pending > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// Close waits for queued tasks to finish and then shuts the workers down.
// The pool must not be used after Close. Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.mu.Unlock()

	p.Wait()

	p.mu.Lock()
	p.stopped = true
	p.cond.Broadcast()
	// Leased workers park on their lease's condition variable, not the
	// pool's; wake them too so they observe the stop.
	for _, l := range p.leases {
		l.cond.Broadcast()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *Pool) run(worker int) {
	defer p.wg.Done()
	self := p.deques[worker]
	var lastLoop uint64 // loopSeq of the last gang loop this worker saw
	var lastLease *Lease
	var lastLeaseSeq uint64 // loopSeq of the last lease loop this worker saw
	for {
		// A leased worker serves only its lease: it joins the lease's gang
		// loops and parks on the lease's condition variable, so two leased
		// runs (or a leased run and the global pool) never contend for the
		// same workers.
		if l := p.wleases[worker].Load(); l != nil {
			if l != lastLease {
				lastLease, lastLeaseSeq = l, 0
			}
			if !l.serve(&lastLeaseSeq) && p.parkLeased(worker, l, lastLeaseSeq) {
				return
			}
			continue
		}
		lastLease = nil

		// Gang loops take priority over queued tasks: they are
		// latency-sensitive (the caller is blocked on completion). The
		// sequence check is an uncontended atomic load so the task fast
		// path pays no extra mutex acquisition.
		if p.serve(&lastLoop) {
			continue
		}

		t, ok := self.pop()
		if !ok {
			t, ok = p.steal(worker)
		}
		if ok {
			p.mu.Lock()
			p.queued--
			p.mu.Unlock()
			t(worker)
			p.mu.Lock()
			p.pending--
			if p.pending == 0 {
				p.cond.Broadcast()
			}
			p.mu.Unlock()
			continue
		}
		// No work anywhere: park until a task is queued, a gang loop this
		// worker has not seen arrives, or shutdown.
		p.mu.Lock()
		parked := false
		for p.queued == 0 && !p.stopped && p.wleases[worker].Load() == nil &&
			!p.unseenLoop(lastLoop) {
			if !parked {
				parked = true
				p.cParks.Add(1)
			}
			p.cond.Wait()
		}
		if parked {
			p.cUnparks.Add(1)
		}
		if p.stopped && p.queued == 0 {
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
	}
}

// steal attempts to take a task from another worker, scanning all other
// workers once starting from a random victim.
func (p *Pool) steal(self int) (Task, bool) {
	if p.workers == 1 {
		return nil, false
	}
	start := rand.Intn(p.workers)
	for i := 0; i < p.workers; i++ {
		v := (start + i) % p.workers
		if v == self {
			continue
		}
		if t, ok := p.deques[v].steal(); ok {
			return t, true
		}
	}
	return nil, false
}

// deque is a mutex-protected double-ended queue of tasks. The owner pushes
// and pops at the back (LIFO, good locality for nested work); thieves steal
// from the front (FIFO, takes the oldest, typically largest, subproblems).
// A mutex per deque is sufficient here: contention is limited to steals,
// which are rare when chunking is adequate.
type deque struct {
	mu    sync.Mutex
	tasks []Task
}

func newDeque() *deque { return &deque{} }

func (d *deque) push(t Task) {
	d.mu.Lock()
	d.tasks = append(d.tasks, t)
	d.mu.Unlock()
}

func (d *deque) pop() (Task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.tasks)
	if n == 0 {
		return nil, false
	}
	t := d.tasks[n-1]
	d.tasks[n-1] = nil
	d.tasks = d.tasks[:n-1]
	return t, true
}

func (d *deque) steal() (Task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.tasks) == 0 {
		return nil, false
	}
	t := d.tasks[0]
	d.tasks[0] = nil
	d.tasks = d.tasks[1:]
	return t, true
}

// len reports the number of queued tasks (used by tests).
func (d *deque) len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.tasks)
}
