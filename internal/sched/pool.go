package sched

import (
	"sync"
	"sync/atomic"
)

// Pool is a set of persistent workers that run gang-scheduled parallel
// loops. Each worker serves exactly one gang at a time: the pool's own, or
// the gang of the Lease it is carved out to.
type Pool struct {
	workers int
	wg      sync.WaitGroup

	mu     sync.Mutex
	closed bool // Close has been called: workers exit, leases are serial

	// The gang every unleased worker serves (tryLoop).
	gang

	// Worker leasing (see Lease). wleases[w] is the lease worker w is
	// currently dedicated to (nil = serves the pool's gang); an atomic
	// pointer so the worker checks its assignment without taking mu. leases
	// tracks the active leases so Close can wake their parked workers.
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
	// Parks counts worker park episodes (a worker found no loop on its
	// gang, polled for the next one in vain and blocked); Unparks counts the
	// wake-ups that ended them. Unparks can lag Parks by up to the pool's
	// worker count while workers are currently parked.
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
	pool := &Pool{workers: p, wleases: make([]atomic.Pointer[Lease], p)}
	pool.gang = gang{pool: pool, cond: sync.NewCond(&pool.mu)}
	pool.wg.Add(p)
	for i := 0; i < p; i++ {
		go pool.run(i)
	}
	return pool
}

// Close shuts the workers down and waits for them to exit. Loops issued on
// the pool afterwards run on spawned goroutines, and leases granted
// afterwards are serial. Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	// Leased workers park on their lease's condition variable, not the
	// pool's; wake them too so they observe the close.
	for _, l := range p.leases {
		l.cond.Broadcast()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// gangOf returns the gang worker w serves: its lease's, or the pool's.
func (p *Pool) gangOf(w int) *gang {
	if l := p.wleases[w].Load(); l != nil {
		return &l.gang
	}
	return &p.gang
}

// run is worker w's loop: it serves its gang's loops and parks on the gang
// between them. Lease and Release wake a worker they move, which then
// starts over on its new gang.
func (p *Pool) run(w int) {
	defer p.wg.Done()
	var g *gang
	var last uint64 // loopSeq of the last loop w saw on g
	for {
		if cur := p.gangOf(w); cur != g {
			g, last = cur, 0
		}
		if !g.serve(&last) && p.park(w, g, last) {
			return
		}
	}
}

// park blocks worker w on gang g's condition variable until g has a loop w
// has not seen (last is the sequence w saw last), w is moved to another
// gang, or the pool closes. It reports whether the pool closed.
func (p *Pool) park(w int, g *gang, last uint64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	parked := false
	for !p.closed && p.gangOf(w) == g && !g.unseenLoop(last) {
		if !parked {
			parked = true
			p.cParks.Add(1)
		}
		g.cond.Wait()
	}
	if parked {
		p.cUnparks.Add(1)
	}
	return p.closed
}
