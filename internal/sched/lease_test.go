package sched

import (
	"sync"
	"sync/atomic"
	"testing"
)

// The tests in this file exercise pool leases: carving workers out of a
// pool, running gang loops on disjoint subsets concurrently, degenerate
// zero-worker leases, and release/reuse. Run with -race: worker-id
// uniqueness inside a lease is checked with unsynchronized per-worker
// state, exactly like the pooled tests.

func TestLeaseGrantWorkersAndRelease(t *testing.T) {
	p := NewPool(4)
	defer p.Close()

	a := p.Lease(3)
	if got := a.Workers(); got != 3 {
		t.Fatalf("first lease Workers() = %d, want 3 (2 granted + caller)", got)
	}
	// 2 of 4 pool workers are taken; asking for more than the remainder
	// grants only what is left.
	b := p.Lease(8)
	if got := b.Workers(); got != 3 {
		t.Fatalf("second lease Workers() = %d, want 3 (remaining 2 + caller)", got)
	}
	a.Release()
	a.Release() // idempotent
	c := p.Lease(3)
	if got := c.Workers(); got != 3 {
		t.Fatalf("lease after release Workers() = %d, want 3", got)
	}
	c.Release()
	b.Release()
}

// TestLeaseChurnReturnsEveryWorker: Release hands back every worker each
// time, so a pool that is leased, driven and released round after round
// grants the full width every round — a worker passed from a released lease
// straight to the next one serves only the new lease's loops — and every
// chunk of every loop runs exactly once.
func TestLeaseChurnReturnsEveryWorker(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var hits [64]int32
	for round := 0; round < 50; round++ {
		l := p.Lease(4)
		if got := l.Workers(); got != 4 {
			t.Fatalf("round %d: Workers() = %d, want 4 (3 granted + caller)", round, got)
		}
		for i := range hits {
			hits[i] = 0
		}
		l.ParallelForWorker(0, len(hits), 1, 4, func(worker, lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i]++ // chunks are disjoint: racy iff one runs twice
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("round %d: chunk %d executed %d times", round, i, h)
			}
		}
		l.Release()
	}
}

func TestLeaseZeroWorkersRunsSerially(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	a := p.Lease(3) // takes the whole pool
	defer a.Release()

	z := p.Lease(4) // nothing left to grant
	defer z.Release()
	if got := z.Workers(); got != 1 {
		t.Fatalf("oversubscribed lease Workers() = %d, want 1 (caller only)", got)
	}
	var total int64
	z.ParallelForWorker(0, 1000, 64, 0, func(worker, lo, hi int) {
		if worker != 0 {
			t.Errorf("serial lease used worker id %d", worker)
		}
		total += int64(hi - lo) // single participant: no synchronization needed
	})
	if total != 1000 {
		t.Fatalf("covered %d elements, want 1000", total)
	}
}

func TestLeaseWorkerIdsAreUniqueWithinLease(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	l := p.Lease(4)
	defer l.Release()

	const n = 1 << 16
	width := l.Workers()
	perWorker := make([]int64, width)
	for round := 0; round < 50; round++ {
		for i := range perWorker {
			perWorker[i] = 0
		}
		l.ParallelForWorker(0, n, 256, 0, func(worker, lo, hi int) {
			perWorker[worker] += int64(hi - lo) // racy iff worker ids collide
		})
		var total int64
		for _, v := range perWorker {
			total += v
		}
		if total != n {
			t.Fatalf("round %d: covered %d elements, want %d", round, total, n)
		}
	}
}

func TestConcurrentLeasesRunDisjointLoops(t *testing.T) {
	p := NewPool(4)
	defer p.Close()

	// Two leases split the pool; each holder issues many gang loops from its
	// own goroutine. The loops must all cover their ranges and the leases'
	// workers must never mix (worker ids stay dense per lease).
	a := p.Lease(2)
	b := p.Lease(2)
	var wg sync.WaitGroup
	run := func(l *Lease) {
		defer wg.Done()
		defer l.Release()
		width := l.Workers()
		for round := 0; round < 100; round++ {
			var total int64
			l.ParallelForWorker(0, 10000, 64, 0, func(worker, lo, hi int) {
				if worker >= width {
					t.Errorf("worker id %d out of range [0,%d)", worker, width)
				}
				atomic.AddInt64(&total, int64(hi-lo))
			})
			if got := atomic.LoadInt64(&total); got != 10000 {
				t.Errorf("round %d: covered %d elements, want 10000", round, got)
				return
			}
		}
	}
	wg.Add(2)
	go run(a)
	go run(b)
	wg.Wait()
}

func TestLeaseAndGlobalLoopsCoexist(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	l := p.Lease(2)
	defer l.Release()

	// A leased run and global-pool loops (on the package default pool, which
	// is what the engine's unleased paths use) proceeding concurrently.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for round := 0; round < 50; round++ {
			var total int64
			l.ParallelForChunked(0, 8192, 64, 0, func(lo, hi int) {
				atomic.AddInt64(&total, int64(hi-lo))
			})
			if got := atomic.LoadInt64(&total); got != 8192 {
				t.Errorf("lease round %d: covered %d, want 8192", round, got)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for round := 0; round < 50; round++ {
			var total int64
			ParallelForChunked(0, 8192, 64, 4, func(lo, hi int) {
				atomic.AddInt64(&total, int64(hi-lo))
			})
			if got := atomic.LoadInt64(&total); got != 8192 {
				t.Errorf("global round %d: covered %d, want 8192", round, got)
				return
			}
		}
	}()
	wg.Wait()
}

func TestLeaseCounters(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	l := p.Lease(4)
	defer l.Release()

	before := l.Counters()
	for i := 0; i < 10; i++ {
		l.ParallelForWorker(0, 1<<16, 64, 0, func(worker, lo, hi int) {})
	}
	d := l.Counters().Sub(before)
	if d.GangLoops != 10 {
		t.Fatalf("GangLoops = %d, want 10", d.GangLoops)
	}
	if d.GangJoins < 0 {
		t.Fatalf("GangJoins = %d, want >= 0", d.GangJoins)
	}
}

func TestLeaseOnClosedPoolIsSerial(t *testing.T) {
	p := NewPool(2)
	p.Close()
	l := p.Lease(4)
	if got := l.Workers(); got != 1 {
		t.Fatalf("lease on closed pool Workers() = %d, want 1", got)
	}
	var total int64
	l.ParallelForWorker(0, 1000, 16, 0, func(worker, lo, hi int) {
		atomic.AddInt64(&total, int64(hi-lo))
	})
	if total != 1000 {
		t.Fatalf("covered %d elements, want 1000", total)
	}
	l.Release()
}
