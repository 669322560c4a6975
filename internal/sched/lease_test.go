package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

// TestLeaseEmptyRangeRunsNothing: a lease's loops enter through the same
// code as the default pool's, so an empty or inverted range runs no body and
// a range of one chunk runs inline on the caller as worker 0, installing no
// gang loop.
func TestLeaseEmptyRangeRunsNothing(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	l := p.Lease(3)
	defer l.Release()

	ran := false
	l.ParallelForWorker(5, 5, 1, 0, func(int, int, int) { ran = true })
	l.ParallelForChunked(9, 3, 1, 0, func(int, int) { ran = true })
	if ran {
		t.Fatal("an empty range executed the body")
	}
	before := l.Counters()
	calls := 0
	l.ParallelForWorker(0, 10, 64, 0, func(worker, lo, hi int) {
		calls++
		if worker != 0 || lo != 0 || hi != 10 {
			t.Errorf("one-chunk loop ran body(%d, %d, %d), want body(0, 0, 10)", worker, lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("one-chunk loop ran the body %d times, want 1", calls)
	}
	if d := l.Counters().Sub(before); d.GangLoops != 0 {
		t.Fatalf("one-chunk loop installed %d gang loops, want 0", d.GangLoops)
	}
}

// TestLeaseLoopWidthIsBoundedByLease: a leased loop runs on at most
// min(p, lease width) participants, p <= 0 asking for the whole lease, so
// its worker ids stay below that bound however large p is.
func TestLeaseLoopWidthIsBoundedByLease(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	l := p.Lease(3)
	defer l.Release()
	if got := l.Workers(); got != 3 {
		t.Fatalf("Workers() = %d, want 3", got)
	}
	for _, c := range []struct{ p, bound int }{{0, 3}, {8, 3}, {3, 3}, {2, 2}, {1, 1}} {
		var total atomic.Int64
		l.ParallelForWorker(0, 1<<14, 16, c.p, func(worker, lo, hi int) {
			if worker < 0 || worker >= c.bound {
				t.Errorf("p=%d: worker id %d outside [0, %d)", c.p, worker, c.bound)
			}
			total.Add(int64(hi - lo))
		})
		if got := total.Load(); got != 1<<14 {
			t.Fatalf("p=%d: covered %d elements, want %d", c.p, got, 1<<14)
		}
	}
}

// TestReleasedWorkersServeThePoolAgain: a worker serves exactly one gang.
// While a lease holds every worker, the pool's own loops get no joins; once
// the lease is released, its workers join the pool's loops again.
func TestReleasedWorkersServeThePoolAgain(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	l := p.Lease(3)
	if got := l.Workers(); got != 3 {
		t.Fatalf("Workers() = %d, want 3 (the whole pool + caller)", got)
	}
	before := p.Counters()
	for i := 0; i < 20; i++ {
		p.parallelFor(0, 1<<12, 16, 3, nil, func(lo, hi int) {})
	}
	if d := p.Counters().Sub(before); d.GangJoins != 0 {
		t.Fatalf("pool loops got %d joins while a lease held every worker, want 0", d.GangJoins)
	}
	l.Release()

	// Three one-element chunks, each held until three participants are in
	// the loop: the caller alone would wait out the deadline at every chunk
	// and leave worker ids 1 and 2 unseen.
	var arrived atomic.Int32
	var seen [3]atomic.Bool
	p.parallelFor(0, 3, 1, 3, func(worker, lo, hi int) {
		seen[worker].Store(true)
		arrived.Add(1)
		for deadline := time.Now().Add(10 * time.Second); arrived.Load() < 3 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}, nil)
	for w := range seen {
		if !seen[w].Load() {
			t.Fatalf("worker id %d never ran a chunk: the released workers did not rejoin the pool's gang", w)
		}
	}
}
