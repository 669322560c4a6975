package sched

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// The tests in this file exercise the spin-then-park barrier both gangs
// share (the pool's and a lease's): loops that follow each other faster than
// a worker can park, workers that park once the loops stop, and shutting
// down while workers are still polling. Run with -race: the per-index
// counters below are unsynchronized, so a chunk that runs twice, or a worker
// that touches a descriptor after its loop was drained, is a reported race.

// settle waits for the goroutine count to come back down to want (an exiting
// goroutine is still counted for a moment after its WaitGroup.Done).
func settle(t *testing.T, want int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > want; i++ {
		if i == 500 {
			t.Fatalf("%d goroutines alive, want %d: a worker leaked", runtime.NumGoroutine(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestGangBackToBackTinyLoops(t *testing.T) {
	loops := 10000
	if testing.Short() {
		loops = 1000
	}
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			before := runtime.NumGoroutine()
			p := NewPool(3)
			l := p.Lease(2) // the lease holds one worker, the pool keeps two

			var hits [2][16]int
			drive := func(which int, loop func(body func(lo, hi int))) {
				h := &hits[which]
				body := func(lo, hi int) {
					for i := lo; i < hi; i++ {
						h[i]++
					}
					// Without a yield a 16-chunk loop is over before any
					// worker gets to it, even at GOMAXPROCS 1.
					runtime.Gosched()
				}
				for n := 1; n <= loops; n++ {
					loop(body)
					for i, v := range h {
						if v != n {
							t.Errorf("gang %d, loop %d: index %d visited %d times", which, n, i, v)
							return
						}
					}
				}
			}
			// Both gangs at once, as two concurrent engine runs would.
			leased := make(chan struct{})
			go func() {
				defer close(leased)
				drive(1, func(body func(lo, hi int)) { l.ParallelForChunked(0, 16, 1, 0, body) })
			}()
			drive(0, func(body func(lo, hi int)) {
				if !p.tryLoop(0, 16, 1, 3, nil, body) {
					t.Error("tryLoop refused on an idle pool")
				}
			})
			<-leased
			if c, lc := p.Counters(), l.Counters(); c.GangLoops != int64(loops) || lc.GangLoops != int64(loops) {
				t.Fatalf("GangLoops = %d (pool), %d (lease), want %d each", c.GangLoops, lc.GangLoops, loops)
			} else if !testing.Short() && (c.GangJoins < int64(loops)/10 || lc.GangJoins < int64(loops)/10) {
				// Joins measure how fast workers come back, not whether the
				// barrier is right: the repeated -short runs share the host
				// with other tests and leave it to BenchmarkSSSPRoad512.
				t.Errorf("GangJoins = %d (pool), %d (lease) over %d loops: workers are not keeping up", c.GangJoins, lc.GangJoins, loops)
			}

			// Left idle, every worker runs out its polling budget and parks.
			for i := 0; ; i++ {
				c := p.Counters()
				if c.Parks-c.Unparks == 3 {
					break
				}
				if i == 1000 {
					t.Fatalf("idle pool: %d parks, %d unparks, want all 3 workers parked", c.Parks, c.Unparks)
				}
				time.Sleep(time.Millisecond)
			}
			l.Release()
			p.Close()
			if c := p.Counters(); c.Parks == 0 || c.Parks != c.Unparks {
				t.Fatalf("Parks = %d, Unparks = %d; episodes must balance after Close", c.Parks, c.Unparks)
			}
			settle(t, before)
		})
	}
}

// TestGangShutdownWhilePolling closes a pool and releases a lease right
// after a loop, when their workers are inside the polling phase: neither may
// hang, a released lease's workers must be grantable again at once, and no
// worker goroutine may outlive Close.
func TestGangShutdownWhilePolling(t *testing.T) {
	before := runtime.NumGoroutine()
	done := make(chan struct{})
	go func() {
		defer close(done)
		body := func(lo, hi int) {}
		for round := 0; round < 200; round++ {
			p := NewPool(3)
			l := p.Lease(3)
			l.ParallelForChunked(0, 64, 1, 0, body)
			l.Release() // its two workers are polling for the lease's next loop
			l = p.Lease(4)
			if got := l.Workers(); got != 4 {
				t.Errorf("round %d: released workers not returned: Workers() = %d, want 4", round, got)
			}
			if round%2 == 0 {
				l.ParallelForChunked(0, 64, 1, 0, body)
			} else {
				l.Release()
				p.tryLoop(0, 64, 1, 4, nil, body)
			}
			p.Close() // workers polling on the live lease, or on the pool
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close or Release hung while workers were polling")
	}
	settle(t, before)
}
