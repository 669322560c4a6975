package sched

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolCountersGangLoops(t *testing.T) {
	p := NewPool(4)
	defer p.Close()

	before := p.Counters()
	var total atomic.Int64
	for l := 0; l < 3; l++ {
		ok := p.tryLoop(0, 4096, 64, 4, nil, func(lo, hi int) {
			total.Add(int64(hi - lo))
		})
		if !ok {
			t.Fatalf("tryLoop %d refused on an idle pool", l)
		}
	}
	if got := total.Load(); got != 3*4096 {
		t.Fatalf("loops covered %d indices, want %d", got, 3*4096)
	}
	diff := p.Counters().Sub(before)
	if diff.GangLoops != 3 {
		t.Fatalf("GangLoops diff = %d, want 3", diff.GangLoops)
	}
	if diff.GangJoins < 0 || diff.GangJoins > 3*3 {
		// At most limit-1 pool workers join each of the 3 loops.
		t.Fatalf("GangJoins diff = %d out of range", diff.GangJoins)
	}
}

func TestPoolCountersParkUnparkBalance(t *testing.T) {
	p := NewPool(2)
	if !p.tryLoop(0, 64, 1, 3, nil, func(lo, hi int) {}) {
		t.Fatal("tryLoop refused on an idle pool")
	}

	// Give workers a moment to drain and park again, then close: every park
	// episode must be ended by an unpark (Close wakes everyone).
	time.Sleep(10 * time.Millisecond)
	p.Close()
	c := p.Counters()
	if c.Parks == 0 {
		t.Fatal("workers never parked")
	}
	if c.Unparks != c.Parks {
		t.Fatalf("Parks = %d, Unparks = %d; episodes must balance after Close", c.Parks, c.Unparks)
	}
}

func TestPoolCountersSub(t *testing.T) {
	a := PoolCounters{GangLoops: 5, GangJoins: 9, Parks: 7, Unparks: 6}
	b := PoolCounters{GangLoops: 2, GangJoins: 4, Parks: 3, Unparks: 3}
	d := a.Sub(b)
	if d != (PoolCounters{GangLoops: 3, GangJoins: 5, Parks: 4, Unparks: 3}) {
		t.Fatalf("Sub = %+v", d)
	}
}
