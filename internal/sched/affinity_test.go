package sched

import (
	"runtime"
	"testing"
)

func TestCPUSetOps(t *testing.T) {
	var s CPUSet
	if !s.IsEmpty() || s.Count() != 0 {
		t.Fatal("zero CPUSet not empty")
	}
	s.Set(0)
	s.Set(63)
	s.Set(64)
	s.Set(MaxCPUs - 1)
	s.Set(-1)      // ignored
	s.Set(MaxCPUs) // ignored
	if s.Count() != 4 {
		t.Fatalf("Count = %d, want 4", s.Count())
	}
	for _, c := range []int{0, 63, 64, MaxCPUs - 1} {
		if !s.Has(c) {
			t.Fatalf("Has(%d) = false", c)
		}
	}
	if s.Has(1) || s.Has(-1) || s.Has(MaxCPUs) {
		t.Fatal("Has reports non-members")
	}
	o := MaskOf([]int{63, 64, 100})
	s.And(&o)
	if s.Count() != 2 || !s.Has(63) || !s.Has(64) {
		t.Fatalf("And kept wrong members: %v", s)
	}
	var f CPUSet
	f.fill()
	if f.Count() != MaxCPUs {
		t.Fatalf("fill set %d CPUs, want %d", f.Count(), MaxCPUs)
	}
}

func TestLeasePinCountersBalance(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	l := p.Lease(2)
	before := p.Counters()
	l.Pin([]int{0})
	// Drive a loop so lease workers wake, observe the pin generation, and
	// apply their masks before computing.
	var hits [64]int32
	l.ParallelForWorker(0, len(hits), 8, 2, func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			hits[i]++
		}
	})
	for i := range hits {
		if hits[i] != 1 {
			t.Fatalf("chunk %d executed %d times under a pinned lease", i, hits[i])
		}
	}
	l.Release()
	d := p.Counters().Sub(before)
	if !AffinityAvailable() {
		if d.Pins != 0 || d.Unpins != 0 {
			t.Fatalf("pin counters moved without affinity support: %+v", d)
		}
		return
	}
	if d.Pins == 0 {
		t.Fatal("Pin on CPU 0 pinned no threads")
	}
	if d.Pins != d.Unpins {
		t.Fatalf("Release left pin state unbalanced: pins=%d unpins=%d", d.Pins, d.Unpins)
	}
}

// TestLeaseUnpinCompletes: Unpin, like Release, returns only once every
// lease worker has restored its mask — the counters balance the moment it
// returns, pin after pin, without waiting for a scheduling round — and a
// worker handed from a released lease straight to a new one does not carry
// the old pin along.
func TestLeaseUnpinCompletes(t *testing.T) {
	if !AffinityAvailable() {
		t.Skip("no thread affinity on this platform")
	}
	p := NewPool(3)
	defer p.Close()
	body := func(int, int, int) {}
	for round := 0; round < 50; round++ {
		l := p.Lease(4)
		before := p.Counters()
		l.Pin([]int{0})
		l.ParallelForWorker(0, 64, 1, 4, body)
		l.Unpin()
		if d := p.Counters().Sub(before); d.Pins == 0 || d.Pins != d.Unpins {
			t.Fatalf("round %d: after Unpin pins=%d unpins=%d", round, d.Pins, d.Unpins)
		}
		l.Pin([]int{0})
		l.ParallelForWorker(0, 64, 1, 4, body)
		l.Release()
		if d := p.Counters().Sub(before); d.Pins != d.Unpins {
			t.Fatalf("round %d: after Release pins=%d unpins=%d", round, d.Pins, d.Unpins)
		}
	}
}

func TestLeasePinNoopCases(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	l := p.Lease(1)
	before := p.Counters()
	l.Pin(nil)                  // empty CPU list: no-op
	l.Pin([]int{MaxCPUs + 100}) // out of range: empty mask, skip
	l.Unpin()                   // never pinned: no-op
	l.Release()
	if d := p.Counters().Sub(before); d.Pins != 0 || d.Unpins != 0 {
		t.Fatalf("no-op pins moved counters: %+v", d)
	}
	// Pinning after release must not pin anything either.
	l2 := p.Lease(1)
	l2.Release()
	before = p.Counters()
	l2.Pin([]int{0})
	if d := p.Counters().Sub(before); d.Pins != 0 {
		t.Fatalf("Pin on a released lease pinned threads: %+v", d)
	}
}

// TestLeaseReleaseRestoresAffinity verifies the holder thread's affinity
// mask comes back exactly as it was: the engine pins caller-provided leases
// per plan, and returning the caller's thread narrowed would leak placement
// outside the run.
func TestLeaseReleaseRestoresAffinity(t *testing.T) {
	if !AffinityAvailable() {
		t.Skip("no thread affinity on this platform")
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var orig CPUSet
	if err := getAffinity(&orig); err != nil {
		t.Fatalf("getAffinity: %v", err)
	}
	p := NewPool(1)
	defer p.Close()
	l := p.Lease(1)
	l.Pin([]int{0})
	var during CPUSet
	if err := getAffinity(&during); err != nil {
		t.Fatalf("getAffinity: %v", err)
	}
	if orig.Has(0) {
		if during.Count() != 1 || !during.Has(0) {
			t.Fatalf("pinned holder mask = %v, want {0}", during)
		}
	}
	l.Release()
	var after CPUSet
	if err := getAffinity(&after); err != nil {
		t.Fatalf("getAffinity: %v", err)
	}
	if after != orig {
		t.Fatalf("Release did not restore the holder mask: got %v, want %v", after, orig)
	}
}

// TestLeaseRepinChangesMask covers the re-pin path: a second Pin with a
// different CPU list replaces the mask without counting a second pin for an
// already-pinned thread.
func TestLeaseRepinChangesMask(t *testing.T) {
	if !AffinityAvailable() {
		t.Skip("no thread affinity on this platform")
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var orig CPUSet
	if err := getAffinity(&orig); err != nil {
		t.Fatalf("getAffinity: %v", err)
	}
	p := NewPool(1)
	defer p.Close()
	l := p.Lease(1)
	before := p.Counters()
	l.Pin([]int{0})
	l.Pin([]int{0, 1})
	l.Unpin()
	var after CPUSet
	if err := getAffinity(&after); err != nil {
		t.Fatalf("getAffinity: %v", err)
	}
	if after != orig {
		t.Fatalf("Unpin did not restore the holder mask: got %v, want %v", after, orig)
	}
	l.Release()
	if d := p.Counters().Sub(before); d.Pins != d.Unpins {
		t.Fatalf("re-pin unbalanced the counters: %+v", d)
	}
}
