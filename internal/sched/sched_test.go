package sched

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestParallelForCoversEveryIndexOnce(t *testing.T) {
	const n = 10000
	var hits [n]int32
	ParallelFor(0, n, 4, func(i int) {
		atomic.AddInt32(&hits[i], 1)
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d executed %d times", i, h)
		}
	}
}

func TestParallelForEmptyAndSingle(t *testing.T) {
	ran := false
	ParallelFor(5, 5, 4, func(int) { ran = true })
	if ran {
		t.Fatal("empty range must not execute the body")
	}
	count := 0
	ParallelFor(7, 8, 4, func(i int) {
		if i != 7 {
			t.Fatalf("unexpected index %d", i)
		}
		count++
	})
	if count != 1 {
		t.Fatalf("single-element range executed %d times", count)
	}
}

func TestParallelForChunkedCoversRange(t *testing.T) {
	const begin, end = 100, 5000
	var total int64
	ParallelForChunked(begin, end, 37, 8, func(lo, hi int) {
		if lo < begin || hi > end || lo >= hi {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
		}
		atomic.AddInt64(&total, int64(hi-lo))
	})
	if total != end-begin {
		t.Fatalf("covered %d elements, want %d", total, end-begin)
	}
}

func TestParallelForWorkerIndexInRange(t *testing.T) {
	const workers = 3
	var bad int32
	ParallelForWorker(0, 1000, 16, workers, func(worker, lo, hi int) {
		if worker < 0 || worker >= workers {
			atomic.AddInt32(&bad, 1)
		}
	})
	if bad != 0 {
		t.Fatal("worker index out of range")
	}
}

func TestParallelReduceSum(t *testing.T) {
	const n = 100000
	got := ParallelReduce(0, n, 1000, 8, int64(0),
		func(lo, hi int, acc int64) int64 {
			for i := lo; i < hi; i++ {
				acc += int64(i)
			}
			return acc
		},
		func(a, b int64) int64 { return a + b })
	want := int64(n) * (n - 1) / 2
	if got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

func TestParallelReduceMatchesSequentialProperty(t *testing.T) {
	f := func(vals []int32) bool {
		var want int64
		for _, v := range vals {
			want += int64(v)
		}
		got := ParallelReduce(0, len(vals), 7, 4, int64(0),
			func(lo, hi int, acc int64) int64 {
				for i := lo; i < hi; i++ {
					acc += int64(vals[i])
				}
				return acc
			},
			func(a, b int64) int64 { return a + b })
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxWorkersPositive(t *testing.T) {
	if MaxWorkers() < 1 {
		t.Fatal("MaxWorkers must be at least 1")
	}
	if normWorkers(0) != MaxWorkers() || normWorkers(-3) != MaxWorkers() || normWorkers(2) != 2 {
		t.Fatal("normWorkers wrong")
	}
	if normChunk(0) != DefaultChunkSize || normChunk(5) != 5 {
		t.Fatal("normChunk wrong")
	}
}

func TestPoolCloseIsIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // second close must not hang or panic
}

// TestClosedPoolLoopsStillRun: a closed pool's gang takes no loops, so a
// loop issued on it runs on goroutines spawned for it — every chunk exactly
// once, on worker ids below the loop's width — and installs no gang loop.
func TestClosedPoolLoopsStillRun(t *testing.T) {
	p := NewPool(2)
	p.Close()
	before := p.Counters()
	const n, chunk, width = 1 << 12, 16, 3
	var hits [n / chunk]atomic.Int32
	p.parallelFor(0, n, chunk, width, func(worker, lo, hi int) {
		if worker < 0 || worker >= width {
			t.Errorf("worker id %d outside [0, %d)", worker, width)
		}
		hits[lo/chunk].Add(1)
	}, nil)
	for c := range hits {
		if h := hits[c].Load(); h != 1 {
			t.Fatalf("chunk %d executed %d times, want 1", c, h)
		}
	}
	if d := p.Counters().Sub(before); d.GangLoops != 0 {
		t.Fatalf("closed pool installed %d gang loops, want 0", d.GangLoops)
	}
}
