package oocore

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/core"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/sched"
)

// TestStreamCellsReducedWorkersColumnOwnership: at any pass worker count
// below the column count, each destination column is visited by exactly one
// worker (every partition must preserve the lock-free ownership argument).
func TestStreamCellsReducedWorkersColumnOwnership(t *testing.T) {
	g := testGraph(t, 10, false)
	s := buildTestStore(t, g, 16, false)
	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var mu sync.Mutex
			colOwner := map[int]int{}
			opt := core.StreamOptions{Workers: workers, MemoryBudget: 1 << 20}
			err := s.StreamCells(opt, func(worker int, pairs []graph.Pair, _ []graph.Weight) {
				mu.Lock()
				defer mu.Unlock()
				for _, e := range pairs {
					col := int(e.Dst) / s.Header().RangeSize
					if owner, ok := colOwner[col]; ok && owner != worker {
						t.Errorf("column %d visited by workers %d and %d", col, owner, worker)
					}
					colOwner[col] = worker
				}
			})
			if err != nil {
				t.Fatalf("pass: %v", err)
			}
			if len(colOwner) == 0 {
				t.Fatal("pass visited no column")
			}
		})
	}
}

// TestConcurrentRunStreamedOnOneStore runs two unleased streamed PageRanks
// over ONE store concurrently. Each pass borrows an idle stream pool of its
// own, so the passes overlap without sharing buffers (its -race run checks
// that no slot ring or arena is handed to two passes at once), and both
// runs must produce exactly the bits a solo run produces.
func TestConcurrentRunStreamedOnOneStore(t *testing.T) {
	g := testGraph(t, 10, false)
	s := buildTestStore(t, g, 16, false)
	cfg := core.Config{
		Layout: graph.LayoutGrid, Flow: core.Push, Sync: core.SyncPartitionFree,
		Workers: 2, MemoryBudget: 1 << 20,
	}
	ref := algorithms.NewPageRank()
	if _, err := core.RunStreamed(s, ref, cfg); err != nil {
		t.Fatalf("reference run: %v", err)
	}

	const runs = 2
	var wg sync.WaitGroup
	var failures atomic.Int32
	results := make([]*algorithms.PageRank, runs)
	errs := make([]error, runs)
	for i := 0; i < runs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			pr := algorithms.NewPageRank()
			_, err := core.RunStreamed(s, pr, cfg)
			results[i], errs[i] = pr, err
			if err != nil {
				failures.Add(1)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		for v := range ref.Rank {
			if math.Float64bits(results[i].Rank[v]) != math.Float64bits(ref.Rank[v]) {
				t.Fatalf("concurrent run %d: rank[%d] = %v, solo run %v (a pool shared between passes)",
					i, v, results[i].Rank[v], ref.Rank[v])
			}
		}
	}
}

// idlePools is the number of stream pools the store holds between passes.
func idlePools(s *Store) int {
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	return len(s.idle)
}

// waitGoroutines waits for the goroutine count to fall to at most want (an
// exiting goroutine is still counted for a moment after its last action).
func waitGoroutines(t *testing.T, want int, what string) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > want; i++ {
		if i == 500 {
			t.Fatalf("%s: %d goroutines alive, want at most %d", what, runtime.NumGoroutine(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLeasedRunsGiveBackPoolsAndGoroutines: a leased run's passes borrow an
// idle stream pool and return it, so one open store holds as many pools as
// passes have run at once — not one per lease it has seen — and Close
// retires them with their fetcher goroutines.
func TestLeasedRunsGiveBackPoolsAndGoroutines(t *testing.T) {
	g := testGraph(t, 10, false)
	path := filepath.Join(t.TempDir(), "graph.egs")
	if _, err := BuildStoreFromGraph(path, g, 16, false); err != nil {
		t.Fatalf("BuildStoreFromGraph: %v", err)
	}
	sched.DefaultPool() // the process-wide workers are not the store's
	beforeOpen := runtime.NumGoroutine()
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	cfg := core.Config{
		Layout: graph.LayoutGrid, Flow: core.Push, Sync: core.SyncPartitionFree,
		Workers: 2, MemoryBudget: 1 << 20,
	}
	leasedRun := func() error {
		lease := sched.DefaultPool().Lease(2)
		defer lease.Release()
		c := cfg
		c.Lease = lease
		_, err := core.RunStreamed(s, algorithms.NewPageRank(), c)
		return err
	}

	if err := leasedRun(); err != nil {
		t.Fatalf("run 0: %v", err)
	}
	afterFirst := runtime.NumGoroutine()
	fetchers := len(idlePool(t, s).groups)
	for i := 1; i < 100; i++ {
		if err := leasedRun(); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if n := idlePools(s); n > 1 {
			t.Fatalf("after %d sequential leased runs the store holds %d pools, want at most 1", i+1, n)
		}
	}
	waitGoroutines(t, afterFirst+fetchers, "after 100 sequential leased runs")

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = leasedRun()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d: %v", i, err)
		}
	}
	if n := idlePools(s); n > 2 {
		t.Fatalf("after two concurrent leased runs the store holds %d pools, want at most 2", n)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	waitGoroutines(t, beforeOpen, "after Close")
}

// overlapPasses runs two unleased passes of opt on s that are provably in
// flight together: each pass's first visit waits, up to a deadline, until
// the other pass has visited too. It fails the test if they never overlap.
func overlapPasses(t *testing.T, s *Store, opt core.StreamOptions, wantEdges int64) {
	t.Helper()
	var started sync.WaitGroup
	started.Add(2)
	both := make(chan struct{})
	go func() {
		started.Wait()
		close(both)
	}()
	var overlapped [2]atomic.Bool
	var totals [2]int64
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var first sync.Once
			errs[i] = s.StreamCells(opt, func(_ int, edges []graph.Pair, _ []graph.Weight) {
				first.Do(func() {
					started.Done()
					select {
					case <-both:
						overlapped[i].Store(true)
					case <-time.After(10 * time.Second):
					}
				})
				atomic.AddInt64(&totals[i], int64(len(edges)))
			})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("pass %d: %v", i, err)
		}
		if totals[i] != wantEdges {
			t.Fatalf("pass %d delivered %d edges, want %d", i, totals[i], wantEdges)
		}
		if !overlapped[i].Load() {
			t.Fatalf("pass %d never ran alongside the other: unleased passes queued behind one pool", i)
		}
	}
}

// TestConcurrentUnleasedPassesEachBorrowAPool: concurrent passes without a
// lease do not queue behind one another's pool. Each borrows a pool of its
// own, both go back to the idle list, and a later pass of the same shape
// reuses one of them instead of building a third.
func TestConcurrentUnleasedPassesEachBorrowAPool(t *testing.T) {
	g := testGraph(t, 10, false)
	s := buildTestStore(t, g, 8, false)
	opt := coreStreamOpts(2, 1<<20)
	overlapPasses(t, s, opt, int64(g.NumEdges()))
	if n := idlePools(s); n != 2 {
		t.Fatalf("after two overlapping passes the store holds %d idle pools, want 2", n)
	}
	var total int64
	if err := s.StreamCells(opt, countingVisit(&total)); err != nil {
		t.Fatalf("StreamCells: %v", err)
	}
	if n := idlePools(s); n != 2 {
		t.Fatalf("a pass of an idle pool's shape left %d idle pools, want 2", n)
	}
	if got := s.Stats().Passes; got != 3 {
		t.Fatalf("completed passes = %d, want 3", got)
	}
}

// TestStreamCellsNewShapeRetiresIdlePools: a pass that must build a pool
// for a new shape retires every idle pool of another shape, so the store
// keeps only the new one.
func TestStreamCellsNewShapeRetiresIdlePools(t *testing.T) {
	g := testGraph(t, 10, false)
	s := buildTestStore(t, g, 8, false)
	overlapPasses(t, s, coreStreamOpts(2, 1<<20), int64(g.NumEdges()))
	if n := idlePools(s); n != 2 {
		t.Fatalf("after two overlapping passes the store holds %d idle pools, want 2", n)
	}
	var total int64
	if err := s.StreamCells(coreStreamOpts(2, 512<<10), countingVisit(&total)); err != nil {
		t.Fatalf("StreamCells: %v", err)
	}
	if got := idlePool(t, s).cap; got != 512<<10 {
		t.Fatalf("the remaining idle pool is sized for %d bytes, want %d", got, 512<<10)
	}
}

// TestCloseRetiresIdlePools: Close stops every idle pool, so the fetcher
// goroutines of passes that once overlapped go with it.
func TestCloseRetiresIdlePools(t *testing.T) {
	g := testGraph(t, 10, false)
	path := filepath.Join(t.TempDir(), "graph.egs")
	if _, err := BuildStoreFromGraph(path, g, 8, false); err != nil {
		t.Fatalf("BuildStoreFromGraph: %v", err)
	}
	sched.DefaultPool() // the process-wide workers are not the store's
	beforeOpen := runtime.NumGoroutine()
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	overlapPasses(t, s, coreStreamOpts(2, 1<<20), int64(g.NumEdges()))
	if n := idlePools(s); n != 2 {
		t.Fatalf("after two overlapping passes the store holds %d idle pools, want 2", n)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := idlePools(s); n != 0 {
		t.Fatalf("after Close the store holds %d idle pools, want 0", n)
	}
	waitGoroutines(t, beforeOpen, "after Close")
}
