package oocore

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/core"
	"github.com/epfl-repro/everythinggraph/internal/graph"
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
			err := s.StreamCells(opt, func(worker int, edges []graph.Edge) {
				mu.Lock()
				defer mu.Unlock()
				for _, e := range edges {
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

// TestConcurrentRunStreamedOnOneStore runs two streamed PageRanks over ONE
// store concurrently. The store's pool is shared streaming state, so the
// passes must serialize through it (this test pins that behaviour — and its
// -race run proves the serialization is real, not luck) and both runs must
// produce exactly the bits a solo run produces.
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
				t.Fatalf("concurrent run %d: rank[%d] = %v, solo run %v (pool serialization broken)",
					i, v, results[i].Rank[v], ref.Rank[v])
			}
		}
	}
}
