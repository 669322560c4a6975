package oocore

import (
	"sync"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/core"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/storage"
)

func coreStreamOpts(workers int, budget int64) core.StreamOptions {
	return core.StreamOptions{Workers: workers, MemoryBudget: budget}
}

// collectStream runs one pass and returns every delivered edge plus the set
// of destination columns each worker touched.
func collectStream(t *testing.T, s *Store, opt core.StreamOptions) ([]graph.Edge, map[int]map[int]bool) {
	t.Helper()
	var mu sync.Mutex
	var all []graph.Edge
	cols := map[int]map[int]bool{}
	err := s.StreamCells(opt, func(worker int, edges []graph.Edge) {
		mu.Lock()
		defer mu.Unlock()
		all = append(all, edges...)
		if cols[worker] == nil {
			cols[worker] = map[int]bool{}
		}
		for _, e := range edges {
			cols[worker][int(e.Dst)/s.Header().RangeSize] = true
		}
	})
	if err != nil {
		t.Fatalf("StreamCells: %v", err)
	}
	return all, cols
}

func edgeMultiset(edges []graph.Edge) map[graph.Edge]int {
	m := make(map[graph.Edge]int, len(edges))
	for _, e := range edges {
		m[e]++
	}
	return m
}

func TestStreamCellsDeliversEveryEdgeOnce(t *testing.T) {
	g := testGraph(t, 10, true)
	s := buildTestStore(t, g, 8, false)
	for _, workers := range []int{1, 3, 8} {
		all, _ := collectStream(t, s, coreStreamOpts(workers, 0))
		if len(all) != g.NumEdges() {
			t.Fatalf("workers=%d: streamed %d edges, want %d", workers, len(all), g.NumEdges())
		}
		want := edgeMultiset(g.EdgeArray.Edges)
		got := edgeMultiset(all)
		for e, n := range want {
			if got[e] != n {
				t.Fatalf("workers=%d: edge %v delivered %d times, want %d", workers, e, got[e], n)
			}
		}
	}
}

func TestStreamCellsColumnOwnership(t *testing.T) {
	g := testGraph(t, 10, false)
	s := buildTestStore(t, g, 8, false)
	_, cols := collectStream(t, s, coreStreamOpts(4, 0))
	seen := map[int]int{} // column -> owning worker
	for worker, set := range cols {
		for col := range set {
			if prev, ok := seen[col]; ok && prev != worker {
				t.Fatalf("column %d visited by workers %d and %d", col, prev, worker)
			}
			seen[col] = worker
		}
	}
}

func TestStreamCellsRespectsMemoryBudget(t *testing.T) {
	g := testGraph(t, 12, false)
	s := buildTestStore(t, g, 8, false)
	const budget = 64 << 10 // 64 KiB: far below the ~400 KiB edge data
	all, _ := collectStream(t, s, coreStreamOpts(4, budget))
	if len(all) != g.NumEdges() {
		t.Fatalf("streamed %d edges, want %d", len(all), g.NumEdges())
	}
	st := s.Stats()
	if st.PeakResidentBytes == 0 {
		t.Fatal("peak resident bytes not tracked")
	}
	if st.PeakResidentBytes > budget {
		t.Fatalf("peak resident %d bytes exceeds budget %d", st.PeakResidentBytes, budget)
	}
}

func TestStreamCellsTinyBudgetSlicesCells(t *testing.T) {
	g := testGraph(t, 8, false)
	s := buildTestStore(t, g, 2, false) // 2x2 grid: cells far larger than the buffers
	const budget = 2 << 10
	all, _ := collectStream(t, s, coreStreamOpts(4, budget))
	if len(all) != g.NumEdges() {
		t.Fatalf("streamed %d edges, want %d", len(all), g.NumEdges())
	}
	st := s.Stats()
	if st.PeakResidentBytes > budget {
		t.Fatalf("peak resident %d bytes exceeds tiny budget %d", st.PeakResidentBytes, budget)
	}
	if st.Reads < 4 {
		t.Fatalf("expected sub-cell slicing to issue many reads, got %d", st.Reads)
	}
}

func TestStreamCellsStats(t *testing.T) {
	g := testGraph(t, 8, false)
	s := buildTestStore(t, g, 4, false)
	before := s.Stats()
	if before.Passes != 0 {
		t.Fatalf("fresh store has %d passes", before.Passes)
	}
	collectStream(t, s, coreStreamOpts(2, 0))
	st := s.Stats()
	if st.Passes != 1 {
		t.Fatalf("passes = %d, want 1", st.Passes)
	}
	if st.BytesRead != int64(g.NumEdges())*storage.EdgeBytes {
		t.Fatalf("bytes read = %d, want %d", st.BytesRead, g.NumEdges()*storage.EdgeBytes)
	}
	if st.Reads == 0 || st.IOTime == 0 {
		t.Fatalf("read accounting missing: %+v", st)
	}
}

func TestPartitionColumnsCoversAllColumns(t *testing.T) {
	colEdges := []uint64{100, 0, 0, 0, 1, 1, 1, 900}
	for workers := 1; workers <= 8; workers++ {
		bounds := partitionColumns(colEdges, workers)
		if len(bounds) != workers+1 || bounds[0] != 0 || bounds[workers] != len(colEdges) {
			t.Fatalf("workers=%d: bad bounds %v", workers, bounds)
		}
		for i := 0; i < workers; i++ {
			if bounds[i] > bounds[i+1] {
				t.Fatalf("workers=%d: non-monotone bounds %v", workers, bounds)
			}
		}
	}
}
