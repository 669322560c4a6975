package everythinggraph

import (
	"path/filepath"
	"sync"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
)

// Public-API coverage of concurrent query execution: pool leases and
// Graph.Batch. The bit-identical comparisons below
// are the acceptance bar — a leased run must produce exactly what the same
// run produces alone — and the whole file is meaningful under -race, where
// any scratch shared across leases shows up as a data race.

// TestConcurrentLeasedRunsBitIdentical runs an in-memory BFS and a streamed
// compressed-store PageRank at the same time, each on its own lease, and
// checks both against solo runs of the same configurations.
func TestConcurrentLeasedRunsBitIdentical(t *testing.T) {
	g := GenerateRMAT(12, 8, 3)
	bfsCfg := Config{Layout: LayoutAdjacency, Flow: FlowPush, Sync: SyncAtomics}
	prCfg := Config{Flow: FlowPush, MemoryBudget: 1 << 20}

	// Solo references.
	bfsSolo := BFS(1)
	if _, err := g.Run(bfsSolo, bfsCfg); err != nil {
		t.Fatalf("solo bfs: %v", err)
	}
	path := filepath.Join(t.TempDir(), "concurrent.egs")
	if err := BuildCompressedStore(path, g, 8, false); err != nil {
		t.Fatalf("BuildCompressedStore: %v", err)
	}
	st, err := OpenStore(path)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	defer st.Close()
	prSolo := PageRank()
	if _, err := st.Run(prSolo, prCfg); err != nil {
		t.Fatalf("solo pagerank: %v", err)
	}

	for round := 0; round < 3; round++ {
		leaseA := NewLease(2)
		leaseB := NewLease(2)
		bfsCfgL, prCfgL := bfsCfg, prCfg
		bfsCfgL.Lease = leaseA
		prCfgL.Lease = leaseB

		bfsConc := BFS(1)
		prConc := PageRank()
		var wg sync.WaitGroup
		var bfsErr, prErr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer leaseA.Release()
			_, bfsErr = g.Run(bfsConc, bfsCfgL)
		}()
		go func() {
			defer wg.Done()
			defer leaseB.Release()
			_, prErr = st.Run(prConc, prCfgL)
		}()
		wg.Wait()
		if bfsErr != nil || prErr != nil {
			t.Fatalf("round %d: leased runs failed: bfs=%v pagerank=%v", round, bfsErr, prErr)
		}
		for v := range bfsSolo.Level {
			if bfsConc.Level[v] != bfsSolo.Level[v] {
				t.Fatalf("round %d: leased bfs level[%d] = %d, solo %d", round, v, bfsConc.Level[v], bfsSolo.Level[v])
			}
		}
		for v := range prSolo.Rank {
			if prConc.Rank[v] != prSolo.Rank[v] {
				t.Fatalf("round %d: leased pagerank rank[%d] = %v, solo %v", round, v, prConc.Rank[v], prSolo.Rank[v])
			}
		}
	}
}

// TestConcurrentLeasedStoreRunsShareOneStore overlaps two streamed runs on
// the SAME open store, each on its own lease — the store keeps one streaming
// pool per lease, so neither pass can poach the other's buffers.
func TestConcurrentLeasedStoreRunsShareOneStore(t *testing.T) {
	g := GenerateRMAT(11, 8, 7)
	path := filepath.Join(t.TempDir(), "shared.egs")
	if err := BuildStore(path, g, 8, false); err != nil {
		t.Fatalf("BuildStore: %v", err)
	}
	st, err := OpenStore(path)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	defer st.Close()

	cfg := Config{Flow: FlowPush, MemoryBudget: 1 << 20}
	solo := PageRank()
	if _, err := st.Run(solo, cfg); err != nil {
		t.Fatalf("solo run: %v", err)
	}

	a, b := PageRank(), PageRank()
	var wg sync.WaitGroup
	errs := [2]error{}
	for i, pr := range []*algorithms.PageRank{a, b} {
		wg.Add(1)
		go func(i int, pr *algorithms.PageRank) {
			defer wg.Done()
			lease := NewLease(2)
			defer lease.Release()
			c := cfg
			c.Lease = lease
			_, errs[i] = st.Run(pr, c)
		}(i, pr)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("leased run %d: %v", i, err)
		}
	}
	for v := range solo.Rank {
		if a.Rank[v] != solo.Rank[v] || b.Rank[v] != solo.Rank[v] {
			t.Fatalf("rank[%d]: leased %v/%v, solo %v", v, a.Rank[v], b.Rank[v], solo.Rank[v])
		}
	}
}

// TestBatchThroughFacade answers many BFS queries in one call and checks a
// sample against solo runs; more sources than workers put several runs on
// every side-by-side lane.
func TestBatchThroughFacade(t *testing.T) {
	g := GenerateRMAT(11, 8, 5)
	n := g.NumVertices()
	sources := make([]VertexID, 70)
	for i := range sources {
		sources[i] = VertexID((i * 37) % n)
	}
	results, err := g.Batch(BatchBFS, sources, Config{Layout: LayoutAdjacency, Flow: FlowPush, Sync: SyncAtomics})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if len(results) != len(sources) {
		t.Fatalf("got %d results, want %d", len(results), len(sources))
	}
	for _, i := range []int{0, 13, 64, 69} {
		solo := BFS(sources[i])
		if _, err := g.Run(solo, Config{Layout: LayoutAdjacency, Flow: FlowPush, Sync: SyncAtomics}); err != nil {
			t.Fatalf("solo bfs %d: %v", i, err)
		}
		for v := range solo.Level {
			if results[i].Level[v] != solo.Level[v] {
				t.Fatalf("source %d: level[%d] = %d, solo %d", sources[i], v, results[i].Level[v], solo.Level[v])
			}
		}
	}
}
