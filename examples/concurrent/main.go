// Concurrent: demonstrates serving many queries from one process. Pool
// leases carve the shared worker pool into private sub-gangs so independent
// runs overlap instead of serializing, each keeping its scratch (including a
// store's streaming arenas) to itself and staying bit-identical to a solo
// run. Graph.Batch builds on them: 64 BFS queries run side by side on
// one-worker leases, against the same 64 queries run one after another on
// every worker.
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	everythinggraph "github.com/epfl-repro/everythinggraph"
)

func main() {
	const scale = 16
	g := everythinggraph.GenerateRMAT(scale, 16, 7)
	fmt.Printf("dataset: RMAT-%d, %d vertices, %d edges\n\n", scale, g.NumVertices(), g.NumEdges())

	// A small streamed store so one of the overlapping queries exercises
	// the out-of-core path (per-lease stream pools).
	dir, err := os.MkdirTemp("", "egconcurrent")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	storePath := filepath.Join(dir, "concurrent.egs")
	if err := everythinggraph.BuildCompressedStore(storePath, g, 16, false); err != nil {
		log.Fatal(err)
	}
	st, err := everythinggraph.OpenStore(storePath)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	// --- Pool leases: two queries overlapping, bit-identical to solo ---
	bfsCfg := everythinggraph.Config{
		Layout: everythinggraph.LayoutAdjacency,
		Flow:   everythinggraph.FlowPush,
		Sync:   everythinggraph.SyncAtomics,
	}
	prCfg := everythinggraph.Config{Flow: everythinggraph.FlowPush, MemoryBudget: 32 << 20}

	soloBFS := everythinggraph.BFS(1)
	if _, err := g.Run(soloBFS, bfsCfg); err != nil {
		log.Fatal(err)
	}
	soloPR := everythinggraph.PageRank()
	if _, err := st.Run(soloPR, prCfg); err != nil {
		log.Fatal(err)
	}

	fmt.Println("pool leases: in-memory BFS + streamed PageRank, overlapping:")
	leaseA := everythinggraph.NewLease(2)
	leaseB := everythinggraph.NewLease(2)
	bfsCfgL, prCfgL := bfsCfg, prCfg
	bfsCfgL.Lease = leaseA
	prCfgL.Lease = leaseB

	concBFS := everythinggraph.BFS(1)
	concPR := everythinggraph.PageRank()
	var wg sync.WaitGroup
	wg.Add(2)
	start := time.Now()
	go func() {
		defer wg.Done()
		defer leaseA.Release()
		if _, err := g.Run(concBFS, bfsCfgL); err != nil {
			log.Fatal(err)
		}
	}()
	go func() {
		defer wg.Done()
		defer leaseB.Release()
		if _, err := st.Run(concPR, prCfgL); err != nil {
			log.Fatal(err)
		}
	}()
	wg.Wait()
	elapsed := time.Since(start)
	for v := range soloBFS.Level {
		if concBFS.Level[v] != soloBFS.Level[v] {
			log.Fatalf("leased BFS diverged at vertex %d", v)
		}
	}
	for v := range soloPR.Rank {
		if math.Float64bits(concPR.Rank[v]) != math.Float64bits(soloPR.Rank[v]) {
			log.Fatalf("leased PageRank diverged at vertex %d", v)
		}
	}
	fmt.Printf("  both done in %v on 2-worker leases\n", elapsed.Round(time.Millisecond))
	fmt.Println("  -> results bit-identical to the same runs executed alone")

	// --- Graph.Batch: 64 queries side by side on one-worker leases ---
	n := g.NumVertices()
	sources := make([]everythinggraph.VertexID, 64)
	for i := range sources {
		sources[i] = everythinggraph.VertexID((i*2654435761 + 1) % n)
	}

	start = time.Now()
	soloLevels := make([][]int32, len(sources))
	for i, src := range sources {
		bfs := everythinggraph.BFS(src)
		if _, err := g.Run(bfs, bfsCfg); err != nil {
			log.Fatal(err)
		}
		soloLevels[i] = bfs.Level
	}
	sequential := time.Since(start)

	start = time.Now()
	results, err := g.Batch(everythinggraph.BatchBFS, sources, bfsCfg)
	if err != nil {
		log.Fatal(err)
	}
	batched := time.Since(start)
	for i, r := range results {
		for v := range r.Level {
			if r.Level[v] != soloLevels[i][v] {
				log.Fatalf("batched query %d diverged at vertex %d", i, v)
			}
		}
	}

	fmt.Printf("\nGraph.Batch, %d BFS queries (adjacency/push/atomics):\n", len(sources))
	fmt.Printf("  %d sequential runs: %8v\n", len(sources), sequential.Round(time.Millisecond))
	fmt.Printf("  one Batch call:     %8v\n", batched.Round(time.Millisecond))
	fmt.Println("  -> every query's levels identical to its solo run")
}
