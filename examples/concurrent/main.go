// Concurrent: demonstrates serving many queries from one process — the
// two mechanisms behind it, separately and composed. Pool leases carve
// the shared worker pool into private sub-gangs so independent runs
// overlap instead of serializing, each keeping its scratch (including a
// store's streaming arenas) to itself and staying bit-identical to a solo
// run. Multi-source batching (the MS-BFS idea) answers up to 64 traversal
// queries in ONE engine run: each source owns a bit of a per-vertex mask
// word, so a single edge scan advances every traversal at once, and under
// the planner the batch is its own cost population (the ×k plan labels).
// Graph.Batch composes both: source lists split into ≤64-wide groups that
// run concurrently on scan-volume-proportional leases.
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

	// --- Multi-source batching: 64 BFS queries in one engine run ---
	n := g.NumVertices()
	sources := make([]everythinggraph.VertexID, 64)
	for i := range sources {
		sources[i] = everythinggraph.VertexID((i*2654435761 + 1) % n)
	}

	start = time.Now()
	for _, src := range sources {
		if _, err := g.Run(everythinggraph.BFS(src), bfsCfg); err != nil {
			log.Fatal(err)
		}
	}
	sequential := time.Since(start)

	mb := everythinggraph.MultiBFS(sources)
	start = time.Now()
	mbRes, err := g.Run(mb, everythinggraph.Config{Flow: everythinggraph.FlowAuto})
	if err != nil {
		log.Fatal(err)
	}
	batched := time.Since(start)

	fmt.Printf("\nmulti-source batching, %d BFS queries:\n", len(sources))
	fmt.Printf("  64 sequential runs:  %8v\n", sequential.Round(time.Millisecond))
	fmt.Printf("  one batched sweep:   %8v  (%.1fx less per source)\n",
		batched.Round(time.Millisecond), float64(sequential)/float64(batched))
	fmt.Println("  adaptive plan trace (every label carries the batch width):")
	for _, it := range mbRes.Run.PerIteration[:min(3, len(mbRes.Run.PerIteration))] {
		fmt.Printf("    iteration %2d: active=%7d plan=%s\n", it.Iteration, it.ActiveVertices, it.Plan)
	}
	fmt.Printf("  source 0 reached %d vertices; source 63 reached %d\n",
		mb.Reached(0), mb.Reached(63))

	// --- Graph.Batch: arbitrary source lists, grouped and leased ---
	many := make([]everythinggraph.VertexID, 128)
	for i := range many {
		many[i] = everythinggraph.VertexID((i*131 + 7) % n)
	}
	start = time.Now()
	results, err := g.Batch(everythinggraph.BatchBFS, many, bfsCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGraph.Batch: %d sources -> %d bit-parallel groups on concurrent leases, %v\n",
		len(many), (len(many)+63)/64, time.Since(start).Round(time.Millisecond))
	check := everythinggraph.BFS(many[100])
	if _, err := g.Run(check, bfsCfg); err != nil {
		log.Fatal(err)
	}
	for v := range check.Level {
		if results[100].Level[v] != check.Level[v] {
			log.Fatalf("batched query 100 diverged at vertex %d", v)
		}
	}
	fmt.Println("  -> spot-checked query levels identical to a solo run")
}
