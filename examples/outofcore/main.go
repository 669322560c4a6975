// Outofcore: demonstrates the disk-resident grid store — the grid layout
// of Section 5.1 extended beyond RAM. The example partitions an RMAT graph
// into an on-disk store, runs PageRank both in memory (grid layout,
// partition-free) and out-of-core under a small resident budget, verifies
// the results are bit-identical, and prints the I/O-wait vs. overlap
// accounting that extends the paper's end-to-end breakdown to storage.
// A final adaptive run shows the planner choosing the streamed resolution,
// and a repartitioned store materializing it.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	everythinggraph "github.com/epfl-repro/everythinggraph"
	"github.com/epfl-repro/everythinggraph/internal/metrics"
)

func main() {
	const scale = 16
	g := everythinggraph.GenerateRMAT(scale, 16, 11)
	fmt.Printf("dataset: %d vertices, %d edges (%.0f MB on disk)\n\n",
		g.NumVertices(), g.NumEdges(), float64(g.NumEdges())*12/1e6)

	// In-memory reference: the grid layout with partition-free columns.
	prMem := everythinggraph.PageRank()
	memRes, err := g.Run(prMem, everythinggraph.Config{
		Layout: everythinggraph.LayoutGrid,
		Flow:   everythinggraph.FlowPush,
		Sync:   everythinggraph.SyncPartitionFree,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("in-memory grid:   %s\n", memRes.Breakdown)

	// Partition the same edges into a disk store and stream them back
	// under a 16 MiB resident-edge budget.
	dir, err := os.MkdirTemp("", "egraph-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "rmat.egs")
	if err := everythinggraph.BuildStore(path, g, 0, false); err != nil {
		log.Fatal(err)
	}
	st, err := everythinggraph.OpenStore(path)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	prOOC := everythinggraph.PageRank()
	oocRes, err := st.Run(prOOC, everythinggraph.Config{
		Flow:         everythinggraph.FlowPush,
		MemoryBudget: 16 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("out-of-core grid: %s\n", oocRes.Breakdown)

	io := st.IOStats()
	fmt.Printf("streamed %.0f MB in %d reads over %d passes, peak resident %.1f MiB\n",
		float64(io.BytesRead)/1e6, io.Reads, io.Passes, float64(io.PeakResidentBytes)/(1<<20))

	for v := range prMem.Rank {
		if prMem.Rank[v] != prOOC.Rank[v] {
			log.Fatalf("rank[%d] differs: %v in-memory vs %v out-of-core", v, prMem.Rank[v], prOOC.Rank[v])
		}
	}
	fmt.Println("\nall ranks bit-identical to the in-memory run ✓")

	// The same partitioning, compressed: a version-3 store holds every edge
	// as two fixed-width offsets inside its cell's ranges (weights in a
	// parallel plane) and decodes them inside the prefetch pipeline, so each
	// pass moves fewer bytes. The encoding keeps the exact in-cell edge
	// order, which is why the ranks can stay bit-identical rather than
	// merely close.
	pathV2 := filepath.Join(dir, "rmat.v3.egs")
	if err := everythinggraph.BuildCompressedStore(pathV2, g, 0, false); err != nil {
		log.Fatal(err)
	}
	stV2, err := everythinggraph.OpenStore(pathV2)
	if err != nil {
		log.Fatal(err)
	}
	defer stV2.Close()
	fmt.Printf("\ncompressed store: format v%d, %.2fx smaller than the 12 B/edge records\n",
		stV2.FormatVersion(), stV2.CompressionRatio())

	before := stV2.IOStats()
	prV2 := everythinggraph.PageRank()
	v2Res, err := stV2.Run(prV2, everythinggraph.Config{
		Flow:         everythinggraph.FlowPush,
		MemoryBudget: 16 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	v2IO := stV2.IOStats()
	fmt.Printf("compressed streamed: %s\n", v2Res.Breakdown)
	v2Pass := float64(v2IO.BytesRead-before.BytesRead) / float64(v2IO.Passes-before.Passes)
	rawPass := float64(io.BytesRead) / float64(io.Passes)
	fmt.Printf("bytes per pass: %.1f MB compressed (%.1f B/edge) vs %.1f MB raw (%.0f B/edge)\n",
		v2Pass/1e6, v2Pass/float64(g.NumEdges()), rawPass/1e6, rawPass/float64(g.NumEdges()))
	for v := range prMem.Rank {
		if prMem.Rank[v] != prV2.Rank[v] {
			log.Fatalf("compressed rank[%d] differs: %v vs %v", v, prMem.Rank[v], prV2.Rank[v])
		}
	}
	fmt.Println("compressed ranks bit-identical too ✓")

	// The same run under the adaptive planner, on the same 16 MiB budget
	// and prefetch depth: it chooses the virtual grid level each pass
	// streams at (the "grid/<P>@s1" part of the plan labels). A level only
	// changes how reads coalesce, never the per-destination order, so the
	// ranks stay bit-identical.
	prAuto := everythinggraph.PageRank()
	autoRes, err := st.Run(prAuto, everythinggraph.Config{
		Flow:         everythinggraph.FlowAuto,
		MemoryBudget: 16 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nadaptive streamed: %s\n", autoRes.Breakdown)
	fmt.Printf("plan trace: %s\n", metrics.CompressPlanTrace(autoRes.Run.PlanTrace()))
	for v := range prMem.Rank {
		if prMem.Rank[v] != prAuto.Rank[v] {
			log.Fatalf("adaptive rank[%d] differs: %v vs %v", v, prMem.Rank[v], prAuto.Rank[v])
		}
	}
	fmt.Println("adaptive ranks bit-identical too ✓")

	// Measure -> repack -> re-run: the store's P is frozen at build time,
	// but its virtual coarsening ladder is not. The adaptive run above
	// already streamed at the rung the cost model picked; repartitioning
	// materializes that rung as the store's physical resolution, so every
	// pass issues whole-cell reads with no merge bookkeeping — same bytes,
	// fewer I/Os, bit-identical ranks.
	chosen := autoRes.Run.PerIteration[len(autoRes.Run.PerIteration)-1].Plan.GridLevel
	fmt.Printf("\nladder %v; adaptive run settled on P=%d (store holds P=%d)\n",
		st.Levels(), chosen, st.GridP())
	if chosen < st.GridP() {
		repacked := filepath.Join(dir, "rmat.repack.egs")
		if err := st.Repartition(repacked, chosen, false); err != nil {
			log.Fatal(err)
		}
		stR, err := everythinggraph.OpenStore(repacked)
		if err != nil {
			log.Fatal(err)
		}
		defer stR.Close()
		prR := everythinggraph.PageRank()
		if _, err := stR.Run(prR, everythinggraph.Config{
			Flow:         everythinggraph.FlowPush,
			MemoryBudget: 16 << 20,
		}); err != nil {
			log.Fatal(err)
		}
		rIO := stR.IOStats()
		fmt.Printf("repacked at P=%d: %d reads over %d passes (finest-level store: %d reads over %d passes)\n",
			chosen, rIO.Reads, rIO.Passes, io.Reads, io.Passes)
		for v := range prMem.Rank {
			if prMem.Rank[v] != prR.Rank[v] {
				log.Fatalf("repacked rank[%d] differs: %v vs %v", v, prMem.Rank[v], prR.Rank[v])
			}
		}
		fmt.Println("repacked ranks bit-identical too ✓")
	}
}
