// Command egraph runs a single graph algorithm with a chosen combination of
// techniques (layout, pre-processing method, information flow,
// synchronization) and prints the end-to-end time breakdown — the
// command-line face of the library's public API.
//
// With -store it instead executes out-of-core over a partitioned grid store
// written by gengraph -format store: cells stream from disk through a
// bounded memory budget while the next segments prefetch asynchronously,
// and the breakdown additionally reports how much time stalled on storage
// versus how much storage time the overlap hid.
//
// Examples:
//
//	egraph -algorithm bfs -generate rmat -scale 20 -layout adjacency -flow push -sync atomics
//	egraph -algorithm bfs -generate rmat -scale 20 -flow auto -v
//	egraph -algorithm bfs -generate rmat -scale 20 -sources 0,7,19,42 -flow auto
//	egraph -algorithm pagerank -generate rmat -scale 16 -layout grid -p 256 -flow auto -v
//	egraph -algorithm pagerank -generate twitter -scale 20 -layout grid -flow pull -sync nolock
//	egraph -algorithm sssp -input edges.txt -format text -layout adjacency
//	egraph -algorithm wcc -generate road -scale 9 -layout edgearray
//	egraph -algorithm pagerank -store rmat20.egs -membudget 64
package main

import (
	"cmp"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	everythinggraph "github.com/epfl-repro/everythinggraph"
	"github.com/epfl-repro/everythinggraph/internal/core"
	"github.com/epfl-repro/everythinggraph/internal/metrics"
)

func main() {
	var (
		algorithm = flag.String("algorithm", "bfs", "bfs | pagerank | wcc | sssp | spmv | als")
		generate  = flag.String("generate", "rmat", "rmat | twitter | road | bipartite (ignored when -input is given)")
		input     = flag.String("input", "", "edge-list file to load instead of generating")
		format    = flag.String("format", "text", "input format: text | binary")
		directed  = flag.Bool("directed", true, "treat the input file as directed")
		scale     = flag.Int("scale", 18, "log2 of the vertex count for generated graphs")
		seed      = flag.Int64("seed", 42, "generator seed")
		layoutF   = flag.String("layout", "adjacency", "edgearray | adjacency | adjacency-sorted | grid")
		flowF     = flag.String("flow", "push", "push | pull | pushpull | auto (adaptive planner)")
		syncF     = flag.String("sync", "atomics", "locks | atomics | nolock")
		prepF     = flag.String("prep", "radix", "dynamic | count | radix")
		gridP     = flag.Int("p", 0, "grid dimension for -layout grid (0 = paper's 256, clamped for small graphs and oversized requests)")
		source    = flag.Uint("source", 0, "source vertex for bfs/sssp")
		sourcesF  = flag.String("sources", "", "comma-separated source vertices for a batched run (bfs and sssp only, in-memory): one single-source run per source, side by side on worker-pool leases (one after another under -lease); overrides -source")
		prIters   = flag.Int("pagerank-iterations", 10, "PageRank iteration count")
		workers   = flag.Int("workers", 0, "worker count (0 = all CPUs)")
		leaseN    = flag.Int("lease", 0, "run on a worker-pool lease of up to this many workers (the concurrent-query serving mode; 0 = the shared pool)")
		storePath = flag.String("store", "", "run out-of-core over this partitioned grid store (see gengraph -format store)")
		memBudget = flag.Int64("membudget", 0, "resident edge-buffer budget in MiB for -store runs (0 = 256), split between each worker's two segment buffers; every pass uses the whole budget")
		traceOut  = flag.String("trace", "", "write a Chrome/Perfetto trace-event JSON file of the run (iteration spans, planner decisions, fetch and stall events; open in chrome://tracing or ui.perfetto.dev)")
		metricsO  = flag.String("metrics-out", "", "write the run's flat counters-and-histograms snapshot as JSON")
		verbose   = flag.Bool("v", false, "print per-iteration statistics")
	)
	flag.Parse()

	cfg := everythinggraph.Config{Workers: *workers, GridP: *gridP, MemoryBudget: *memBudget << 20}
	if *leaseN > 0 {
		lease := everythinggraph.NewLease(*leaseN)
		defer lease.Release()
		cfg.Lease = lease
	}
	var err error
	if cfg.Layout, err = parseLayout(*layoutF); err != nil {
		fatal(err)
	}
	if cfg.Flow, err = parseFlow(*flowF); err != nil {
		fatal(err)
	}
	if cfg.Sync, err = parseSync(*syncF); err != nil {
		fatal(err)
	}
	if cfg.Prep, err = parsePrep(*prepF); err != nil {
		fatal(err)
	}
	if *storePath == "" {
		// Reject impossible technique combinations before paying for
		// generation, loading or pre-processing.
		if err := everythinggraph.ValidateTechniques(cfg.Layout, cfg.Flow, cfg.Sync); err != nil {
			fatal(err)
		}
	}
	batchSources, err := parseSources(*sourcesF)
	if err != nil {
		fatal(err)
	}
	if len(batchSources) > 0 {
		// Fail fast, like the technique validation above: only the
		// single-source traversals batch.
		if *algorithm != "bfs" && *algorithm != "sssp" {
			fatal(fmt.Errorf("-sources batches identical traversals; it requires -algorithm bfs or sssp (got %q)", *algorithm))
		}
		if *storePath != "" {
			fatal(fmt.Errorf("-sources runs batches in memory; it cannot be combined with -store"))
		}
	}

	if *traceOut != "" || *metricsO != "" {
		cfg.Trace = everythinggraph.NewTraceRecorder(0)
	}

	if *storePath != "" {
		runStore(*storePath, *algorithm, cfg, everythinggraph.VertexID(*source), *prIters, *verbose)
		writeTraceOutputs(cfg.Trace, *traceOut, *metricsO)
		return
	}

	g, users, err := buildGraph(*input, *format, *directed, *generate, *scale, *seed)
	if err != nil {
		fatal(err)
	}

	if len(batchSources) > 0 {
		runBatch(g, *algorithm, batchSources, cfg, *verbose)
		writeTraceOutputs(cfg.Trace, *traceOut, *metricsO)
		return
	}

	alg, err := makeAlgorithm(*algorithm, everythinggraph.VertexID(*source), *prIters, users, g)
	if err != nil {
		fatal(err)
	}
	if *algorithm == "wcc" {
		undirected := true
		cfg.Undirected = &undirected
	}

	res, err := g.Run(alg, cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	printConfiguration(g, cfg)
	fmt.Printf("algorithm: %s, %d iterations\n", res.Run.Algorithm, res.Run.Iterations)
	fmt.Printf("breakdown: %s\n", res.Breakdown)
	if cfg.Flow == everythinggraph.FlowAuto {
		fmt.Printf("plan trace: %s\n", metrics.CompressPlanTrace(res.Run.PlanTrace()))
	}
	printIterations(res.Run.PerIteration, *verbose)
	printAlgorithmSummary(alg)
	writeTraceOutputs(cfg.Trace, *traceOut, *metricsO)
}

// printConfiguration prints the in-memory configuration line; a grid run
// adds the dimension P its grid was built at, which plan labels do not carry.
func printConfiguration(g *everythinggraph.Graph, cfg everythinggraph.Config) {
	fmt.Printf("configuration: layout=%v flow=%v sync=%v prep=%v", cfg.Layout, cfg.Flow, cfg.Sync, cfg.Prep)
	if cfg.Layout == everythinggraph.LayoutGrid {
		fmt.Printf(" p=%d", g.Internal().Grid.P)
	}
	fmt.Println()
}

// writeTraceOutputs exports the run recorder: a Chrome trace-event file, a
// flat metrics snapshot, or both.
func writeTraceOutputs(rec *everythinggraph.TraceRecorder, tracePath, metricsPath string) {
	if rec == nil {
		return
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			fatal(err)
		}
		if err := rec.WriteChromeTrace(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: wrote %d events to %s (%d dropped)\n", rec.Len(), tracePath, rec.Dropped())
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			fatal(err)
		}
		if err := rec.Snapshot().WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("metrics: wrote snapshot to %s\n", metricsPath)
	}
}

// parseSources parses the -sources list into vertex ids.
func parseSources(s string) ([]everythinggraph.VertexID, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]everythinggraph.VertexID, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		v, err := strconv.ParseUint(p, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("invalid source %q in -sources", p)
		}
		out = append(out, everythinggraph.VertexID(v))
	}
	return out, nil
}

// runBatch answers the -sources queries with one batched call and prints a
// per-batch summary (per-source lines with -v).
func runBatch(g *everythinggraph.Graph, algorithm string, sources []everythinggraph.VertexID, cfg everythinggraph.Config, verbose bool) {
	kind := everythinggraph.BatchBFS
	if algorithm == "sssp" {
		kind = everythinggraph.BatchSSSP
	}
	results, err := g.Batch(kind, sources, cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	printConfiguration(g, cfg)
	fmt.Printf("batch: %s over %d sources in %d lane(s) side by side\n", algorithm, len(sources), everythinggraph.BatchLanes(cfg, len(sources)))
	if cfg.Flow == everythinggraph.FlowAuto {
		fmt.Printf("plan trace: %s\n", metrics.CompressPlanTrace(results[0].Run.PlanTrace()))
	}
	totalReached := 0
	for _, r := range results {
		reached := 0
		for v := range r.Level {
			if r.Level[v] >= 0 {
				reached++
			}
		}
		for v := range r.Dist {
			if !isInf32(r.Dist[v]) {
				reached++
			}
		}
		totalReached += reached
		if verbose {
			fmt.Printf("  source %9d: reached %d\n", r.Source, reached)
		}
	}
	fmt.Printf("result: %.1f vertices reached per source (avg over %d sources)\n",
		float64(totalReached)/float64(len(sources)), len(sources))
}

func isInf32(f float32) bool { return math.IsInf(float64(f), 1) }

// runStore executes an algorithm out-of-core over a partitioned grid store.
func runStore(path, algorithm string, cfg everythinggraph.Config, source everythinggraph.VertexID, prIters int, verbose bool) {
	st, err := everythinggraph.OpenStore(path)
	if err != nil {
		fatal(err)
	}
	defer st.Close()

	if algorithm == "wcc" && !st.Undirected() {
		fatal(fmt.Errorf("wcc needs mirrored edges, but %s was built without -undirected (rebuild with gengraph -format store -undirected)", path))
	}
	alg, err := makeAlgorithm(algorithm, source, prIters, 0, nil)
	if err != nil {
		fatal(err)
	}

	res, err := st.Run(alg, cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("store: %s, %d vertices, %d stored edges, %dx%d grid\n",
		path, st.NumVertices(), st.NumEdges(), st.GridP(), st.GridP())
	fmt.Printf("configuration: out-of-core flow=%v sync=no-lock budget=%gMiB\n",
		cfg.Flow, float64(cmp.Or(cfg.MemoryBudget, core.DefaultStreamMemoryBudget))/(1<<20))
	fmt.Printf("algorithm: %s, %d iterations\n", res.Run.Algorithm, res.Run.Iterations)
	fmt.Printf("breakdown: %s\n", res.Breakdown)
	if cfg.Flow == everythinggraph.FlowAuto {
		fmt.Printf("plan trace: %s\n", metrics.CompressPlanTrace(res.Run.PlanTrace()))
	}
	io := st.IOStats()
	fmt.Printf("io: %d reads, %.1f MiB, peak resident %.1f MiB\n",
		io.Reads, float64(io.BytesRead)/(1<<20), float64(io.PeakResidentBytes)/(1<<20))
	printIterations(res.Run.PerIteration, verbose)
	printAlgorithmSummary(alg)
}

// printIterations prints the per-iteration table when verbose is set.
func printIterations(iters []everythinggraph.IterationStats, verbose bool) {
	if !verbose {
		return
	}
	for _, it := range iters {
		line := fmt.Sprintf("  iteration %3d: active=%9d plan=%s time=%v",
			it.Iteration, it.ActiveVertices, it.Plan, it.Duration)
		if it.IOWait > 0 {
			line += fmt.Sprintf(" io-wait=%v", it.IOWait)
		}
		fmt.Println(line)
	}
}

// buildGraph loads or generates the dataset. It returns the user count for
// bipartite graphs (needed by ALS).
func buildGraph(input, format string, directed bool, generate string, scale int, seed int64) (*everythinggraph.Graph, int, error) {
	if input != "" {
		f, err := os.Open(input)
		if err != nil {
			return nil, 0, err
		}
		defer f.Close()
		if format == "binary" {
			g, err := everythinggraph.LoadBinary(f, directed)
			return g, 0, err
		}
		g, err := everythinggraph.LoadText(f, directed)
		return g, 0, err
	}
	switch generate {
	case "rmat":
		return everythinggraph.GenerateRMAT(scale, 16, seed), 0, nil
	case "twitter":
		return everythinggraph.GenerateTwitterProfile(scale, seed), 0, nil
	case "road":
		side := 1 << (scale / 2)
		return everythinggraph.GenerateRoad(side, side, seed), 0, nil
	case "bipartite":
		users := 1 << scale
		return everythinggraph.GenerateBipartite(users, users/16, 32, seed), users, nil
	default:
		return nil, 0, fmt.Errorf("unknown generator %q", generate)
	}
}

func makeAlgorithm(name string, source everythinggraph.VertexID, prIters, users int, g *everythinggraph.Graph) (everythinggraph.Algorithm, error) {
	switch name {
	case "bfs":
		return everythinggraph.BFS(source), nil
	case "pagerank":
		pr := everythinggraph.PageRank()
		pr.Iterations = prIters
		return pr, nil
	case "wcc":
		return everythinggraph.WCC(), nil
	case "sssp":
		return everythinggraph.SSSP(source), nil
	case "spmv":
		return everythinggraph.SpMV(), nil
	case "als":
		if users == 0 {
			if g == nil {
				return nil, fmt.Errorf("als is not supported out-of-core (bipartite stores carry no user count)")
			}
			// Assume the first half of the vertex space is users when the
			// dataset was loaded from a file.
			users = g.NumVertices() / 2
		}
		return everythinggraph.ALS(users), nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", name)
	}
}

// printAlgorithmSummary prints a small algorithm-specific result line.
func printAlgorithmSummary(alg everythinggraph.Algorithm) {
	switch a := alg.(type) {
	case interface{ Reached() int }:
		fmt.Printf("result: %d vertices reached\n", a.Reached())
	case interface{ NumComponents() int }:
		fmt.Printf("result: %d components\n", a.NumComponents())
	case interface{ TotalRank() float64 }:
		fmt.Printf("result: total rank mass %.6f\n", a.TotalRank())
	}
}

func parseLayout(s string) (everythinggraph.Layout, error) {
	switch strings.ToLower(s) {
	case "edgearray", "edge-array", "edge":
		return everythinggraph.LayoutEdgeArray, nil
	case "adjacency", "adj":
		return everythinggraph.LayoutAdjacency, nil
	case "adjacency-sorted", "adj-sorted":
		return everythinggraph.LayoutAdjacencySorted, nil
	case "grid":
		return everythinggraph.LayoutGrid, nil
	default:
		return 0, fmt.Errorf("unknown layout %q", s)
	}
}

func parseFlow(s string) (everythinggraph.Flow, error) {
	switch strings.ToLower(s) {
	case "push":
		return everythinggraph.FlowPush, nil
	case "pull":
		return everythinggraph.FlowPull, nil
	case "pushpull", "push-pull":
		return everythinggraph.FlowPushPull, nil
	case "auto", "adaptive":
		return everythinggraph.FlowAuto, nil
	default:
		return 0, fmt.Errorf("unknown flow %q", s)
	}
}

func parseSync(s string) (everythinggraph.Sync, error) {
	switch strings.ToLower(s) {
	case "locks", "lock":
		return everythinggraph.SyncLocks, nil
	case "atomics", "atomic", "cas":
		return everythinggraph.SyncAtomics, nil
	case "nolock", "no-lock", "partitionfree", "partition-free":
		return everythinggraph.SyncPartitionFree, nil
	default:
		return 0, fmt.Errorf("unknown sync mode %q", s)
	}
}

func parsePrep(s string) (everythinggraph.PrepMethod, error) {
	switch strings.ToLower(s) {
	case "dynamic":
		return everythinggraph.PrepDynamic, nil
	case "count", "countsort", "count-sort":
		return everythinggraph.PrepCountSort, nil
	case "radix", "radixsort", "radix-sort":
		return everythinggraph.PrepRadixSort, nil
	default:
		return 0, fmt.Errorf("unknown pre-processing method %q", s)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "egraph: %v\n", err)
	os.Exit(1)
}
