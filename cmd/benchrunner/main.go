// Command benchrunner regenerates the figures and tables of the paper's
// evaluation. Each experiment prints a table with the same rows/series the
// paper reports; see DESIGN.md for the experiment index and EXPERIMENTS.md
// for a discussion of paper-vs-measured results.
//
// Usage:
//
//	benchrunner -experiment all                # run everything
//	benchrunner -experiment fig5,table2        # run a subset
//	benchrunner -list                          # list experiment ids
//	benchrunner -experiment fig9 -rmat-scale 22
//	benchrunner -perf-json BENCH_1.json        # archive the perf trajectory
//	benchrunner -plan-trace                    # print adaptive plan traces
//	benchrunner -plan-trace -cost-cache costs.json  # warm-start adaptive cases
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"github.com/epfl-repro/everythinggraph/internal/bench"
)

func main() {
	var (
		experiments = flag.String("experiment", "all", "comma-separated experiment ids, or 'all'")
		list        = flag.Bool("list", false, "list available experiments and exit")
		rmatScale   = flag.Int("rmat-scale", bench.Default.RMATScale, "log2 of the RMAT vertex count")
		twScale     = flag.Int("twitter-scale", bench.Default.TwitterScale, "log2 of the Twitter-profile vertex count")
		roadSide    = flag.Int("road-side", bench.Default.RoadWidth, "road lattice side length")
		prIters     = flag.Int("pagerank-iterations", bench.Default.PagerankIterations, "PageRank iteration count")
		workers     = flag.Int("workers", 0, "worker count (0 = all CPUs)")
		seed        = flag.Int64("seed", bench.Default.Seed, "dataset generation seed")
		quick       = flag.Bool("quick", false, "use the small quick scale (for smoke runs)")
		perfJSON    = flag.String("perf-json", "", "run the perf trajectory suite (RMAT-scale-16 engine microbenchmarks) and write the JSON report to this path instead of running experiments")
		planTrace   = flag.Bool("plan-trace", false, "run the adaptive (-flow auto) cases once — in-memory and streamed over a grid store — and print their per-iteration plan traces instead of running experiments")
		costCache   = flag.String("cost-cache", "", "JSON cost cache for the adaptive cases of -perf-json and -plan-trace: seed each case's cost model with this dataset's measured per-edge plan costs and append this run's measurements (same file format as egraph -cost-cache)")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	scale := bench.Default
	if *quick {
		scale = bench.Quick
	}
	scale.RMATScale = *rmatScale
	scale.TwitterScale = *twScale
	scale.RoadWidth, scale.RoadHeight = *roadSide, *roadSide
	scale.PagerankIterations = *prIters
	scale.Workers = *workers
	scale.Seed = *seed
	scale.CostCachePath = *costCache
	if *costCache != "" && *perfJSON == "" && !*planTrace {
		fmt.Fprintln(os.Stderr, "benchrunner: -cost-cache feeds the adaptive perf cases; it requires -perf-json or -plan-trace")
		os.Exit(1)
	}
	if *quick {
		// Quick mode keeps its reduced sizes unless explicitly overridden.
		if !flagPassed("rmat-scale") {
			scale.RMATScale = bench.Quick.RMATScale
		}
		if !flagPassed("twitter-scale") {
			scale.TwitterScale = bench.Quick.TwitterScale
		}
		if !flagPassed("road-side") {
			scale.RoadWidth, scale.RoadHeight = bench.Quick.RoadWidth, bench.Quick.RoadHeight
		}
		if !flagPassed("pagerank-iterations") {
			scale.PagerankIterations = bench.Quick.PagerankIterations
		}
	}

	if *planTrace {
		// Same default scale rule as the perf suite: the adaptive
		// acceptance configuration is RMAT-scale-16.
		traceScale := scale
		if !flagPassed("rmat-scale") {
			traceScale.RMATScale = 16
		}
		traces, err := bench.PlanTraces(traceScale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: plan trace failed: %v\n", err)
			os.Exit(1)
		}
		for _, tr := range traces {
			fmt.Printf("%-28s %2d iterations  %s\n", tr.Name, tr.Iterations, tr.PlanTrace)
		}
		if *perfJSON == "" {
			return
		}
	}

	if *perfJSON != "" {
		// The perf trajectory defaults to RMAT-scale-16 (the acceptance
		// benchmark of the zero-allocation engine work) unless overridden.
		perfScale := scale
		if !flagPassed("rmat-scale") {
			perfScale.RMATScale = 16
		}
		f, err := os.Create(*perfJSON)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
			os.Exit(1)
		}
		if err := bench.WritePerfJSON(perfScale, f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "benchrunner: perf suite failed: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("perf trajectory written to %s\n", *perfJSON)
		host := fmt.Sprintf("host: %s, GOMAXPROCS=%d", runtime.Version(), runtime.GOMAXPROCS(0))
		if cpu := bench.HostCPUModel(); cpu != "" {
			host += ", cpu=" + cpu
		}
		fmt.Println(host)
		return
	}

	var ids []string
	if *experiments == "all" {
		ids = bench.IDs()
	} else {
		ids = strings.Split(*experiments, ",")
	}

	exitCode := 0
	for _, id := range ids {
		id = strings.TrimSpace(id)
		e, ok := bench.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchrunner: unknown experiment %q (use -list)\n", id)
			exitCode = 1
			continue
		}
		fmt.Printf("### %s — %s\n\n", e.ID, e.Title)
		if err := e.Run(scale, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: experiment %s failed: %v\n", id, err)
			exitCode = 1
		}
	}
	os.Exit(exitCode)
}

// flagPassed reports whether a flag was explicitly set on the command line.
func flagPassed(name string) bool {
	passed := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			passed = true
		}
	})
	return passed
}
