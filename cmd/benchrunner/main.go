// Command benchrunner regenerates the figures and tables of the paper's
// evaluation. Each experiment prints a table with the same rows/series the
// paper reports; the README's "Benchmarks" section indexes them.
//
// Usage:
//
//	benchrunner -experiment all                # run everything
//	benchrunner -experiment fig5,table2        # run a subset
//	benchrunner -list                          # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
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
