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
		rmatScale   = flag.Int("rmat-scale", 0, "log2 of the RMAT vertex count (0 = the preset's)")
		twScale     = flag.Int("twitter-scale", 0, "log2 of the Twitter-profile vertex count (0 = the preset's)")
		roadSide    = flag.Int("road-side", 0, "road lattice side length (0 = the preset's)")
		prIters     = flag.Int("pagerank-iterations", 0, "PageRank iteration count (0 = the preset's)")
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
	// A size flag left at 0 keeps the preset's value.
	if *rmatScale > 0 {
		scale.RMATScale = *rmatScale
	}
	if *twScale > 0 {
		scale.TwitterScale = *twScale
	}
	if *roadSide > 0 {
		scale.RoadWidth, scale.RoadHeight = *roadSide, *roadSide
	}
	if *prIters > 0 {
		scale.PagerankIterations = *prIters
	}
	scale.Workers = *workers
	scale.Seed = *seed

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
