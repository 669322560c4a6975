// Package bench contains one experiment driver per figure and table of the
// paper's evaluation. Every driver generates the workload, runs the relevant
// configurations, and prints a table with the same rows/series the paper
// reports (pre-processing and algorithm execution times, per-iteration
// times). Every number is measured on the host; results that need hardware
// it lacks (the NUMA study of §7, Table 3's devices, the hardware-counter
// LLC miss ratios of Tables 2 and 4) are not reproduced. Absolute numbers
// differ from the paper (different hardware, smaller default graph scales);
// the experiments reproduce the relative behaviour — who wins, by roughly
// what factor, and where the crossovers are.
//
// The drivers are exercised three ways: by cmd/benchrunner (human-readable
// reports), by the repository-root bench_test.go (testing.B benchmarks), and
// by the package's own tests (shape assertions on small scales).
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"github.com/epfl-repro/everythinggraph/internal/core"
	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/metrics"
	"github.com/epfl-repro/everythinggraph/internal/prep"
)

// Scale controls the workload sizes. The paper's graphs (RMAT26, the
// Twitter follower graph) need hundreds of gigabytes of RAM and hours of
// machine time; the default scale keeps every experiment in the
// single-gigabyte / tens-of-seconds range while preserving the power-law
// structure that drives the results. The Quick scale is for unit tests.
type Scale struct {
	// RMATScale is log2 of the RMAT vertex count (the paper uses 26).
	RMATScale int
	// RMATEdgeFactor is the edges-per-vertex ratio (paper: 16).
	RMATEdgeFactor int
	// TwitterScale is log2 of the Twitter-profile vertex count.
	TwitterScale int
	// RoadWidth and RoadHeight are the road-lattice dimensions.
	RoadWidth, RoadHeight int
	// BipartiteUsers/Items/Ratings configure the ALS dataset.
	BipartiteUsers, BipartiteItems, BipartiteRatings int
	// PagerankIterations is the fixed PageRank iteration count (paper: 10).
	PagerankIterations int
	// Workers bounds parallelism (0 = all CPUs).
	Workers int
	// GridP is the grid dimension (0 = paper default 256, clamped).
	GridP int
	// Seed makes the generated datasets deterministic.
	Seed int64
}

// Default is the scale used by cmd/benchrunner and bench_test.go.
var Default = Scale{
	RMATScale:          20,
	RMATEdgeFactor:     16,
	TwitterScale:       20,
	RoadWidth:          768,
	RoadHeight:         768,
	BipartiteUsers:     60000,
	BipartiteItems:     4000,
	BipartiteRatings:   32,
	PagerankIterations: 10,
	GridP:              0,
	Seed:               42,
}

// Quick is a small scale for unit tests of the experiment drivers.
var Quick = Scale{
	RMATScale:          12,
	RMATEdgeFactor:     8,
	TwitterScale:       12,
	RoadWidth:          96,
	RoadHeight:         96,
	BipartiteUsers:     2000,
	BipartiteItems:     300,
	BipartiteRatings:   16,
	PagerankIterations: 5,
	GridP:              0,
	Seed:               42,
}

// Experiment is one reproducible figure or table.
type Experiment struct {
	// ID is the short identifier ("fig1", "table2", ...).
	ID string
	// Title describes the paper result being reproduced.
	Title string
	// Run executes the experiment at the given scale and writes its report.
	Run func(s Scale, w io.Writer) error
}

// registry holds every experiment keyed by ID.
var registry = map[string]Experiment{}

// register adds an experiment to the registry (called from init functions
// of the experiment files).
func register(e Experiment) {
	registry[e.ID] = e
}

// All returns every experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// IDs returns the sorted experiment identifiers.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// --- workload construction helpers -----------------------------------------

// rmatGraph generates the RMAT workload for the scale.
func rmatGraph(s Scale) *graph.Graph {
	return gen.RMAT(gen.RMATOptions{
		Scale:      s.RMATScale,
		EdgeFactor: s.RMATEdgeFactor,
		Seed:       s.Seed,
		Weighted:   true,
		Workers:    s.Workers,
	})
}

// twitterGraph generates the Twitter-profile workload.
func twitterGraph(s Scale) *graph.Graph {
	return gen.TwitterProfile(gen.TwitterProfileOptions{
		Scale:    s.TwitterScale,
		Seed:     s.Seed,
		Weighted: true,
		Workers:  s.Workers,
	})
}

// roadGraph generates the road-lattice workload.
func roadGraph(s Scale) *graph.Graph {
	return gen.Road(gen.RoadOptions{
		Width:            s.RoadWidth,
		Height:           s.RoadHeight,
		ShortcutFraction: 0.05,
		Seed:             s.Seed,
		Weighted:         true,
	})
}

// bipartiteGraph generates the rating-graph workload for ALS.
func bipartiteGraph(s Scale) *graph.Graph {
	return gen.Bipartite(gen.BipartiteOptions{
		Users:          s.BipartiteUsers,
		Items:          s.BipartiteItems,
		RatingsPerUser: s.BipartiteRatings,
		Seed:           s.Seed,
	})
}

// --- measurement helpers ----------------------------------------------------

// timed runs fn and returns its wall-clock duration. A garbage collection is
// forced first so that allocations from earlier phases of an experiment do
// not get charged to the measured region.
func timed(fn func()) time.Duration {
	runtime.GC()
	start := time.Now()
	fn()
	return time.Since(start)
}

// buildAdjacencyTimed builds the requested adjacency lists on a fresh view
// of the graph's edge array and returns the wall-clock build time. The
// layouts are attached to g.
func buildAdjacencyTimed(g *graph.Graph, dir prep.Direction, opt prep.Options) (time.Duration, error) {
	var err error
	d := timed(func() {
		err = prep.BuildAdjacency(g, dir, opt)
	})
	return d, err
}

// buildGridTimed builds the grid layout and returns the build time.
func buildGridTimed(g *graph.Graph, gridP int, opt prep.Options) (time.Duration, error) {
	var err error
	d := timed(func() {
		err = prep.BuildGrid(g, gridP, opt)
	})
	return d, err
}

// runAlgorithm executes alg over g under cfg and returns the engine result.
// Like timed, it forces a garbage collection first so pre-processing garbage
// is not collected in the middle of the measured algorithm phase.
func runAlgorithm(g *graph.Graph, alg core.Algorithm, cfg core.Config) (*core.Result, error) {
	runtime.GC()
	return core.Run(g, alg, cfg)
}

// freshCopy returns a new Graph sharing the edge array but with no derived
// layouts, so experiments can time layout construction independently.
func freshCopy(g *graph.Graph) *graph.Graph {
	return &graph.Graph{EdgeArray: g.EdgeArray, Directed: g.Directed}
}

// writeTable renders tbl to w.
func writeTable(w io.Writer, tbl *metrics.Table) error {
	_, err := io.WriteString(w, tbl.String()+"\n")
	return err
}

// fmtDuration renders a duration in seconds.
func fmtDuration(d time.Duration) string { return metrics.FormatSeconds(d) }

// fmtCount renders an integer.
func fmtCount(n int) string { return fmt.Sprintf("%d", n) }
