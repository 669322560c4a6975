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
// An experiment is data: a dataset, a table heading, its columns and a list
// of cells, each one configuration prepared and run through the public
// Graph.Prepare and Graph.Run on a fresh copy of the dataset, so a cell is
// charged exactly the pre-processing its configuration needs. cmd/benchrunner
// prints the reports; the package's tests pin them at the Quick scale and
// BenchmarkExperiments times each one.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"

	eg "github.com/epfl-repro/everythinggraph"
	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/metrics"
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

// Default is the scale cmd/benchrunner runs at.
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

	// data is the dataset of every cell that names none.
	data *dataset
	// heading is the table's title; g is data generated at the scale (nil
	// when the experiment has no dataset of its own).
	heading func(s Scale, g *graph.Graph) string
	columns []string
	cells   func(s Scale) []cell
	// format writes one measured cell into the table (nil: writeTimes).
	format func(t table, c cell, g *eg.Graph, r *eg.Result)
}

// A cell is one measured configuration: the row it fills, the column it
// fills when the experiment's format reads one, the configuration Prepare
// and Run get, and the algorithm to run (nil for a prepare-only cell).
// Workers and GridP left at 0 take the scale's.
type cell struct {
	row, col string
	data     *dataset // nil: the experiment's
	cfg      eg.Config
	alg      func() eg.Algorithm
}

// A dataset generates one workload at a scale. Cells name theirs by
// pointer, so consecutive cells share one generated copy.
type dataset struct {
	paper string // the original the paper used (Table 1)
	make  func(Scale) *graph.Graph
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
	for _, id := range IDs() {
		out = append(out, registry[id])
	}
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

// Run executes the experiment at the given scale and writes its report.
func (e Experiment) Run(s Scale, w io.Writer) error {
	return runCells(e, s, w)
}

// runCells measures every cell of e in order and writes the table.
func runCells(e Experiment, s Scale, w io.Writer) error {
	var base *graph.Graph
	if e.data != nil {
		base = e.data.make(s)
	}
	t := table{metrics.NewTable(e.heading(s, base), e.columns...)}
	format := e.format
	if format == nil {
		format = writeTimes
	}
	cur, g := e.data, base
	for _, c := range e.cells(s) {
		if c.data == nil {
			c.data = e.data
		}
		if c.data != cur {
			cur, g = c.data, c.data.make(s)
		}
		if c.cfg.Workers == 0 {
			c.cfg.Workers = s.Workers
		}
		if c.cfg.GridP == 0 {
			c.cfg.GridP = s.GridP
		}
		var alg eg.Algorithm
		if c.alg != nil {
			alg = c.alg()
		}
		pg, res, err := measure(g, c.cfg, alg)
		if err != nil {
			return fmt.Errorf("%s %q %s: %w", e.ID, c.row, c.col, err)
		}
		format(t, c, pg, res)
	}
	_, err := io.WriteString(w, t.String()+"\n")
	return err
}

// measure wraps base's edges in a fresh Graph, prepares it for cfg and, when
// alg is not nil, runs alg on it. A garbage collection before each phase
// keeps earlier phases' garbage out of the measured one. The result's
// breakdown holds Prepare's pre-processing and the run's algorithm time.
func measure(base *graph.Graph, cfg eg.Config, alg eg.Algorithm) (*eg.Graph, *eg.Result, error) {
	g := eg.NewGraph(base.EdgeArray.Edges, base.NumVertices(), base.Directed)
	runtime.GC()
	bd, err := g.Prepare(cfg)
	if err != nil || alg == nil {
		return g, &eg.Result{Breakdown: bd}, err
	}
	runtime.GC()
	res, err := g.Run(alg, cfg)
	if err != nil {
		return g, nil, err
	}
	res.Breakdown.Preprocess = bd.Preprocess
	return g, res, nil
}

// table is a metrics.Table filled cell by cell: a row is added where its
// label first appears, with every column "-" until a cell sets it.
type table struct{ *metrics.Table }

func (t table) set(row string, values map[string]string) {
	for _, r := range t.Rows {
		if r.Label == row {
			for k, v := range values {
				r.Values[k] = v
			}
			return
		}
	}
	vals := make(map[string]string, len(t.Columns))
	for _, c := range t.Columns {
		vals[c] = "-"
	}
	t.AddRow(row, vals)
	t.set(row, values)
}

// writeTimes is the default format. A cell with a column gets its time
// there: the pre-processing of a prepare-only cell, the algorithm time of
// any other. A cell without one fills the preprocess, algorithm and total
// columns of its row.
func writeTimes(t table, c cell, _ *eg.Graph, r *eg.Result) {
	b := r.Breakdown
	switch {
	case c.col != "" && c.alg == nil:
		t.set(c.row, map[string]string{c.col: metrics.FormatSeconds(b.Preprocess)})
	case c.col != "":
		t.set(c.row, map[string]string{c.col: metrics.FormatSeconds(b.Algorithm)})
	default:
		t.set(c.row, map[string]string{
			"preprocess": metrics.FormatSeconds(b.Preprocess),
			"algorithm":  metrics.FormatSeconds(b.Algorithm),
			"total":      metrics.FormatSeconds(b.Total()),
		})
	}
}

// --- datasets and algorithms ------------------------------------------------

var (
	rmat = &dataset{paper: "RMAT-N: 2^N vertices, 2^(N+4) edges", make: func(s Scale) *graph.Graph {
		return gen.RMAT(gen.RMATOptions{Scale: s.RMATScale, EdgeFactor: s.RMATEdgeFactor, Seed: s.Seed, Weighted: true, Workers: s.Workers})
	}}
	twitter = &dataset{paper: "Twitter: 62M vertices, 1468M edges", make: func(s Scale) *graph.Graph {
		return gen.TwitterProfile(gen.TwitterProfileOptions{Scale: s.TwitterScale, Seed: s.Seed, Weighted: true, Workers: s.Workers})
	}}
	road = &dataset{paper: "US-Road: 23.9M vertices, 58M edges", make: func(s Scale) *graph.Graph {
		return gen.Road(gen.RoadOptions{Width: s.RoadWidth, Height: s.RoadHeight, ShortcutFraction: 0.05, Seed: s.Seed, Weighted: true})
	}}
	netflix = &dataset{paper: "Netflix: 0.5M vertices, 100M edges", make: func(s Scale) *graph.Graph {
		return gen.Bipartite(gen.BipartiteOptions{Users: s.BipartiteUsers, Items: s.BipartiteItems, RatingsPerUser: s.BipartiteRatings, Seed: s.Seed})
	}}
)

func bfs() eg.Algorithm  { return eg.BFS(0) }
func wcc() eg.Algorithm  { return eg.WCC() }
func spmv() eg.Algorithm { return eg.SpMV() }
func sssp() eg.Algorithm { return eg.SSSP(0) }

// pagerank returns the scale's fixed-iteration PageRank constructor.
func pagerank(s Scale) func() eg.Algorithm {
	return func() eg.Algorithm {
		pr := eg.PageRank()
		pr.Iterations = s.PagerankIterations
		return pr
	}
}
