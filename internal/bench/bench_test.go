package bench

import (
	"bytes"
	"fmt"
	"io"
	"regexp"
	"strings"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/sched"
)

// TestRegistryComplete checks that every figure and table of the paper's
// evaluation has a registered experiment, except the three that are not
// reproduced because they need hardware this reproduction does not model:
// Section 7 (a multi-node NUMA host), Table 3 (loading from an SSD and an
// HDD) and Table 4 (LLC miss ratios read from hardware counters).
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig3", "fig5", "fig6", "fig7", "fig8",
		"table1", "table2", "table5", "table6",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	// Ablation experiments beyond the paper's figures are allowed; the
	// registry must contain at least the paper's results.
	if len(All()) < len(want) {
		t.Errorf("registry has %d experiments, want at least %d", len(All()), len(want))
	}
	ablations := []string{"ablation-grid", "ablation-alpha", "ablation-prep", "ablation-workers"}
	for _, id := range ablations {
		if _, ok := ByID(id); !ok {
			t.Errorf("ablation experiment %q not registered", id)
		}
	}
}

// TestAllExperimentsRunAtQuickScale executes every experiment at the Quick
// scale and compares its report, durations masked, with quickGolden: the
// table titles, column headers, row labels and the deterministic count
// columns (fig6's active vertices, ablation-alpha's pull iterations,
// ablation-grid's cells, table1's sizes). ablation-workers has one row per
// worker count up to sched.MaxWorkers, so its rows are derived here.
func TestAllExperimentsRunAtQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers are slow in -short mode")
	}
	want := map[string]string{"ablation-workers": workersGolden(sched.MaxWorkers())}
	for id, g := range quickGolden {
		want[id] = g
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(Quick, &buf); err != nil {
				t.Fatalf("experiment %s failed: %v", e.ID, err)
			}
			golden, ok := want[e.ID]
			if !ok {
				t.Fatalf("experiment %s has no golden report", e.ID)
			}
			if got := maskReport(buf.String()); got != golden {
				t.Fatalf("experiment %s report, durations masked:\n%s\nwant:\n%s", e.ID, got, golden)
			}
		})
	}
}

var (
	durationRE = regexp.MustCompile(`\b\d+\.\d{3}s\b`)
	columnGap  = regexp.MustCompile(`\s{2,}`)
)

// maskReport replaces every duration of a report with T and every column
// gap with " | ", so the comparison ignores timings and column widths.
func maskReport(out string) string {
	var lines []string
	for _, l := range strings.Split(strings.TrimSpace(out), "\n") {
		l = durationRE.ReplaceAllString(strings.TrimSpace(l), "T")
		lines = append(lines, strings.Join(columnGap.Split(l, -1), " | "))
	}
	return strings.Join(lines, "\n")
}

// workersGolden is ablation-workers' masked Quick report on a host with
// maxW workers: powers of two below maxW, then maxW.
func workersGolden(maxW int) string {
	lines := []string{
		"== Ablation: worker scaling on RMAT12 (PageRank, 5 iterations) ==",
		"configuration | push-locks | pull-no-lock",
	}
	for w := 1; w < maxW; w *= 2 {
		lines = append(lines, fmt.Sprintf("workers=%d | T | T", w))
	}
	lines = append(lines, fmt.Sprintf("workers=%d | T | T", maxW))
	return strings.Join(lines, "\n")
}

// quickGolden holds every other experiment's masked report at the Quick
// scale.
var quickGolden = map[string]string{
	"ablation-alpha": `== Ablation: push-pull threshold |E|/alpha on RMAT12 (BFS) ==
configuration | pull-iterations | algorithm
alpha=1 | 0 | T
alpha=5 | 2 | T
alpha=20 | 2 | T
alpha=100 | 3 | T
alpha=1000 | 4 | T`,
	"ablation-grid": `== Ablation: grid dimension on RMAT12 (PageRank, 5 iterations) ==
configuration | cells | preprocess | algorithm | total
P=16 | 256 | T | T | T
P=32 | 1024 | T | T | T
P=64 | 4096 | T | T | T
P=128 | 16384 | T | T | T
P=256 | 65536 | T | T | T`,
	"ablation-prep": `== Ablation: construction method x direction on RMAT12 ==
configuration | out | in | in-out
dynamic | T | T | T
count-sort | T | T | T
radix-sort | T | T | T`,
	"fig1": `== Figure 1: BFS on Twitter-profile (scale 12, 98304 edges) ==
configuration | preprocess | algorithm | total
bfs push-pull | T | T | T
bfs push | T | T | T`,
	"fig2": `== Figure 2: pre-processing scaling, RMAT9..RMAT12 (edge factor 8) ==
configuration | radix sort | dynamic | count sort
RMAT9 | T | T | T
RMAT10 | T | T | T
RMAT11 | T | T | T
RMAT12 | T | T | T`,
	"fig3": `== Figure 3: layout vs traversal on RMAT12 (32768 edges) ==
configuration | preprocess | algorithm | total
bfs / adj. list | T | T | T
bfs / edge array | T | T | T
pagerank / adj. list | T | T | T
pagerank / edge array | T | T | T
spmv / adj. list | T | T | T
spmv / edge array | T | T | T`,
	"fig5": `== Figure 5: cache optimizations end-to-end on RMAT12 (32768 edges) ==
configuration | preprocess | algorithm | total
bfs / adj. unsorted | T | T | T
bfs / adj. sorted | T | T | T
bfs / edge array | T | T | T
bfs / grid | T | T | T
pagerank / adj. unsorted | T | T | T
pagerank / adj. sorted | T | T | T
pagerank / edge array | T | T | T
pagerank / grid | T | T | T`,
	"fig6": `== Figure 6: per-iteration push vs pull, BFS on RMAT12 ==
configuration | active | push | pull
iteration 1 | 1 | T | T
iteration 2 | 581 | T | T
iteration 3 | 1703 | T | T
iteration 4 | 220 | T | T
iteration 5 | 7 | T | T`,
	"fig7": `== Figure 7: BFS flow configurations on RMAT12 (directed) ==
configuration | preprocess | algorithm | total
adj. push-pull | T | T | T
adj. push (locks) | T | T | T
adj. pull (no lock) | T | T | T`,
	"fig8": `== Figure 8: PageRank synchronization on RMAT12 (5 iterations) ==
configuration | preprocess | algorithm | total
adj. push (locks) | T | T | T
adj. pull (no lock) | T | T | T
grid (locks) | T | T | T
grid (no lock) | T | T | T`,
	"table1": `== Table 1: datasets (generated stand-ins; paper originals in parentheses) ==
configuration | vertices | edges | paper original
RMAT12 | 4096 | 32768 | RMAT-N: 2^N vertices, 2^(N+4) edges
Twitter-profile | 4096 | 98304 | Twitter: 62M vertices, 1468M edges
US-Road-profile | 9216 | 18709 | US-Road: 23.9M vertices, 58M edges
Netflix-profile | 2300 | 21678 | Netflix: 0.5M vertices, 100M edges`,
	"table2": `== Table 2: adjacency-list creation on Twitter-profile (scale 12, 98304 edges) ==
configuration | out | in-out
dynamic | T | T
count sort | T | T
radix sort | T | T`,
	"table5": `== Table 5: best approaches for BFS and PageRank ==
configuration | preprocess | algorithm | total
bfs / twitter / adj. list / push | T | T | T
bfs / us-road / adj. list / push | T | T | T
pagerank / twitter / grid / pull (no lock) | T | T | T
pagerank / us-road / edge array / pull | T | T | T`,
	"table6": `== Table 6: best approaches for WCC, SpMV, SSSP and ALS ==
configuration | preprocess | algorithm | total
wcc / rmat / edge array / push | T | T | T
wcc / twitter / edge array / push | T | T | T
wcc / us-road / adj. list / push | T | T | T
spmv / rmat / edge array / push | T | T | T
spmv / twitter / edge array / push | T | T | T
spmv / us-road / edge array / push | T | T | T
sssp / rmat / adj. list / push | T | T | T
sssp / twitter / adj. list / push | T | T | T
sssp / us-road / adj. list / push | T | T | T
als / netflix / adj. list / pull (no lock) | T | T | T`,
}

// TestByIDUnknown checks the negative lookup path.
func TestByIDUnknown(t *testing.T) {
	if _, ok := ByID("fig999"); ok {
		t.Fatal("expected lookup of unknown experiment to fail")
	}
}

// TestIDsSorted checks that IDs returns a sorted, duplicate-free list.
func TestIDsSorted(t *testing.T) {
	ids := IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("IDs not strictly sorted: %q >= %q", ids[i-1], ids[i])
		}
	}
}

// TestTable6WCCMatchesUnionFind: the WCC rows run on the undirected view, so
// the rmat cell finds the weakly connected components a union-find over the
// edge array finds (1,120 at the Quick scale; label propagation along
// out-edges only ends with 1,581 labels).
func TestTable6WCCMatchesUnionFind(t *testing.T) {
	e, _ := ByID("table6")
	var c cell
	for _, c = range e.cells(Quick) {
		if c.row == "wcc / rmat / edge array / push" {
			break
		}
	}
	if c.row != "wcc / rmat / edge array / push" {
		t.Fatal("table6 has no rmat WCC cell")
	}
	base := c.data.make(Quick)
	alg := c.alg()
	if _, _, err := measure(base, c.cfg, alg); err != nil {
		t.Fatalf("%s: %v", c.row, err)
	}
	got := alg.(interface{ NumComponents() int }).NumComponents()

	parent := make([]uint32, base.NumVertices())
	for v := range parent {
		parent[v] = uint32(v)
	}
	var find func(v uint32) uint32
	find = func(v uint32) uint32 {
		if parent[v] != v {
			parent[v] = find(parent[v])
		}
		return parent[v]
	}
	want := len(parent)
	for _, edge := range base.EdgeArray.Edges {
		if a, b := find(uint32(edge.Src)), find(uint32(edge.Dst)); a != b {
			parent[a] = b
			want--
		}
	}
	if got != want {
		t.Fatalf("%s: %d components, union-find finds %d", c.row, got, want)
	}
}

// benchScale is larger than the Quick scale so layout effects are visible,
// smaller than the Default scale so the whole suite stays tractable.
var benchScale = Scale{
	RMATScale:          16,
	RMATEdgeFactor:     16,
	TwitterScale:       16,
	RoadWidth:          384,
	RoadHeight:         384,
	BipartiteUsers:     20000,
	BipartiteItems:     2000,
	BipartiteRatings:   24,
	PagerankIterations: 10,
	Seed:               42,
}

// BenchmarkExperiments runs each registered experiment once per iteration at
// benchScale, dataset generation and pre-processing included: the paper's
// subject is the end-to-end cost, not steady-state algorithm throughput.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range All() {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := e.Run(benchScale, io.Discard); err != nil {
					b.Fatalf("experiment %s: %v", e.ID, err)
				}
			}
		})
	}
}
