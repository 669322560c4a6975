package bench

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/core"
	"github.com/epfl-repro/everythinggraph/internal/costcache"
	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/metrics"
	"github.com/epfl-repro/everythinggraph/internal/oocore"
	"github.com/epfl-repro/everythinggraph/internal/prep"
	"github.com/epfl-repro/everythinggraph/internal/sched"
	"github.com/epfl-repro/everythinggraph/internal/trace"
)

// This file implements the machine-readable perf trajectory: a fixed suite
// of engine microbenchmarks whose results are archived as BENCH_<pr>.json
// at the repository root, so every subsequent change is held to the
// recorded baseline. The suite deliberately measures steady-state engine
// execution (generation and pre-processing excluded), unlike the
// figure-reproduction experiments, which measure end to end.

// PerfCase is one benchmark of the perf trajectory.
type PerfCase struct {
	// Name identifies the case, stable across PRs.
	Name string `json:"name"`
	// NsPerOp is wall time per operation (one full run, or one iteration
	// for the *_iter cases).
	NsPerOp int64 `json:"ns_per_op"`
	// AllocsPerOp and BytesPerOp come from testing.Benchmark's allocation
	// accounting; the *_iter cases must stay at ~0 allocs (the
	// zero-allocation steady-state contract).
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// Iterations is the number of benchmark operations measured.
	Iterations int `json:"iterations"`
	// PlanTrace is the compressed per-iteration plan trace of one run
	// (adaptive cases only): what the execution planner chose, in order.
	PlanTrace string `json:"plan_trace,omitempty"`
}

// PerfReport is the archived perf trajectory document.
type PerfReport struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CPUModel is the host CPU model string from /proc/cpuinfo (empty when
	// unavailable), stamped so archived baselines say what hardware
	// produced them.
	CPUModel   string     `json:"cpu_model,omitempty"`
	RMATScale  int        `json:"rmat_scale"`
	EdgeFactor int        `json:"rmat_edge_factor"`
	Timestamp  string     `json:"timestamp"`
	Cases      []PerfCase `json:"cases"`
}

// HostCPUModel returns the host CPU model name parsed from /proc/cpuinfo,
// or "" when the file is missing or has no "model name" line (non-Linux
// hosts, stripped containers).
func HostCPUModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

// perfGraph builds the RMAT graph shared by the perf suite.
func perfGraph(scale, edgeFactor int, seed int64, workers int) (*graph.Graph, error) {
	g := gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: edgeFactor, Seed: seed, Workers: workers})
	err := prep.BuildAdjacency(g, prep.InOut, prep.Options{Method: prep.RadixSort, Workers: workers})
	return g, err
}

// perfGridGraph builds the same RMAT dataset with ONLY a grid materialized,
// forced to the paper's 256x256 — the deliberate misfit of the
// grid-resolution cases: at these scales the 256-wide grid drowns in
// per-cell setup, and the planner must climb the pyramid to a coarser level
// instead of taking the seeded P at face value.
func perfGridGraph(scale, edgeFactor int, seed int64, workers int) (*graph.Graph, error) {
	g := gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: edgeFactor, Seed: seed, Workers: workers})
	err := prep.BuildGrid(g, graph.DefaultGridP, prep.Options{Method: prep.RadixSort, Workers: workers})
	return g, err
}

// gridLevelsPinning returns the Config.GridLevels value that pins a static
// grid run to the pyramid level with dimension p (0 when no such level is
// materialized).
func gridLevelsPinning(g *graph.Graph, p int) int {
	for i := 0; i < g.Grid.NumLevels(); i++ {
		if g.Grid.Level(i).P == p {
			return i + 1
		}
	}
	return 0
}

// warmstartCosts is the committed cost cache of the warm-start case: the
// measured per-edge plan costs of earlier adaptive BFS runs on the suite's
// datasets, keyed "bfs@rmat-s<scale>". Embedded so the suite measures the
// second-run-starts-from-measurements behaviour without touching the
// repository's working tree.
//
//go:embed testdata/warmstart_costs.json
var warmstartCosts []byte

// warmAutoConfig returns the auto configuration seeded from the committed
// cost cache for the given algorithm and RMAT scale. An empty seed (a scale
// the cache has no measurements for) degrades to the cold configuration, so
// off-scale runs still execute.
func warmAutoConfig(algorithm string, rmatScale, workers int) (core.Config, error) {
	cache, err := costcache.Decode(warmstartCosts)
	if err != nil {
		return core.Config{}, fmt.Errorf("bench: committed warm-start cache: %w", err)
	}
	key := costcache.Key(algorithm, "", "rmat", rmatScale)
	return core.Config{Flow: core.Auto, Workers: workers, CostPriors: cache.Priors(key)}, nil
}

// perfCompressedGraph builds the suite's RMAT dataset with the compressed
// grid materialized (plus the raw grid it derives from), kept separate from
// the adjacency graph so the adaptive in-memory cases' candidate sets stay
// exactly what their recorded baselines measured.
func perfCompressedGraph(scale, edgeFactor int, seed int64, workers int) (*graph.Graph, error) {
	g := gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: edgeFactor, Seed: seed, Workers: workers})
	err := prep.BuildCompressedGrid(g, 0, prep.Options{Method: prep.RadixSort, Workers: workers})
	return g, err
}

// perfStore writes the suite's RMAT graph as a partitioned grid store in a
// temp directory (cleaned up on Close) for the streamed benchmarks;
// compressed selects the version-2 format with delta+varint cell segments.
func perfStore(scale, edgeFactor int, seed int64, compressed bool) (*perfStoreHandle, error) {
	dir, err := os.MkdirTemp("", "egraph-perf-store")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "perf.egs")
	opt := gen.RMATOptions{Scale: scale, EdgeFactor: edgeFactor, Seed: seed}
	_, err = oocore.BuildStore(path, oocore.BuildOptions{NumVertices: 1 << scale, Compressed: compressed}, func(yield func([]graph.Edge) error) error {
		return gen.StreamRMAT(opt, yield)
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s, err := oocore.Open(path)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &perfStoreHandle{Store: s, dir: dir}, nil
}

// perfStoreHandle removes the temp directory along with the store.
type perfStoreHandle struct {
	*oocore.Store
	dir string
}

func (h *perfStoreHandle) Close() error {
	err := h.Store.Close()
	os.RemoveAll(h.dir)
	return err
}

// costCampaign is the optional cost-cache side of a suite run (Scale.
// CostCachePath, benchrunner -cost-cache): the adaptive cases seed their
// cost models from the cache's measurements for the suite's RMAT dataset
// and append what they measure, exactly like egraph -cost-cache does for
// single runs. A nil *costCampaign (no path configured) is valid and turns
// every method into a no-op, so call sites need no branching.
type costCampaign struct {
	cache *costcache.File
	path  string
	scale int
}

// newCostCampaign loads the cache at path ("" = no campaign, nil receiver).
func newCostCampaign(path string, rmatScale int) (*costCampaign, error) {
	if path == "" {
		return nil, nil
	}
	cache, err := costcache.Load(path)
	if err != nil {
		return nil, err
	}
	return &costCampaign{cache: cache, path: path, scale: rmatScale}, nil
}

// priors returns the cached measurements for an algorithm on the suite's
// dataset, in the shape core.Config.CostPriors takes (nil when unmeasured).
func (c *costCampaign) priors(alg string) map[string]float64 {
	if c == nil {
		return nil
	}
	return c.cache.Priors(costcache.Key(alg, "", "rmat", c.scale))
}

// record merges one adaptive run's measured plan costs into the cache.
func (c *costCampaign) record(alg string, costs map[string]float64) {
	if c == nil {
		return
	}
	c.cache.Record(costcache.Key(alg, "", "rmat", c.scale), costs)
}

// save writes the cache back (no-op without a campaign).
func (c *costCampaign) save() error {
	if c == nil {
		return nil
	}
	return c.cache.Save(c.path)
}

// autoConfig is the adaptive in-memory configuration, optionally seeded
// with cached cost measurements.
func autoConfig(workers int, priors map[string]float64) core.Config {
	return core.Config{Flow: core.Auto, Workers: workers, CostPriors: priors}
}

// multiSourceRoots picks 64 deterministic, spread-out roots for the
// multi-source cases (one full mask word — the width the batched-vs-
// sequential comparison is archived at).
func multiSourceRoots(g *graph.Graph) []graph.VertexID {
	n := g.NumVertices()
	roots := make([]graph.VertexID, graph.MaxMultiWidth)
	for i := range roots {
		roots[i] = graph.VertexID((i*2654435761 + 1) % n)
	}
	return roots
}

// measure runs fn under testing.Benchmark and converts the result. A
// failed benchmark (b.Fatal inside fn) yields a zero BenchmarkResult from
// testing.Benchmark; that must surface as an error, not be archived as an
// all-zero baseline.
//
// The *_iter cases run a single engine invocation whose fixed setup cost
// (run bookkeeping, worker spin-up — ~20-130 allocations) is divided by
// b.N in the reported allocs/op. The slowest cases (compressed decode,
// streamed v2) only reach b.N≈25 in the default one-second benchtime,
// which rounds that constant up to a phantom 1 alloc/op; a longer
// benchtime keeps the divisor large enough that the archived number
// reflects the (test-pinned) zero-allocation steady state.
func measure(name string, fn func(b *testing.B)) (PerfCase, error) {
	if strings.HasSuffix(name, "_iter") {
		restore := setBenchTime("3s")
		defer restore()
	}
	r := testing.Benchmark(fn)
	if r.N == 0 {
		return PerfCase{}, fmt.Errorf("bench: perf case %s failed (benchmark aborted)", name)
	}
	return PerfCase{
		Name:        name,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}, nil
}

// setBenchTime overrides testing.Benchmark's target duration (the
// test.benchtime flag; the testing package has no direct API for library
// callers) and returns a func restoring the previous value.
func setBenchTime(d string) func() {
	testing.Init()
	f := flag.Lookup("test.benchtime")
	prev := f.Value.String()
	if err := flag.Set("test.benchtime", d); err != nil {
		return func() {}
	}
	return func() { flag.Set("test.benchtime", prev) }
}

// RunPerf executes the perf trajectory suite on an RMAT graph of the given
// scale and returns the report. workers=0 uses all CPUs.
func RunPerf(scale Scale) (*PerfReport, error) {
	rmatScale := scale.RMATScale
	if rmatScale <= 0 {
		rmatScale = 16
	}
	edgeFactor := scale.RMATEdgeFactor
	if edgeFactor <= 0 {
		edgeFactor = 16
	}
	g, err := perfGraph(rmatScale, edgeFactor, scale.Seed, scale.Workers)
	if err != nil {
		return nil, err
	}
	gridG, err := perfGridGraph(rmatScale, edgeFactor, scale.Seed, scale.Workers)
	if err != nil {
		return nil, err
	}
	compG, err := perfCompressedGraph(rmatScale, edgeFactor, scale.Seed, scale.Workers)
	if err != nil {
		return nil, err
	}
	// The grid stores are built once; testing.Benchmark re-invokes each case
	// function with escalating b.N, so per-case setup would pay the full
	// two-pass build every invocation.
	store, err := perfStore(rmatScale, edgeFactor, scale.Seed, false)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	storeV2, err := perfStore(rmatScale, edgeFactor, scale.Seed, true)
	if err != nil {
		return nil, err
	}
	defer storeV2.Close()
	camp, err := newCostCampaign(scale.CostCachePath, rmatScale)
	if err != nil {
		return nil, err
	}
	workers := scale.Workers

	pushAtomics := core.Config{Layout: graph.LayoutAdjacency, Flow: core.Push, Sync: core.SyncAtomics, Workers: workers}
	pull := core.Config{Layout: graph.LayoutAdjacency, Flow: core.Pull, Sync: core.SyncPartitionFree, Workers: workers}
	pushPull := core.Config{Layout: graph.LayoutAdjacency, Flow: core.PushPull, Sync: core.SyncAtomics, Workers: workers}
	compressed := core.Config{Layout: graph.LayoutGridCompressed, Flow: core.Push, Sync: core.SyncPartitionFree, Workers: workers}
	autoBFS := autoConfig(workers, camp.priors("bfs"))
	autoPR := autoConfig(workers, camp.priors("pagerank"))
	warm, err := warmAutoConfig("bfs", rmatScale, workers)
	if err != nil {
		return nil, err
	}
	// Fixed pyramid levels bracketing the resolution choice: the seeded
	// 256 (per-cell setup bound at these scales), a mid level, and a coarse
	// one. Any level the dataset's pyramid does not reach falls back to the
	// finest pin, so reduced-scale smoke runs stay valid.
	gridFixed := func(p int) core.Config {
		n := gridLevelsPinning(gridG, p)
		if n == 0 {
			n = 1
		}
		return core.Config{Layout: graph.LayoutGrid, Flow: core.Push, Sync: core.SyncPartitionFree, Workers: workers, GridLevels: n}
	}
	streamCfg := core.Config{
		Layout: graph.LayoutGrid, Flow: core.Push, Sync: core.SyncPartitionFree,
		Workers: workers, MemoryBudget: perfStreamBudget,
	}

	report := &PerfReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   HostCPUModel(),
		RMATScale:  rmatScale,
		EdgeFactor: edgeFactor,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}

	// traceOf runs an adaptive case once outside the benchmark clock,
	// records its measured plan costs into the campaign cache, and returns
	// the compressed plan trace attached to the case's JSON entry.
	traceOf := func(ar adaptiveRun) (string, error) {
		res, err := ar.run()
		if err != nil {
			return "", err
		}
		camp.record(ar.alg, res.PlanCosts)
		return metrics.CompressPlanTrace(res.PlanTrace()), nil
	}

	// adaptiveTraces maps adaptive case names to one-shot instrumented runs
	// whose compressed plan traces are attached to the JSON entries.
	adaptiveTraces := map[string]adaptiveRun{}
	for _, ar := range adaptiveRuns(g, gridG, store, storeV2, workers, warm, camp) {
		adaptiveTraces[ar.name] = ar
	}

	cases := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"pagerank_rmat_push_atomics", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(g, algorithms.NewPageRank(), pushAtomics); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"pagerank_rmat_push_atomics_iter", func(b *testing.B) {
			pr := algorithms.NewPageRank()
			pr.Iterations = b.N
			b.ReportAllocs()
			if _, err := core.Run(g, pr, pushAtomics); err != nil {
				b.Fatal(err)
			}
		}},
		{"pagerank_rmat_traced_iter", func(b *testing.B) {
			// The push_atomics_iter case with a run recorder attached: the
			// enabled recording path (iteration spans into the preallocated
			// ring) must preserve the zero-allocation steady-state
			// contract. Recorder construction is excluded from the clock;
			// first-occurrence label interning is not, and must amortize
			// to 0 allocs/op.
			pr := algorithms.NewPageRank()
			pr.Iterations = b.N
			cfg := pushAtomics
			cfg.Trace = trace.NewRecorder(0)
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := core.Run(g, pr, cfg); err != nil {
				b.Fatal(err)
			}
		}},
		{"pagerank_rmat_pull_iter", func(b *testing.B) {
			pr := algorithms.NewPageRank()
			pr.Iterations = b.N
			b.ReportAllocs()
			if _, err := core.Run(g, pr, pull); err != nil {
				b.Fatal(err)
			}
		}},
		{"bfs_rmat_push_atomics", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(g, algorithms.NewBFS(0), pushAtomics); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"bfs_rmat_pushpull", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(g, algorithms.NewBFS(0), pushPull); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"bfs_rmat_auto", func(b *testing.B) {
			// Adaptive BFS: the planner must land within a few percent of
			// the best fixed configuration (push-pull) — the acceptance
			// criterion of the adaptive execution planner.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(g, algorithms.NewBFS(0), autoBFS); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"bfs_rmat_multisource", func(b *testing.B) {
			// One batched MS-BFS sweep answering 64 sources: per-edge work
			// is a handful of mask-word operations for the whole batch, so
			// ns per (source x edge) — NsPerOp/64 against
			// bfs_rmat_push_atomics — must come out >= 4x cheaper than 64
			// sequential runs. That ratio is the archived acceptance
			// criterion of the multi-source batching layer.
			roots := multiSourceRoots(g)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(g, algorithms.NewMultiBFS(roots), pushAtomics); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"bfs_rmat_multisource_iter", func(b *testing.B) {
			// Steady-state multi-source sweeps via the fixed-sweep mode
			// (level-synchronous full scans, the PageRank Iterations=b.N
			// idiom): per-iteration mask updates and the AfterIteration
			// retire sweep must hold the zero-allocation contract.
			mb := algorithms.NewMultiBFS(multiSourceRoots(g))
			mb.Sweeps = b.N
			b.ReportAllocs()
			if _, err := core.Run(g, mb, pushAtomics); err != nil {
				b.Fatal(err)
			}
		}},
		{"bfs_rmat_multisource_auto", func(b *testing.B) {
			// The batched sweep under the adaptive planner: multi-source
			// runs are their own cost population (the x64 plan-label
			// suffix), so the planner prices the denser union frontier
			// without polluting single-source BFS entries.
			roots := multiSourceRoots(g)
			autoMulti := autoConfig(workers, camp.priors("multi-bfs"))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(g, algorithms.NewMultiBFS(roots), autoMulti); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"pagerank_rmat_leased_iter", func(b *testing.B) {
			// The push_atomics_iter case executed on a worker-pool lease:
			// steady-state leased iterations (lease gang loops, per-lease
			// counters) must match the shared-pool cost and stay
			// allocation-free. Lease setup is excluded from the clock.
			lease := sched.DefaultPool().Lease(sched.MaxWorkers())
			defer lease.Release()
			cfg := pushAtomics
			cfg.Lease = lease
			pr := algorithms.NewPageRank()
			pr.Iterations = b.N
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := core.Run(g, pr, cfg); err != nil {
				b.Fatal(err)
			}
		}},
		{"pagerank_rmat_auto_iter", func(b *testing.B) {
			// Adaptive PageRank freezes on the pull/partition-free plan;
			// per-iteration cost and the zero-allocation contract must
			// match the fixed pull case.
			pr := algorithms.NewPageRank()
			pr.Iterations = b.N
			b.ReportAllocs()
			if _, err := core.Run(g, pr, autoPR); err != nil {
				b.Fatal(err)
			}
		}},
		{"pagerank_rmat_streamed", func(b *testing.B) {
			// Out-of-core PageRank over the partitioned grid store with a
			// 32 MiB resident budget: one full streamed pass per iteration,
			// cells prefetched while the previous slice is computed.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunStreamed(store, algorithms.NewPageRank(), streamCfg); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"pagerank_rmat_streamed_iter", func(b *testing.B) {
			// Steady-state streamed iterations: the store's recycled slot
			// rings and persistent fetchers must make every pass
			// allocation-free, matching the in-memory iter cases.
			pr := algorithms.NewPageRank()
			pr.Iterations = b.N
			b.ReportAllocs()
			if _, err := core.RunStreamed(store, pr, streamCfg); err != nil {
				b.Fatal(err)
			}
		}},
		{"pagerank_rmat_streamed_auto", func(b *testing.B) {
			// Adaptive streamed PageRank: direction frozen (dense run), the
			// I/O knobs planned per iteration from the measured IOWait
			// breakdown under the same 32 MiB ceiling. The config is shared
			// with adaptiveRuns so the recorded plan trace always describes
			// the configuration this case measured.
			autoStream := streamAutoConfig(workers, camp.priors("pagerank"))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunStreamed(store, algorithms.NewPageRank(), autoStream); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"pagerank_rmat_streamed_gridauto", func(b *testing.B) {
			// Adaptive streamed PageRank with the virtual coarsening ladder
			// open: the store's 256x256 grid is a misfit at this scale, so
			// the planner streams it at a coarser rung (visible as the
			// grid/<P>@s1 plan label with P below the stored 256) — fewer
			// coalesced reads per pass than the finest-pinned streamed_auto
			// case, bit-identical results.
			gridAutoStream := streamGridAutoConfig(workers, camp.priors("pagerank"))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunStreamed(store, algorithms.NewPageRank(), gridAutoStream); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"pagerank_rmat_streamed_gridauto_iter", func(b *testing.B) {
			// Steady-state iterations at the planner-chosen rung: once the
			// dense run freezes its level, coarse merged passes must stay
			// allocation-free exactly like the finest-level ones.
			gridAutoStream := streamGridAutoConfig(workers, camp.priors("pagerank"))
			pr := algorithms.NewPageRank()
			pr.Iterations = b.N
			b.ReportAllocs()
			if _, err := core.RunStreamed(store, pr, gridAutoStream); err != nil {
				b.Fatal(err)
			}
		}},
		{"pagerank_rmat_grid256_iter", func(b *testing.B) {
			// The misfit baseline: the seeded 256x256 grid, pinned. At this
			// scale most cells hold a handful of edges, so per-span setup
			// dominates — the resolution the planner must walk away from.
			pr := algorithms.NewPageRank()
			pr.Iterations = b.N
			b.ReportAllocs()
			if _, err := core.Run(gridG, pr, gridFixed(256)); err != nil {
				b.Fatal(err)
			}
		}},
		{"pagerank_rmat_grid32_iter", func(b *testing.B) {
			pr := algorithms.NewPageRank()
			pr.Iterations = b.N
			b.ReportAllocs()
			if _, err := core.Run(gridG, pr, gridFixed(32)); err != nil {
				b.Fatal(err)
			}
		}},
		{"pagerank_rmat_grid4_iter", func(b *testing.B) {
			pr := algorithms.NewPageRank()
			pr.Iterations = b.N
			b.ReportAllocs()
			if _, err := core.Run(gridG, pr, gridFixed(4)); err != nil {
				b.Fatal(err)
			}
		}},
		{"pagerank_rmat_gridauto", func(b *testing.B) {
			// Adaptive grid resolution, dense: the planner freezes one
			// pyramid level from the cachesim-seeded priors. Must land
			// within a few percent of the best fixed level above and beat
			// the misfit 256 baseline.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(gridG, algorithms.NewPageRank(), autoPR); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"pagerank_rmat_gridauto_iter", func(b *testing.B) {
			// Steady-state iterations at the frozen level: the pyramid's
			// span tables are built at prep, so level choice costs no
			// allocations — the zero-allocation contract extends to
			// resolution planning.
			pr := algorithms.NewPageRank()
			pr.Iterations = b.N
			b.ReportAllocs()
			if _, err := core.Run(gridG, pr, autoPR); err != nil {
				b.Fatal(err)
			}
		}},
		{"bfs_rmat_gridauto", func(b *testing.B) {
			// Adaptive grid resolution, tracked: direction AND level move
			// per iteration, corrected by measured ns/edge.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(gridG, algorithms.NewBFS(0), autoBFS); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"bfs_rmat_auto_warm", func(b *testing.B) {
			// Warm-started adaptive BFS: the cost model seeds from the
			// committed cache's measurements instead of the hand priors, so
			// the very first layout comparison runs on real ns/edge — the
			// second-run behaviour of a cost-cache-backed campaign.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(g, algorithms.NewBFS(0), warm); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"pagerank_rmat_compressed_iter", func(b *testing.B) {
			// The compressed grid as a static in-memory layout: the same
			// cells and per-destination order as the raw grid (results are
			// bit-identical), roughly a quarter of the edge-plane traffic,
			// varint decode running inside the per-worker cell loop out of
			// reusable scratch — the zero-allocation contract holds with
			// decompression on the hot path.
			pr := algorithms.NewPageRank()
			pr.Iterations = b.N
			b.ReportAllocs()
			if _, err := core.Run(compG, pr, compressed); err != nil {
				b.Fatal(err)
			}
		}},
		{"pagerank_rmat_streamed_v2", func(b *testing.B) {
			// Streamed PageRank over the compressed (version-2) store under
			// the same 32 MiB ceiling as the v1 case above: fewer bytes per
			// pass, per-cell decode charged to the fetch pipeline.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunStreamed(storeV2, algorithms.NewPageRank(), streamCfg); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"pagerank_rmat_streamed_v2_iter", func(b *testing.B) {
			// Steady-state version-2 iterations: slot arenas and decode
			// buffers are pool-owned, so compressed passes must stay
			// allocation-free exactly like the v1 iter case.
			pr := algorithms.NewPageRank()
			pr.Iterations = b.N
			b.ReportAllocs()
			if _, err := core.RunStreamed(storeV2, pr, streamCfg); err != nil {
				b.Fatal(err)
			}
		}},
		{"pagerank_rmat_streamed_v2_traced_iter", func(b *testing.B) {
			// The streamed_v2_iter case with a run recorder attached: fetch
			// and stall spans from the fetcher pipeline plus iteration
			// spans, all into the preallocated ring — compressed passes
			// must stay allocation-free with recording enabled.
			pr := algorithms.NewPageRank()
			pr.Iterations = b.N
			cfg := streamCfg
			cfg.Trace = trace.NewRecorder(0)
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := core.RunStreamed(storeV2, pr, cfg); err != nil {
				b.Fatal(err)
			}
		}},
		{"pagerank_rmat_streamed_v2_auto", func(b *testing.B) {
			// Adaptive streamed PageRank over the compressed store: the
			// planner labels and costs every iteration as "compressed/"
			// (the store is the only layout resident) while moving the I/O
			// knobs, so the recorded trace pins the compressed layout as a
			// real planner-chosen candidate.
			autoStreamV2 := streamAutoConfig(workers, camp.priors("pagerank"))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunStreamed(storeV2, algorithms.NewPageRank(), autoStreamV2); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
	for _, c := range cases {
		pc, err := measure(c.name, c.fn)
		if err != nil {
			return nil, err
		}
		if ar, ok := adaptiveTraces[c.name]; ok {
			if pc.PlanTrace, err = traceOf(ar); err != nil {
				return nil, err
			}
		}
		report.Cases = append(report.Cases, pc)
	}
	if err := camp.save(); err != nil {
		return nil, err
	}
	return report, nil
}

// adaptiveRun is one adaptive perf case's instrumented (non-benchmarked)
// run — the single definition shared by RunPerf's trace capture and
// PlanTraces, so the reported traces always describe the configuration the
// benchmarks measured. alg keys the case's measured plan costs in the
// campaign cost cache.
type adaptiveRun struct {
	name string
	alg  string
	run  func() (*core.Result, error)
}

// perfStreamBudget is the resident-memory ceiling of the streamed perf
// cases (32 MiB, well below the RMAT-16 store's edge data).
const perfStreamBudget = 32 << 20

// streamAutoConfig is the adaptive streamed configuration shared by the
// streamed-auto bench cases and their plan-trace runs, so the trace
// recorded in the JSON always describes the measured configuration. It pins
// GridLevels to the finest rung: these cases are the archived I/O-knob
// baselines, and letting the planner also coarsen the streaming resolution
// would make them incomparable with earlier campaigns — the resolution
// choice is measured by the separate streamed_gridauto cases.
func streamAutoConfig(workers int, priors map[string]float64) core.Config {
	return core.Config{Flow: core.Auto, Workers: workers, MemoryBudget: perfStreamBudget, CostPriors: priors, GridLevels: 1}
}

// streamGridAutoConfig additionally opens the store's virtual coarsening
// ladder to the planner (GridLevels 0 = every rung): the streamed
// counterpart of the in-memory gridauto cases. The perf store is a
// deliberately misfit 256x256 grid at these scales, so the planner should
// stream it at a coarser rung — fewer, larger coalesced reads of the same
// bytes — and the case measures that choice end to end.
func streamGridAutoConfig(workers int, priors map[string]float64) core.Config {
	return core.Config{Flow: core.Auto, Workers: workers, MemoryBudget: perfStreamBudget, CostPriors: priors}
}

func adaptiveRuns(g, gridG *graph.Graph, src, srcV2 core.Source, workers int, warm core.Config, camp *costCampaign) []adaptiveRun {
	autoBFS := autoConfig(workers, camp.priors("bfs"))
	autoPR := autoConfig(workers, camp.priors("pagerank"))
	autoStream := streamAutoConfig(workers, camp.priors("pagerank"))
	gridAutoStream := streamGridAutoConfig(workers, camp.priors("pagerank"))
	// The full-run and per-iteration grid-resolution cases execute the same
	// configuration, so their shared trace run is memoized — one adaptive
	// PageRank over the grid graph serves both JSON entries; likewise for
	// the streamed ladder-open pair.
	gridPR := memoRun(func() (*core.Result, error) { return core.Run(gridG, algorithms.NewPageRank(), autoPR) })
	streamGridPR := memoRun(func() (*core.Result, error) {
		return core.RunStreamed(src, algorithms.NewPageRank(), gridAutoStream)
	})
	return []adaptiveRun{
		{"bfs_rmat_auto", "bfs", func() (*core.Result, error) { return core.Run(g, algorithms.NewBFS(0), autoBFS) }},
		{"bfs_rmat_multisource_auto", "multi-bfs", func() (*core.Result, error) {
			return core.Run(g, algorithms.NewMultiBFS(multiSourceRoots(g)), autoConfig(workers, camp.priors("multi-bfs")))
		}},
		{"pagerank_rmat_auto_iter", "pagerank", func() (*core.Result, error) { return core.Run(g, algorithms.NewPageRank(), autoPR) }},
		{"pagerank_rmat_streamed_auto", "pagerank", func() (*core.Result, error) {
			return core.RunStreamed(src, algorithms.NewPageRank(), autoStream)
		}},
		{"pagerank_rmat_streamed_v2_auto", "pagerank", func() (*core.Result, error) {
			return core.RunStreamed(srcV2, algorithms.NewPageRank(), autoStream)
		}},
		{"pagerank_rmat_streamed_gridauto", "pagerank", streamGridPR},
		{"pagerank_rmat_streamed_gridauto_iter", "pagerank", streamGridPR},
		{"pagerank_rmat_gridauto", "pagerank", gridPR},
		{"pagerank_rmat_gridauto_iter", "pagerank", gridPR},
		{"bfs_rmat_gridauto", "bfs", func() (*core.Result, error) { return core.Run(gridG, algorithms.NewBFS(0), autoBFS) }},
		{"bfs_rmat_auto_warm", "bfs", func() (*core.Result, error) { return core.Run(g, algorithms.NewBFS(0), warm) }},
	}
}

// memoRun runs fn once and replays its result on every later call.
func memoRun(fn func() (*core.Result, error)) func() (*core.Result, error) {
	var res *core.Result
	var err error
	done := false
	return func() (*core.Result, error) {
		if !done {
			res, err = fn()
			done = true
		}
		return res, err
	}
}

// PlanTraces runs the perf suite's adaptive cases once (no benchmarking)
// and returns their compressed per-iteration plan traces, for benchrunner's
// -plan-trace output.
func PlanTraces(scale Scale) ([]PerfCase, error) {
	rmatScale := scale.RMATScale
	if rmatScale <= 0 {
		rmatScale = 16
	}
	edgeFactor := scale.RMATEdgeFactor
	if edgeFactor <= 0 {
		edgeFactor = 16
	}
	g, err := perfGraph(rmatScale, edgeFactor, scale.Seed, scale.Workers)
	if err != nil {
		return nil, err
	}
	gridG, err := perfGridGraph(rmatScale, edgeFactor, scale.Seed, scale.Workers)
	if err != nil {
		return nil, err
	}
	store, err := perfStore(rmatScale, edgeFactor, scale.Seed, false)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	storeV2, err := perfStore(rmatScale, edgeFactor, scale.Seed, true)
	if err != nil {
		return nil, err
	}
	defer storeV2.Close()
	warm, err := warmAutoConfig("bfs", rmatScale, scale.Workers)
	if err != nil {
		return nil, err
	}
	camp, err := newCostCampaign(scale.CostCachePath, rmatScale)
	if err != nil {
		return nil, err
	}
	var out []PerfCase
	for _, c := range adaptiveRuns(g, gridG, store, storeV2, scale.Workers, warm, camp) {
		res, err := c.run()
		if err != nil {
			return nil, err
		}
		camp.record(c.alg, res.PlanCosts)
		out = append(out, PerfCase{Name: c.name, Iterations: res.Iterations, PlanTrace: metrics.CompressPlanTrace(res.PlanTrace())})
	}
	if err := camp.save(); err != nil {
		return nil, err
	}
	return out, nil
}

// WritePerfJSON runs the perf suite and writes the report as indented JSON.
// The encoder keeps "->" literal in plan traces instead of HTML-escaping
// the ">" into a unicode escape sequence — the report is read by humans
// and diffed in git, not served to browsers.
func WritePerfJSON(scale Scale, w io.Writer) error {
	report, err := RunPerf(scale)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}
