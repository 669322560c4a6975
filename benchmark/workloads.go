package main

import (
	"math/rand"
	"os"
	"path/filepath"

	eg "github.com/epfl-repro/everythinggraph"
	"github.com/epfl-repro/everythinggraph/internal/core"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/oocore"
	"github.com/epfl-repro/everythinggraph/internal/prep"
	"github.com/epfl-repro/everythinggraph/internal/storage"
)

const (
	// defaultScale is the one constant that sizes every workload: RMAT
	// graphs have 2^scale vertices and edgeFactor times as many edges, the
	// road lattice has 2^((scale+1)/2) vertices per side, and the streaming
	// budget is a sixth of the edge data. The paper-sized 19 does not fit
	// the time the gate gives a run on a 2-core sandbox; 18 does.
	defaultScale = 18
	edgeFactor   = 16
	// bfsSources is the number of traversals in one warm.bfs.rmat op: enough
	// that the op's cost does not depend on which sources a seed draws.
	bfsSources = 32
	// roadGraphs is the number of lattices, one SSSP each, in one
	// warm.sssp.road op.
	roadGraphs = 4
	// pageRankIterations and pageRankDamping are eg.PageRank()'s defaults,
	// restated because the oracle must not read them from the program.
	pageRankIterations = 10
	pageRankDamping    = 0.85
)

// options is what a workload's set-up may depend on. The program under test
// receives only what set-up generates from it.
type options struct {
	seed    int64
	scale   int
	workers int
	dir     string // scratch directory for edge files and stores
}

// instance is one workload after set-up.
type instance struct {
	// edges is |E| as the dense kernels scan it once per iteration.
	edges int64
	// op is one operation as the caller sees it, through the public API.
	op func() (outcome, error)
	// traced is the same operation as spans around each layer's function.
	traced func(t *tracer) (outcome, error)
	// adaptive marks ops that run under FlowAuto, whose plan choices are
	// reported.
	adaptive bool
	// oracle computes the expected outcome; it is called once.
	oracle func() outcome
	// layers adds the workload's own per-layer metrics and probes to m
	// after the traced reps.
	layers func(m metricSet, t *tracer) error
}

// workload is one named set of inputs. setup generates them from o and does
// whatever program work the workload leaves out of its op; t is nil when
// tracing is off.
type workload struct {
	name, why string
	setup     func(o options, t *tracer) (*instance, error)
}

var workloads = []workload{
	{"e2e.pagerank.rmat", "edge file to ranks: load, radix prep and 10 PageRank iterations in one op, the only place a loader or prep change shows", setupE2E},
	{"warm.pagerank.rmat", "prepared graph, dense pull kernel does all the work; bypasses load, prep, planner and I/O", setupWarmPageRank},
	{"warm.bfs.rmat", "32 adaptive BFS runs: sparse push with atomics, dense pull, and the planner's direction switches", setupWarmBFS},
	{"warm.sssp.road", "SSSP over 4 road lattices, some 3900 small-frontier iterations: per-iteration fixed cost, not the edge kernel, decides it", setupWarmSSSP},
	{"stream.pagerank.v1", "store open plus PageRank streamed under a budget of a sixth of the edge data; fetch and pool, no decode", setupStream(false)},
	{"stream.pagerank.v2", "same as v1 over the compressed store: fewer bytes moved, decode on the fetch path", setupStream(true)},
}

func generateRMAT(o options, t *tracer) *eg.Graph {
	var g *eg.Graph
	_ = t.do("gen", func() error { // a span body that cannot fail
		g = eg.GenerateRMAT(o.scale, edgeFactor, o.seed)
		return nil
	})
	return g
}

func pageRankOracle(edges []eg.Edge, n int) func() outcome {
	return func() outcome {
		return outcome{ranks: oraclePageRank(edges, n, pageRankIterations, pageRankDamping)}
	}
}

// setupE2E writes the edge file. The op opens it, loads it, prepares the
// incoming adjacency lists (inside Run) and runs PageRank: everything a user
// with an edge list on disk pays.
func setupE2E(o options, t *tracer) (*instance, error) {
	g := generateRMAT(o, t)
	path := filepath.Join(o.dir, "e2e.bin")
	err := t.do("storage.write", func() error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := g.WriteBinary(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
	if err != nil {
		return nil, err
	}
	edges := g.Internal().EdgeArray.Edges
	numEdges := float64(len(edges))
	cfg := pullConfig(o)
	return &instance{
		edges: int64(len(edges)),
		// The loader sizes the graph from the largest id in the file.
		oracle: pageRankOracle(edges, numVertices(edges)),
		op: func() (outcome, error) {
			f, err := os.Open(path)
			if err != nil {
				return outcome{}, err
			}
			defer f.Close()
			g, err := eg.LoadBinary(f, true)
			if err != nil {
				return outcome{}, err
			}
			pr := eg.PageRank()
			res, err := g.Run(pr, cfg)
			if err != nil {
				return outcome{}, err
			}
			return outcome{ranks: pr.Rank, runs: []*core.Result{res.Run}}, nil
		},
		traced: func(t *tracer) (outcome, error) {
			var loaded []eg.Edge
			err := t.do("storage.load", func() error {
				f, err := os.Open(path)
				if err != nil {
					return err
				}
				defer f.Close()
				loaded, err = storage.ReadBinary(f)
				return err
			})
			if err != nil {
				return outcome{}, err
			}
			var ig *graph.Graph
			_ = t.do("graph.new", func() error { // cannot fail
				ig = graph.New(loaded, 0, true)
				return nil
			})
			err = t.do("prep.adjacency", func() error {
				return prep.BuildAdjacency(ig, prep.In, prep.Options{Method: prep.RadixSort, Workers: o.workers})
			})
			if err != nil {
				return outcome{}, err
			}
			pr := eg.PageRank()
			res, err := tracedRun(t, ig, pr, cfg)
			return outcome{ranks: pr.Rank, runs: []*core.Result{res}}, err
		},
		layers: func(m metricSet, t *tracer) error {
			m.setSamples("storage.load_s", "s", t.perRep("storage.load"))
			m.set("storage.load_mb_per_s", "MB/s", numEdges*storage.EdgeBytes/1e6/m["storage.load_s"].Value)
			m.setSamples("prep.adjacency_s", "s", t.perRep("prep.adjacency"))
			m.set("prep.ns_per_edge", "ns", m["prep.adjacency_s"].Value*1e9/numEdges)
			return nil
		},
	}, nil
}

// pullConfig is the paper's best in-memory PageRank configuration.
func pullConfig(o options) eg.Config {
	return eg.Config{Layout: eg.LayoutAdjacency, Flow: eg.FlowPull, Sync: eg.SyncPartitionFree, Prep: eg.PrepRadixSort, Workers: o.workers}
}

// tracedRun is core.Run under a span, with the public Config narrowed to the
// fields the in-memory workloads set.
func tracedRun(t *tracer, g *graph.Graph, alg eg.Algorithm, cfg eg.Config) (*core.Result, error) {
	var res *core.Result
	err := t.do("core.run", func() error {
		var err error
		res, err = core.Run(g, alg, core.Config{Layout: cfg.Layout, Flow: cfg.Flow, Sync: cfg.Sync, Workers: cfg.Workers})
		return err
	})
	return res, err
}

// task is one engine run of a warm op.
type task struct {
	g   *eg.Graph
	alg eg.Algorithm
}

// warmInstance prepares the graphs for cfg during set-up and returns an
// instance whose op runs a fresh batch of tasks on them. newBatch returns the
// tasks of one op and a function collecting their results.
func warmInstance(graphs []*eg.Graph, cfg eg.Config, t *tracer, newBatch func() ([]task, func() outcome)) (*instance, error) {
	inst := &instance{}
	err := t.do("prep.adjacency", func() error {
		for _, g := range graphs {
			if _, err := g.Prepare(cfg); err != nil {
				return err
			}
			inst.edges += int64(g.NumEdges())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	batch := func(run func(task) (*core.Result, error)) (outcome, error) {
		tasks, collect := newBatch()
		runs := make([]*core.Result, len(tasks))
		for i, tk := range tasks {
			res, err := run(tk)
			if err != nil {
				return outcome{}, err
			}
			runs[i] = res
		}
		out := collect()
		out.runs = runs
		return out, nil
	}
	inst.op = func() (outcome, error) {
		return batch(func(tk task) (*core.Result, error) {
			res, err := tk.g.Run(tk.alg, cfg)
			if err != nil {
				return nil, err
			}
			return res.Run, nil
		})
	}
	inst.traced = func(t *tracer) (outcome, error) {
		return batch(func(tk task) (*core.Result, error) {
			return tracedRun(t, tk.g.Internal(), tk.alg, cfg)
		})
	}
	return inst, nil
}

// prepMetrics reports the set-up's adjacency build; built is the number of
// edge slots it filled (both directions count).
func prepMetrics(m metricSet, t *tracer, built int64) {
	m.set("prep.adjacency_s", "s", t.setup("prep.adjacency"))
	m.set("prep.ns_per_edge", "ns", t.setup("prep.adjacency")*1e9/float64(built))
}

func setupWarmPageRank(o options, t *tracer) (*instance, error) {
	g := generateRMAT(o, t)
	cfg := pullConfig(o)
	inst, err := warmInstance([]*eg.Graph{g}, cfg, t, func() ([]task, func() outcome) {
		pr := eg.PageRank()
		return []task{{g, pr}}, func() outcome { return outcome{ranks: pr.Rank} }
	})
	if err != nil {
		return nil, err
	}
	inst.oracle = pageRankOracle(g.Internal().EdgeArray.Edges, g.NumVertices())
	inst.layers = func(m metricSet, t *tracer) error {
		prepMetrics(m, t, inst.edges)
		return pageRankProbes(m, g, cfg)
	}
	return inst, nil
}

func setupWarmBFS(o options, t *tracer) (*instance, error) {
	g := generateRMAT(o, t)
	edges := g.Internal().EdgeArray.Edges
	// Sources with no outgoing edge would make an op of empty traversals.
	hasOut := make([]bool, g.NumVertices())
	for _, e := range edges {
		hasOut[e.Src] = true
	}
	rng := rand.New(rand.NewSource(o.seed))
	sources := make([]eg.VertexID, 0, bfsSources)
	for len(sources) < bfsSources {
		if v := rng.Intn(len(hasOut)); hasOut[v] {
			sources = append(sources, eg.VertexID(v))
		}
	}
	cfg := eg.Config{Layout: eg.LayoutAdjacency, Flow: eg.FlowAuto, Prep: eg.PrepRadixSort, Workers: o.workers}
	inst, err := warmInstance([]*eg.Graph{g}, cfg, t, func() ([]task, func() outcome) {
		tasks := make([]task, len(sources))
		level := make([]func() []int32, len(sources))
		for i, s := range sources {
			b := eg.BFS(s)
			tasks[i], level[i] = task{g, b}, func() []int32 { return b.Level }
		}
		return tasks, func() outcome {
			out := outcome{levels: make([][]int32, len(level))}
			for i, get := range level {
				out.levels[i] = get()
			}
			return out
		}
	})
	if err != nil {
		return nil, err
	}
	inst.adaptive = true
	inst.oracle = func() outcome {
		adj := buildCSR(edges, g.NumVertices(), false, false)
		out := outcome{levels: make([][]int32, len(sources))}
		for i, s := range sources {
			out.levels[i] = oracleBFS(adj, s)
		}
		return out
	}
	inst.layers = func(m metricSet, t *tracer) error {
		prepMetrics(m, t, 2*inst.edges)
		return nil
	}
	return inst, nil
}

// setupWarmSSSP makes roadGraphs lattices. One SSSP's work swings by a tenth
// with the weights a seed draws; the sum over several graphs does not.
func setupWarmSSSP(o options, t *tracer) (*instance, error) {
	side := 1 << ((o.scale + 1) / 2)
	graphs := make([]*eg.Graph, roadGraphs)
	_ = t.do("gen", func() error { // cannot fail
		for i := range graphs {
			graphs[i] = eg.GenerateRoad(side, side, o.seed*roadGraphs+int64(i))
		}
		return nil
	})
	cfg := eg.Config{Layout: eg.LayoutAdjacency, Flow: eg.FlowPush, Sync: eg.SyncAtomics, Prep: eg.PrepRadixSort, Workers: o.workers}
	inst, err := warmInstance(graphs, cfg, t, func() ([]task, func() outcome) {
		tasks := make([]task, len(graphs))
		dist := make([]func() []float32, len(graphs))
		for i, g := range graphs {
			s := eg.SSSP(0)
			tasks[i], dist[i] = task{g, s}, s.Distances
		}
		return tasks, func() outcome {
			out := outcome{dists: make([][]float32, len(dist))}
			for i, get := range dist {
				out.dists[i] = get()
			}
			return out
		}
	})
	if err != nil {
		return nil, err
	}
	inst.oracle = func() outcome {
		out := outcome{dists: make([][]float32, len(graphs))}
		for i, g := range graphs {
			adj := buildCSR(g.Internal().EdgeArray.Edges, g.NumVertices(), false, true)
			out.dists[i] = oracleDijkstra(adj, 0)
		}
		return out
	}
	inst.layers = func(m metricSet, t *tracer) error {
		prepMetrics(m, t, 2*inst.edges) // undirected: every edge at both ends
		ratio, err := autoOverFixed(graphs[0], func() eg.Algorithm { return eg.SSSP(0) }, cfg)
		m.set("core.auto_over_fixed", "ratio", ratio)
		return err
	}
	return inst, nil
}

// streamBudget is the MemoryBudget of the streamed workloads: a sixth of the
// 12-byte edge records, so the working set is several times the program's
// segment pool. The floor keeps tiny test graphs above the pool's minimum.
func streamBudget(edges int64) int64 {
	return max(2*edges, 1<<20)
}

// setupStream builds the store. The op opens it (checksum validation
// included, users pay it on every run), streams PageRank in pull mode under
// the budget, and closes it.
func setupStream(compressed bool) func(options, *tracer) (*instance, error) {
	return func(o options, t *tracer) (*instance, error) {
		g := generateRMAT(o, t)
		path := filepath.Join(o.dir, "stream.egs")
		build := eg.BuildStore
		if compressed {
			build = eg.BuildCompressedStore
		}
		if err := t.do("prep.store_build", func() error { return build(path, g, 0, false) }); err != nil {
			return nil, err
		}
		edges := int64(g.NumEdges())
		cfg := eg.Config{Flow: eg.FlowPull, MemoryBudget: streamBudget(edges), Workers: o.workers}
		var last core.SourceStats // of the latest traced op, for layers
		return &instance{
			edges:  edges,
			oracle: pageRankOracle(g.Internal().EdgeArray.Edges, g.NumVertices()),
			op: func() (outcome, error) {
				st, err := eg.OpenStore(path)
				if err != nil {
					return outcome{}, err
				}
				defer st.Close()
				pr := eg.PageRank()
				res, err := st.Run(pr, cfg)
				if err != nil {
					return outcome{}, err
				}
				return outcome{ranks: pr.Rank, runs: []*core.Result{res.Run}, budget: cfg.MemoryBudget}, nil
			},
			traced: func(t *tracer) (outcome, error) {
				var st *oocore.Store
				err := t.do("oocore.open", func() error {
					var err error
					st, err = oocore.Open(path)
					return err
				})
				if err != nil {
					return outcome{}, err
				}
				pr := eg.PageRank()
				var res *core.Result
				err = t.do("core.run", func() error {
					var err error
					res, err = core.RunStreamed(st, pr, core.Config{
						Layout: graph.LayoutGrid, Flow: core.Pull, Sync: core.SyncPartitionFree,
						Workers: cfg.Workers, MemoryBudget: cfg.MemoryBudget,
					})
					return err
				})
				if cerr := t.do("oocore.close", st.Close); err == nil {
					err = cerr
				}
				if err != nil {
					return outcome{}, err
				}
				last = res.IO
				return outcome{ranks: pr.Rank, runs: []*core.Result{res}, budget: cfg.MemoryBudget}, nil
			},
			layers: func(m metricSet, t *tracer) error {
				m.set("prep.store_build_s", "s", t.setup("prep.store_build"))
				m.setSamples("oocore.open_s", "s", t.perRep("oocore.open"))
				m.set("oocore.bytes_per_edge", "B", float64(last.BytesRead)/float64(last.Passes*edges))
				m.set("oocore.reads", "count", float64(last.Reads))
				m.set("oocore.read_mb_per_s", "MB/s", float64(last.BytesRead)/1e6/last.IOTime.Seconds())
				algo := m["core.algo_s"].Value
				m.set("oocore.io_wait_share", "ratio", last.IOWait.Seconds()/(float64(o.workers)*algo))
				m.set("oocore.peak_resident_mb", "MB", float64(last.PeakResidentBytes)/(1<<20))
				return codecProbes(m, o, path, compressed)
			},
		}, nil
	}
}
