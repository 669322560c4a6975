package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	eg "github.com/epfl-repro/everythinggraph"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/oocore"
)

// probeReps is how often each probe configuration runs; probes report the
// median. They size a layer, they are not gated.
const probeReps = 2

// coreMetrics derives the engine-layer metrics every workload has from the
// traced reps: outs holds each rep's outcome, spans were recorded by t.
func coreMetrics(m metricSet, t *tracer, outs []outcome, inst *instance) {
	var algo, overhead []float64
	spans := t.perRep("core.run")
	for rep, out := range outs {
		var a time.Duration
		for _, r := range out.runs {
			a += r.AlgorithmTime
		}
		algo = append(algo, a.Seconds())
		overhead = append(overhead, spans[rep]-a.Seconds())
	}
	m.setSamples("core.algo_s", "s", algo)
	m.setSamples("core.run_overhead_s", "s", overhead)

	last := outs[len(outs)-1].runs
	iterations, switches := 0, 0
	for _, r := range last {
		iterations += r.Iterations
		for i, it := range r.PerIteration {
			if i > 0 && it.Plan != r.PerIteration[i-1].Plan {
				switches++
			}
		}
	}
	m.set("core.iterations", "count", float64(iterations))
	m.set("core.us_per_iteration", "us", m["core.algo_s"].Value*1e6/float64(iterations))
	if len(last) == 1 && last[0].Algorithm == "pagerank" {
		m.set("core.ns_per_edge", "ns", m["core.algo_s"].Value*1e9/float64(int64(iterations)*inst.edges))
	}
	if inst.adaptive {
		m.set("core.plan_switches", "count", float64(switches))
	}
}

// probe is the median of probeReps samples of seconds, with a collection
// before each.
func probe(seconds func() (float64, error)) (float64, error) {
	var samples []float64
	for i := 0; i < probeReps; i++ {
		runtime.GC()
		s, err := seconds()
		if err != nil {
			return 0, err
		}
		samples = append(samples, s)
	}
	return median(samples), nil
}

// algoSeconds probes the engine-reported algorithm time of a fresh algorithm
// under cfg. Layouts cfg needs are built on first use, outside that time.
func algoSeconds(g *eg.Graph, newAlg func() eg.Algorithm, cfg eg.Config) (float64, error) {
	return probe(func() (float64, error) {
		res, err := g.Run(newAlg(), cfg)
		if err != nil {
			return 0, err
		}
		return res.Breakdown.Algorithm.Seconds(), nil
	})
}

// autoOverFixed is the adaptive planner's algorithm time over the fixed
// configuration's: planner regret seen from outside, about 1 when it picks
// well.
func autoOverFixed(g *eg.Graph, newAlg func() eg.Algorithm, fixed eg.Config) (float64, error) {
	auto := fixed
	auto.Flow = eg.FlowAuto
	a, err := algoSeconds(g, newAlg, auto)
	if err != nil {
		return 0, err
	}
	f, err := algoSeconds(g, newAlg, fixed)
	return a / f, err
}

// pageRankProbes runs on warm.pagerank.rmat's prepared graph: the paper's
// layout ablation, planner regret, worker scaling, and what the program's
// own trace recorder costs.
func pageRankProbes(m metricSet, g *eg.Graph, cfg eg.Config) error {
	newPR := func() eg.Algorithm { return eg.PageRank() }
	perEdge := 1e9 / float64(pageRankIterations*g.NumEdges())

	for _, layout := range []struct {
		name string
		cfg  eg.Config
	}{
		{"adjacency-pull", cfg},
		{"grid-pull", eg.Config{Layout: eg.LayoutGrid, Flow: eg.FlowPull, Sync: eg.SyncPartitionFree, Prep: cfg.Prep, Workers: cfg.Workers}},
		{"edgearray-push-atomics", eg.Config{Layout: eg.LayoutEdgeArray, Flow: eg.FlowPush, Sync: eg.SyncAtomics, Workers: cfg.Workers}},
	} {
		s, err := algoSeconds(g, newPR, layout.cfg)
		if err != nil {
			return err
		}
		m.set("core.ns_per_edge."+layout.name, "ns", s*perEdge)
	}

	ratio, err := autoOverFixed(g, newPR, cfg)
	if err != nil {
		return err
	}
	m.set("core.auto_over_fixed", "ratio", ratio)

	// Worker scaling needs a second core to say anything.
	if p := cfg.Workers; p > 1 {
		serial := cfg
		serial.Workers = 1
		t1, err := algoSeconds(g, newPR, serial)
		if err != nil {
			return err
		}
		tp, err := algoSeconds(g, newPR, cfg)
		if err != nil {
			return err
		}
		m.set("sched.speedup.core_run", "ratio", t1/tp)
		m.set("sched.efficiency.core_run", "ratio", t1/tp/float64(p))

		// Prepare is idempotent per graph, so each build gets a fresh one.
		edges, n := g.Internal().EdgeArray.Edges, g.NumVertices()
		build := func(c eg.Config) (float64, error) {
			return probe(func() (float64, error) {
				bd, err := eg.NewGraph(edges, n, true).Prepare(c)
				return bd.Preprocess.Seconds(), err
			})
		}
		if t1, err = build(serial); err != nil {
			return err
		}
		if tp, err = build(cfg); err != nil {
			return err
		}
		m.set("sched.speedup.prep_adjacency", "ratio", t1/tp)
		m.set("sched.efficiency.prep_adjacency", "ratio", t1/tp/float64(p))
	}

	// Wall time of the op with the program's recorder attached and without,
	// alternating so drift hits both sides.
	var plain, recorded []float64
	for i := 0; i < 2*probeReps; i++ {
		c := cfg
		if i%2 == 1 {
			c.Trace = eg.NewTraceRecorder(0)
		}
		runtime.GC()
		t0 := time.Now()
		if _, err := g.Run(eg.PageRank(), c); err != nil {
			return err
		}
		if d := time.Since(t0).Seconds(); c.Trace == nil {
			plain = append(plain, d)
		} else {
			recorded = append(recorded, d)
		}
	}
	m.set("trace.recorder_overhead_pct", "%", 100*(median(recorded)-median(plain))/median(plain))
	return nil
}

// codecProbes reports the store's compression ratio and, for the compressed
// store, what decoding costs per edge: a single-threaded sweep of every cell
// minus the same sweep over a v1 store of the same graph.
func codecProbes(m metricSet, o options, path string, compressed bool) error {
	st, err := eg.OpenStore(path)
	if err != nil {
		return err
	}
	m.set("codec.ratio", "ratio", st.CompressionRatio())
	edges := float64(st.NumEdges())
	if err := st.Close(); err != nil || !compressed {
		return err
	}
	v1 := filepath.Join(o.dir, "probe-v1.egs")
	if err := eg.BuildStore(v1, eg.GenerateRMAT(o.scale, edgeFactor, o.seed), 0, false); err != nil {
		return err
	}
	raw, err := sweepSeconds(v1)
	if err != nil {
		return err
	}
	decoded, err := sweepSeconds(path)
	m.set("codec.decode_ns_per_edge", "ns", (decoded-raw)*1e9/edges)
	return err
}

// sweepSeconds probes the time of reading every cell of a store once through
// ReadCell, on the calling goroutine.
func sweepSeconds(path string) (float64, error) {
	st, err := oocore.Open(path)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	var buf []graph.Edge
	return probe(func() (float64, error) {
		t0 := time.Now()
		for row := 0; row < st.GridP(); row++ {
			for col := 0; col < st.GridP(); col++ {
				if buf, err = st.ReadCell(row, col, buf); err != nil {
					return 0, err
				}
			}
		}
		return time.Since(t0).Seconds(), nil
	})
}

// peakRSSMB is the process's resident-set high-water mark, falling back to
// what the Go runtime has obtained from the OS where /proc has no VmHWM.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
