package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// testRunner measures at a scale where every workload takes milliseconds.
func testRunner(t *testing.T) runner {
	return runner{opt: options{seed: 1, scale: 10, workers: 2, dir: t.TempDir()}, reps: 2, log: io.Discard}
}

// layerMetrics lists, per workload, the per-layer metrics the traced pass
// must emit beyond perLayer (sched.* only when there is a second worker).
var layerMetrics = map[string][]string{
	"e2e.pagerank.rmat": {"storage.load_s", "storage.load_mb_per_s", "prep.adjacency_s", "prep.ns_per_edge", "core.ns_per_edge"},
	"warm.pagerank.rmat": {"prep.adjacency_s", "prep.ns_per_edge", "core.ns_per_edge",
		"core.ns_per_edge.adjacency-pull", "core.ns_per_edge.grid-pull", "core.ns_per_edge.edgearray-push-atomics",
		"core.auto_over_fixed", "sched.speedup.core_run", "sched.efficiency.core_run",
		"sched.speedup.prep_adjacency", "sched.efficiency.prep_adjacency", "trace.recorder_overhead_pct"},
	"warm.bfs.rmat":  {"prep.adjacency_s", "prep.ns_per_edge", "core.plan_switches"},
	"warm.sssp.road": {"prep.adjacency_s", "prep.ns_per_edge", "core.auto_over_fixed"},
	"stream.pagerank.v1": {"prep.store_build_s", "oocore.open_s", "oocore.bytes_per_edge", "oocore.reads", "oocore.read_mb_per_s",
		"oocore.io_wait_share", "oocore.peak_resident_mb", "codec.ratio", "core.ns_per_edge"},
	"stream.pagerank.v2": {"prep.store_build_s", "oocore.open_s", "oocore.bytes_per_edge", "oocore.reads", "oocore.read_mb_per_s",
		"oocore.io_wait_share", "oocore.peak_resident_mb", "codec.ratio", "codec.decode_ns_per_edge", "core.ns_per_edge"},
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	r := testRunner(t)
	for _, w := range workloads {
		plain, err := r.untraced(w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		traced, _, err := r.traced(w)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		for _, rep := range []*report{plain, traced} {
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s: %d of %d ops failed", w.name, rep.Failed, rep.Attempted)
			}
		}
		for _, name := range append([]string{"oracle_s"}, endToEnd...) {
			if m := plain.Metrics[name]; m.Unit != "s" || m.Value <= 0 {
				t.Errorf("%s: end-to-end pass: metric %s = %+v", w.name, name, m)
			}
		}
		for _, name := range append(append([]string{}, perLayer...), layerMetrics[w.name]...) {
			if m, ok := traced.Metrics[name]; !ok || m.Unit == "" {
				t.Errorf("%s: traced pass: metric %s missing or without unit: %+v", w.name, name, m)
			}
		}
		if w.name == "warm.bfs.rmat" && traced.Notes["core.plan_trace"] == "" {
			t.Errorf("%s: no plan trace", w.name)
		}
	}
}

func TestCorruptedResultCountsAsFailedOp(t *testing.T) {
	r := testRunner(t)
	for _, w := range workloads {
		inst, err := w.setup(r.opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := inst.oracle()
		rep := &report{Name: w.name}
		r.attempt(rep, want, inst.op)
		r.attempt(rep, want, func() (outcome, error) {
			out, err := inst.op()
			switch {
			case out.ranks != nil:
				out.ranks[3] += 1e-6
			case out.levels != nil:
				out.levels[len(out.levels)-1][0]++
			default:
				out.dists[len(out.dists)-1][0]++
			}
			return out, err
		})
		if rep.Attempted != 2 || rep.Failed != 1 {
			t.Errorf("%s: attempted %d failed %d, want 2 and 1", w.name, rep.Attempted, rep.Failed)
		}
	}
	// A streamed run over its budget is a failed op too.
	inst, err := workloads[4].setup(r.opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := inst.op()
	if err != nil {
		t.Fatal(err)
	}
	out.budget = out.runs[0].IO.PeakResidentBytes - 1
	if err := verify(out, outcome{}); err == nil {
		t.Error("peak resident bytes over the budget passed verification")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "load", StartNS: 5, EndNS: 45, Parent: 0},
		{Name: "run", StartNS: 50, EndNS: 95, Parent: 0},
		{Name: "inner", StartNS: 60, EndNS: 70, Parent: 2},
	}
	if got, want := selfTimes(spans), []int64{15, 40, 35, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	tr := newTracer("w")
	tr.rep = 0
	_ = tr.do("op", func() error { return tr.do("child", func() error { return nil }) })
	if len(tr.spans) != 2 || tr.spans[0].Parent != -1 || tr.spans[1].Parent != 0 || tr.spans[0].EndNS < tr.spans[1].EndNS {
		t.Errorf("nested spans recorded as %+v", tr.spans)
	}
	var off *tracer
	if err := off.do("x", func() error { return io.EOF }); err != io.EOF {
		t.Errorf("nil tracer returned %v", err)
	}
}

// The layer spans of the traced e2e op must account for the op: what is left
// to the harness between them is under 5% of the op span.
func TestLayerSpansCoverTheTracedOp(t *testing.T) {
	r := testRunner(t)
	r.opt.scale, r.reps = 12, 3
	_, tr, err := r.traced(workloads[0])
	if err != nil {
		t.Fatal(err)
	}
	self := selfTimes(tr.spans)
	best := 1.0
	for i, s := range tr.spans {
		if s.Name == "op" {
			best = min(best, float64(self[i])/float64(s.EndNS-s.StartNS))
		}
	}
	// The least-disturbed rep: a scheduling hiccup between two spans on a
	// loaded test host is not the harness's cost.
	if best >= 0.05 {
		t.Errorf("harness self time is %.1f%% of the op span in the best rep", 100*best)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 = quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	m := func(v, iqr float64) metric { return metric{Value: v, IQR: iqr, Unit: "s"} }
	for _, c := range []struct {
		a, b metric
		want string
	}{
		{m(1, 0.02), m(1.05, 0.02), withinBound},
		{m(1, 0.02), m(1.2, 0.02), worse},
		{m(1, 0.02), m(0.9, 0.02), better},
		{m(1, 0.02), m(0.99, 0.02), withinBound},
		{m(1, 0.2), m(1.5, 0.02), unresolved},
		{m(1, 0.02), m(0.5, 0.2), unresolved},
	} {
		if got := verdict(c.a, c.b, 0.10); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareRefusesDifferentStamps(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, h hostStamp) string {
		rep := fullReport{Host: h, Workloads: []*report{{Name: "w", Metrics: metricSet{"op_s": {Value: 1, Unit: "s", IQR: 0.01, N: 9}}}}}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := hostStamp{NumCPU: 2, GOMAXPROCS: 2, Seed: 1, Scale: 18}
	a := write("a.json", base)
	var out bytes.Buffer
	if err := compareFiles(&out, a, a); err != nil || !strings.Contains(out.String(), withinBound) {
		t.Errorf("comparing a report with itself: %v, %q", err, out.String())
	}
	for what, h := range map[string]hostStamp{
		"procs": {NumCPU: 2, GOMAXPROCS: 1, Seed: 1, Scale: 18},
		"seed":  {NumCPU: 2, GOMAXPROCS: 2, Seed: 2, Scale: 18},
		"scale": {NumCPU: 2, GOMAXPROCS: 2, Seed: 1, Scale: 19},
	} {
		if err := compareFiles(io.Discard, a, write(what+".json", h)); err == nil || !strings.Contains(err.Error(), what) {
			t.Errorf("different %s: err = %v", what, err)
		}
	}
}

// The command's last line is the gate's contract: exactly these keys, and
// the metrics BENCHMARK.json declares for the pass that ran.
func TestResultLine(t *testing.T) {
	for trace, names := range map[string][]string{"0": endToEnd, "1": perLayer} {
		var out, errb bytes.Buffer
		if code := run([]string{"--workload", "warm.sssp.road", "--seed", "3", "--scale", "10", "--reps", "2", "--trace", trace}, &out, &errb); code != 0 {
			t.Fatalf("exit %d: %s", code, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		var metrics map[string]struct {
			Value *float64
			Unit  string
		}
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(line) != 4 || string(line["correct"]) != "true" || string(line["failed"]) != "0" || string(line["attempted"]) == "0" {
			t.Errorf("trace %s: result line %s", trace, lines[len(lines)-1])
		}
		got := make([]string, 0, len(metrics))
		for name, m := range metrics {
			got = append(got, name)
			if m.Value == nil || m.Unit == "" {
				t.Errorf("trace %s: metric %s lacks value or unit", trace, name)
			}
		}
		want := append([]string{}, names...)
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trace %s: metrics %v, want %v", trace, got, want)
		}
	}
	if code := run([]string{"--workload", "nope"}, io.Discard, io.Discard); code == 0 {
		t.Error("unknown workload exited 0")
	}
}

// BENCHMARK.json restates what the program knows; the two must not drift.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the program", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := decl.Workloads[i]; d.Name != w.name || d.Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: declared %+v, program has %q: %q", i, d, w.name, w.why)
		}
	}
	var e2e, layers []string
	for _, m := range decl.EndToEnd {
		e2e = append(e2e, m.Name)
		if m.Bound != bounds[m.Name] || m.Better != "lower" || m.Unit != "s" {
			t.Errorf("end-to-end metric %+v, program bound %v", m, bounds[m.Name])
		}
	}
	for _, m := range decl.PerLayer {
		layers = append(layers, m.Name)
	}
	if !reflect.DeepEqual(e2e, endToEnd) || !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("declared metrics %v / %v, program has %v / %v", e2e, layers, endToEnd, perLayer)
	}
}
