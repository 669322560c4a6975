// Command benchmark is the repository's performance benchmark: six named
// workloads, two end-to-end metrics (op_s, setup_s) measured with tracing
// off, and a traced pass that splits each operation by layer. Every result
// is checked against a serial oracle. See README.md beside this file.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/epfl-repro/everythinggraph/internal/metrics"
)

const (
	// setupReps is how often a run repeats a workload's set-up; setup_s is
	// the median, so one cold first set-up does not decide it.
	setupReps = 3
	// minReps is the fewest measured ops of a time-bounded run.
	minReps = 5
	// tracedMinReps is the fewest traced ops of a time-bounded traced run.
	tracedMinReps = 3
	// maxWorkers caps Workers = GOMAXPROCS so reports from hosts with more
	// cores than the sandbox stay comparable in shape.
	maxWorkers = 4
)

// endToEnd and perLayer are the metrics of the result line: every workload
// reports all of endToEnd with tracing off and all of perLayer when traced.
// BENCHMARK.json repeats them with directions and bounds.
var (
	endToEnd = []string{"op_s", "setup_s"}
	perLayer = []string{"core.algo_s", "core.run_overhead_s", "core.iterations", "core.us_per_iteration", "mem.peak_rss_mb", "trace.harness_overhead_pct"}
)

// bounds is the share of the baseline median by which an end-to-end metric
// may worsen before -compare calls it worse; BENCHMARK.json carries the same
// numbers for the gate.
var bounds = map[string]float64{"op_s": 0.25, "setup_s": 0.25}

// report is one workload's run.
type report struct {
	Name      string            `json:"name"`
	Attempted int               `json:"ops_attempted"`
	Failed    int               `json:"ops_failed"`
	Metrics   metricSet         `json:"metrics"`
	Notes     map[string]string `json:"notes,omitempty"`
}

// hostStamp says where and how a report was measured; -compare refuses
// reports whose procs, seed or scale differ.
type hostStamp struct {
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CgroupCPU  string  `json:"cgroup_cpu_max,omitempty"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Scale      int     `json:"scale"`
	Reps       int     `json:"reps"` // 0: as many as fit in Seconds
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
}

// fullReport is what -json writes and -compare reads.
type fullReport struct {
	Host      hostStamp `json:"host"`
	Workloads []*report `json:"workloads"`
}

// lazyFree makes the Go runtime give freed memory back to the OS lazily
// (MADV_FREE), as on any host with spare RAM. With the eager default, an op
// that allocates a few hundred MB re-faults whatever the scavenger returned
// since the last op, and in the sandbox VM that cost swung op_s of
// e2e.pagerank.rmat by a fifth from op to op. Garbage collection itself runs
// at the default GOGC. The runtime reads the setting only at start-up, so main
// re-executes the benchmark once with it set.
const lazyFree = "madvdontneed=0"

func main() {
	godebug := os.Getenv("GODEBUG")
	if strings.Contains(godebug, lazyFree) {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	// A signal that stops this process stops the child too.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	cmd := exec.CommandContext(ctx, exe, os.Args[1:]...)
	cmd.Env = append(os.Environ(), "GODEBUG="+strings.TrimPrefix(godebug+","+lazyFree, ","))
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	err = cmd.Run()
	stop()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		os.Exit(max(exit.ExitCode(), 1)) // -1 when a signal ended the child
	case err != nil:
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all six)")
	seed := fs.Int64("seed", 1, "derives every generator seed and source list")
	seconds := fs.Float64("seconds", 10, "measure each workload for this long")
	reps := fs.Int("reps", 0, "measure exactly this many ops instead of -seconds")
	trace := fs.Int("trace", 0, "1: the traced per-layer pass; 0: the end-to-end pass, tracing off")
	scale := fs.Int("scale", defaultScale, "log2 of the RMAT vertex count; sizes every workload")
	jsonOut := fs.String("json", "", "write the full report, with host stamp, to this file")
	traceOut := fs.String("trace-out", "", "write the traced pass's spans to this file")
	compare := fs.Bool("compare", false, "compare two -json reports: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two report files")
			return 2
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
	}

	// Set before the program's worker pool starts: it sizes itself once.
	workers := min(runtime.NumCPU(), maxWorkers)
	runtime.GOMAXPROCS(workers)
	// Scratch files live under the working directory, not the system's
	// temporary one: the gate lets a run write only inside its checkout.
	dir, err := os.MkdirTemp(".", ".egbench-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	r := runner{
		opt:     options{seed: *seed, scale: *scale, workers: workers, dir: dir},
		seconds: *seconds, reps: *reps, log: stderr,
	}
	full := fullReport{Host: stamp(r, *trace == 1)}
	var spans []span
	for _, w := range selected {
		var rep *report
		if *trace == 1 {
			var t *tracer
			rep, t, err = r.traced(w)
			if t != nil {
				spans = append(spans, t.spans...)
			}
		} else {
			rep, err = r.untraced(w)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		full.Workloads = append(full.Workloads, rep)
		printReport(stdout, rep)
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(full, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *traceOut != "" {
		if err := writeSpans(*traceOut, spans); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	// The result line: the last workload's, which is the only one when
	// -workload is given.
	names := endToEnd
	if *trace == 1 {
		names = perLayer
	}
	line, err := resultLine(full.Workloads[len(full.Workloads)-1], names)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// runner measures workloads under one set of options.
type runner struct {
	opt     options
	seconds float64
	reps    int
	log     io.Writer
}

// more reports whether a measuring loop that started at start and has done
// n ops should do another.
func (r runner) more(n, floor int, start time.Time) bool {
	if r.reps > 0 {
		return n < r.reps
	}
	return n < floor || time.Since(start).Seconds() < r.seconds
}

// attempt runs one op, verifies it with the timer stopped, counts it, and
// returns its wall seconds. A returned error or an oracle mismatch is a
// failed op, never a fatal one.
func (r runner) attempt(rep *report, want outcome, op func() (outcome, error)) (outcome, float64) {
	runtime.GC()
	t0 := time.Now()
	got, err := op()
	d := time.Since(t0).Seconds()
	if err == nil {
		err = verify(got, want)
	}
	rep.Attempted++
	if err != nil {
		rep.Failed++
		fmt.Fprintf(r.log, "benchmark: %s: op %d failed: %v\n", rep.Name, rep.Attempted, err)
	}
	return got, d
}

// oracle computes the expected outcome and drops the oracle's inputs, so a
// generated edge list does not stay resident through ops that load their own.
func oracle(inst *instance, m metricSet) outcome {
	t0 := time.Now()
	want := inst.oracle()
	inst.oracle = nil
	m.set("oracle_s", "s", time.Since(t0).Seconds())
	return want
}

// untraced is the end-to-end pass: set-up several times, one discarded
// warm-up op, then ops back to back from one client for the run's length.
func (r runner) untraced(w workload) (*report, error) {
	rep := &report{Name: w.name, Metrics: metricSet{}}
	var inst *instance
	var setups []float64
	for i := 0; i < setupReps; i++ {
		inst = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = w.setup(r.opt, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.Metrics.setSamples("setup_s", "s", setups)
	want := oracle(inst, rep.Metrics)

	r.attempt(rep, want, inst.op) // warm-up: caches fill, lazy set-up ends
	var ops []float64
	for start := time.Now(); r.more(len(ops), minReps, start); {
		_, d := r.attempt(rep, want, inst.op)
		ops = append(ops, d)
	}
	rep.Metrics.setSamples("op_s", "s", ops)
	return rep, nil
}

// traced is the per-layer pass. Each rep runs the op twice: once untraced
// through the public API and once as layer spans, so the two can be compared
// (trace.harness_overhead_pct) under the same conditions.
func (r runner) traced(w workload) (*report, *tracer, error) {
	rep := &report{Name: w.name, Metrics: metricSet{}}
	t := newTracer(w.name)
	inst, err := w.setup(r.opt, t)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	want := oracle(inst, rep.Metrics)

	r.attempt(rep, want, inst.op)
	var plain, spanned []float64
	var outs []outcome
	for start := time.Now(); r.more(len(outs), tracedMinReps, start); {
		_, d := r.attempt(rep, want, inst.op)
		plain = append(plain, d)
		t.rep = len(outs)
		out, d := r.attempt(rep, want, func() (out outcome, err error) {
			err = t.do("op", func() error {
				out, err = inst.traced(t)
				return err
			})
			return out, err
		})
		if out.runs == nil {
			return nil, nil, fmt.Errorf("traced op %d returned no engine run", len(outs))
		}
		spanned = append(spanned, d)
		outs = append(outs, outcome{runs: out.runs}) // the counts, not the result arrays
	}
	m := rep.Metrics
	m.setSamples("op_s.untraced", "s", plain)
	m.setSamples("op_s.traced", "s", spanned)
	m.set("trace.harness_overhead_pct", "%", 100*(median(spanned)-median(plain))/median(plain))
	coreMetrics(m, t, outs, inst)
	if inst.adaptive {
		rep.Notes = map[string]string{"core.plan_trace": metrics.CompressPlanTrace(outs[len(outs)-1].runs[0].PlanTrace())}
	}
	if err := inst.layers(m, t); err != nil {
		return nil, nil, fmt.Errorf("layer probes: %w", err)
	}
	m.set("mem.peak_rss_mb", "MB", peakRSSMB())
	return rep, t, nil
}

func stamp(r runner, traced bool) hostStamp {
	h := hostStamp{
		GoVersion: runtime.Version(), CPUModel: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: r.opt.workers,
		Commit: "unknown", Seed: r.opt.seed, Scale: r.opt.scale, Reps: r.reps, Seconds: r.seconds, Traced: traced,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/sys/fs/cgroup/cpu.max"); err == nil {
		h.CgroupCPU = strings.TrimSpace(string(data))
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// printReport prints every metric of a workload by name, with its unit.
func printReport(w io.Writer, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Fprintf(w, "%-20s %-38s %14.6g %-5s", rep.Name, name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " min %.6g max %.6g iqr %.6g n %d", m.Min, m.Max, m.IQR, m.N)
		}
		fmt.Fprintln(w)
	}
	for name, note := range rep.Notes {
		fmt.Fprintf(w, "%-20s %-38s %s\n", rep.Name, name, note)
	}
	fmt.Fprintf(w, "%-20s %-38s %14d\n%-20s %-38s %14d\n", rep.Name, "ops_attempted", rep.Attempted, rep.Name, "ops_failed", rep.Failed)
}

// resultLine is the one-line JSON object the gate reads: the named metrics
// of rep with value and unit only.
func resultLine(rep *report, names []string) (string, error) {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, map[string]valueUnit{}}
	for _, name := range names {
		line.Metrics[name] = valueUnit{rep.Metrics[name].Value, rep.Metrics[name].Unit}
	}
	data, err := json.Marshal(line) // fails on a NaN or infinite metric
	return string(data), err
}
