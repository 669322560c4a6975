package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.SetNumVertices(10)
	if id := r.Intern("x"); id != 0 {
		t.Fatalf("nil Intern = %d", id)
	}
	r.IterationSpan(time.Now(), time.Millisecond, 0, 0, 1, 0, 0)
	r.Decision(0, 0, 1, 2, true, false)
	r.FetchSpan(TrackFetcherBase, time.Now(), 10, 80, false)
	r.Stall(TrackWorkerBase, time.Now(), time.Microsecond)
	r.AddCounter("x", 1)
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder retained events")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil Snapshot must be nil")
	}
	if r.Decisions() != nil {
		t.Fatal("nil Decisions must be nil")
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil export is not valid JSON: %v", err)
	}
}

func TestInternStableIDs(t *testing.T) {
	r := NewRecorder(16)
	a := r.Intern("adjacency/pull/no-lock")
	b := r.Intern("adjacency/push/atomics")
	if a == b {
		t.Fatal("distinct labels share an id")
	}
	if r.Intern("adjacency/pull/no-lock") != a {
		t.Fatal("re-interning changed the id")
	}
}

func TestRingWrapDropsOldest(t *testing.T) {
	r := NewRecorder(5) // rounds up to 8
	if len(r.events) != 8 {
		t.Fatalf("capacity = %d, want 8", len(r.events))
	}
	id := r.Intern("p")
	for i := 0; i < 20; i++ {
		r.IterationSpan(r.epoch, time.Duration(i+1), i, id, 1, 0, 0)
	}
	if r.Len() != 8 {
		t.Fatalf("Len = %d", r.Len())
	}
	if r.Dropped() != 12 {
		t.Fatalf("Dropped = %d", r.Dropped())
	}
	evs := r.ordered()
	if len(evs) != 8 {
		t.Fatalf("ordered returned %d events", len(evs))
	}
	// Oldest-first: the retained events are iterations 12..19.
	for i, ev := range evs {
		if ev.arg[0] != int64(12+i) {
			t.Fatalf("event %d is iteration %d, want %d", i, ev.arg[0], 12+i)
		}
	}
	// Histograms survive the wrap: all 20 samples are counted.
	if got := r.iterNs.count.Load(); got != 20 {
		t.Fatalf("histogram count = %d", got)
	}
	snap := r.Snapshot()
	if v, _ := snap.Get("trace.events_dropped"); v != 12 {
		t.Fatalf("events_dropped counter = %d", v)
	}
}

func TestSnapshotCountersAndHistograms(t *testing.T) {
	r := NewRecorder(64)
	id := r.Intern("grid/push/no-lock")
	start := r.epoch
	r.IterationSpan(start, 2*time.Millisecond, 0, id, 100, time.Millisecond, 500*time.Microsecond)
	r.FetchSpan(TrackFetcherBase, time.Now(), 1000, 8000, true)
	r.AddCounter("sched.parks", 3)
	r.AddCounter("sched.parks", 2)
	snap := r.Snapshot()
	if v, _ := snap.Get("sched.parks"); v != 5 {
		t.Fatalf("sched.parks = %d", v)
	}
	if v, _ := snap.Get("oocore.fetched_edges"); v != 1000 {
		t.Fatalf("fetched_edges = %d", v)
	}
	if v, _ := snap.Get("engine.io_wait_ns"); v != int64(time.Millisecond) {
		t.Fatalf("io_wait_ns = %d", v)
	}
	h, ok := snap.Histograms["engine.iteration_ns"]
	if !ok || h.Count != 1 || h.SumNs != int64(2*time.Millisecond) {
		t.Fatalf("iteration histogram = %+v (ok=%v)", h, ok)
	}
	if h.MinNs != h.MaxNs || h.MinNs != int64(2*time.Millisecond) {
		t.Fatalf("min/max = %d/%d", h.MinNs, h.MaxNs)
	}
	if _, ok := snap.Histograms["oocore.stall_ns"]; ok {
		t.Fatal("empty histogram must be omitted")
	}
}

func TestDecisionsGroupByIteration(t *testing.T) {
	r := NewRecorder(64)
	pull := r.Intern("adjacency/pull/no-lock")
	push := r.Intern("adjacency/push/atomics")
	r.Decision(0, pull, 2.0, 0, false, false)
	r.Decision(0, push, 1.5, 0, true, false)
	r.Decision(3, pull, 2.0, 1.8, true, false)
	r.Decision(3, push, 1.5, 2.5, false, false)
	ds := r.Decisions()
	if len(ds) != 2 {
		t.Fatalf("decisions = %d", len(ds))
	}
	d0 := ds[0]
	if d0.Iteration != 0 || len(d0.Candidates) != 2 {
		t.Fatalf("decision 0 = %+v", d0)
	}
	if !d0.Candidates[1].Chosen || d0.Candidates[1].Plan != "adjacency/push/atomics" {
		t.Fatalf("chosen candidate = %+v", d0.Candidates[1])
	}
	if ds[1].Candidates[0].MeasuredNsPerEdge != 1.8 {
		t.Fatalf("measured = %v", ds[1].Candidates[0].MeasuredNsPerEdge)
	}
}

func TestChromeExport(t *testing.T) {
	r := NewRecorder(64)
	r.SetNumVertices(200)
	id := r.Intern("adjacency/pull/no-lock")
	other := r.Intern("adjacency/push/atomics")
	start := r.epoch.Add(time.Millisecond)
	r.Decision(0, id, 2.0, 0, true, true)
	r.Decision(0, other, 3.0, 0, false, false)
	r.IterationSpan(start, 2*time.Millisecond, 0, id, 50, 0, 0)
	r.FetchSpan(TrackFetcherBase+1, time.Now(), 64, 512, true)
	r.Stall(TrackWorkerBase, time.Now(), 20*time.Microsecond)

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export does not parse: %v", err)
	}

	names := map[string]int{}
	threadNames := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name]++
		if ev.Name == "thread_name" {
			threadNames[ev.Args["name"].(string)] = true
		}
		switch ev.Name {
		case "adjacency/pull/no-lock":
			if ev.Ph != "X" || ev.Dur != 2000 || ev.Tid != 0 {
				t.Fatalf("iteration span = %+v", ev)
			}
			if d := ev.Args["frontier_density"].(float64); d != 0.25 {
				t.Fatalf("frontier_density = %v", d)
			}
		case "plan decision":
			cands := ev.Args["candidates"].([]any)
			if len(cands) != 2 {
				t.Fatalf("candidates = %d", len(cands))
			}
			if ev.Args["chosen"].(string) != "adjacency/pull/no-lock" {
				t.Fatalf("chosen = %v", ev.Args["chosen"])
			}
			if ev.Args["frozen"] != true {
				t.Fatal("frozen lost")
			}
		}
	}
	for _, want := range []string{"adjacency/pull/no-lock", "plan decision", "fetch+decode", "io-stall"} {
		if names[want] == 0 {
			t.Fatalf("export missing %q event; got %v", want, names)
		}
	}
	for _, want := range []string{"engine", "worker-0", "fetcher-1"} {
		if !threadNames[want] {
			t.Fatalf("missing thread name %q; got %v", want, threadNames)
		}
	}
}

// BenchmarkRecordDisabled measures the disabled path: a nil recorder must
// cost a pointer test and nothing else (sub-nanosecond, zero allocations),
// because it sits on the engine's per-iteration path for every run.
func BenchmarkRecordDisabled(b *testing.B) {
	var r *Recorder
	start := time.Time{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.IterationSpan(start, 0, i, 0, 0, 0, 0)
	}
}

// BenchmarkIterationSpanEnabled proves the enabled steady state allocates
// nothing: recording is a struct store plus an atomic cursor bump.
func BenchmarkIterationSpanEnabled(b *testing.B) {
	r := NewRecorder(1 << 12)
	id := r.Intern("adjacency/pull/no-lock")
	start := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.IterationSpan(start, time.Millisecond, i, id, 100, 0, 0)
	}
}

func BenchmarkFetchSpanEnabled(b *testing.B) {
	r := NewRecorder(1 << 12)
	start := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.FetchSpan(TrackFetcherBase, start, 4096, 32768, true)
	}
}
