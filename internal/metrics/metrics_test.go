package metrics

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestBreakdownTotalAndAdd(t *testing.T) {
	a := Breakdown{Load: 1 * time.Second, Preprocess: 2 * time.Second, Algorithm: 7 * time.Second}
	if a.Total() != 10*time.Second {
		t.Fatalf("Total = %v", a.Total())
	}
	b := Breakdown{Algorithm: 1 * time.Second}
	sum := a.Add(b)
	if sum.Algorithm != 8*time.Second || sum.Load != 1*time.Second {
		t.Fatalf("Add = %+v", sum)
	}
	half := a.Scale(0.5)
	if half.Preprocess != 1*time.Second || half.Total() != 5*time.Second {
		t.Fatalf("Scale = %+v", half)
	}
}

func TestBreakdownAddCommutativeProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		x := Breakdown{Preprocess: time.Duration(a), Algorithm: time.Duration(b)}
		y := Breakdown{Preprocess: time.Duration(b), Load: time.Duration(a)}
		return x.Add(y).Total() == y.Add(x).Total()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBreakdownString(t *testing.T) {
	b := Breakdown{Preprocess: 1500 * time.Millisecond, Algorithm: 500 * time.Millisecond}
	s := b.String()
	if !strings.Contains(s, "pre=1.5s") || !strings.Contains(s, "algo=500ms") || !strings.Contains(s, "total=2s") {
		t.Fatalf("unexpected String(): %q", s)
	}
	if strings.Contains(s, "load=") {
		t.Fatalf("zero phases must be omitted: %q", s)
	}
	withLoad := Breakdown{Load: time.Second}
	if !strings.Contains(withLoad.String(), "load=1s") {
		t.Fatalf("load phase missing: %q", withLoad.String())
	}
}

func TestStopwatchLap(t *testing.T) {
	sw := NewStopwatch()
	time.Sleep(5 * time.Millisecond)
	lap1 := sw.Lap()
	if lap1 < 4*time.Millisecond {
		t.Fatalf("lap1 = %v, expected at least ~5ms", lap1)
	}
	lap2 := sw.Lap()
	if lap2 > lap1 {
		t.Fatalf("second lap (%v) should be shorter than the first (%v)", lap2, lap1)
	}
	if sw.Total() < lap1 {
		t.Fatal("total must cover the first lap")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Demo", "a", "b")
	tbl.AddRow("row-two", map[string]string{"a": "1", "b": "22"})
	tbl.AddRow("row-one", map[string]string{"a": "333", "b": "4"})
	out := tbl.String()
	if !strings.Contains(out, "== Demo ==") {
		t.Fatalf("missing title: %q", out)
	}
	if !strings.Contains(out, "configuration") {
		t.Fatalf("missing header: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title, header, 2 rows
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
	// Missing values render as empty strings, not panics.
	tbl.AddRow("row-three", map[string]string{"a": "x"})
	_ = tbl.String()
}

func TestFormatters(t *testing.T) {
	if FormatSeconds(1500*time.Millisecond) != "1.500s" {
		t.Fatalf("FormatSeconds = %q", FormatSeconds(1500*time.Millisecond))
	}
}

func TestCompressPlanTrace(t *testing.T) {
	cases := []struct {
		in   []string
		want string
	}{
		{nil, ""},
		{[]string{}, ""},
		{[]string{"a/push/atomics"}, "a/push/atomics"},
		{[]string{"a/push/atomics", "a/push/atomics"}, "a/push/atomics x2"},
		// All-identical trace collapses to a single run with a multi-digit
		// count (dense algorithms freeze one plan for the whole run).
		{
			[]string{"a", "a", "a", "a", "a", "a", "a", "a", "a", "a", "a", "a"},
			"a x12",
		},
		// Alternating plans never form a run.
		{[]string{"a", "b", "a", "b"}, "a -> b -> a -> b"},
		// A run ending exactly at the trace boundary keeps its count.
		{[]string{"a", "b", "b", "b"}, "a -> b x3"},
		// Empty-string labels are still labels: runs compress by equality.
		{[]string{"", "", "x"}, " x2 -> x"},
		{
			[]string{"a/push/atomics", "a/pull/no-lock", "a/pull/no-lock", "a/push/atomics"},
			"a/push/atomics -> a/pull/no-lock x2 -> a/push/atomics",
		},
		{
			// A direction change alone is a new run in the trace.
			[]string{"grid/push/no-lock", "grid/pull/no-lock", "grid/pull/no-lock"},
			"grid/push/no-lock -> grid/pull/no-lock x2",
		},
	}
	for _, c := range cases {
		if got := CompressPlanTrace(c.in); got != c.want {
			t.Fatalf("CompressPlanTrace(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSnapshotAccessors(t *testing.T) {
	s := NewSnapshot()
	s.Counters["engine.iterations"] = 7
	s.Counters["sched.parks"] = 3
	if v, ok := s.Get("engine.iterations"); !ok || v != 7 {
		t.Fatalf("Get = %d, %v", v, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get found a missing counter")
	}
	var names []string
	s.Do(func(name string, value int64) { names = append(names, name) })
	if len(names) != 2 || names[0] != "engine.iterations" || names[1] != "sched.parks" {
		t.Fatalf("Do order = %v", names)
	}

	// Nil snapshots behave like the disabled recorder that produces them.
	var nilSnap *Snapshot
	if _, ok := nilSnap.Get("x"); ok {
		t.Fatal("nil Get found a counter")
	}
	nilSnap.Do(func(string, int64) { t.Fatal("nil Do called back") })
	if nilSnap.String() != "null" {
		t.Fatalf("nil String = %q", nilSnap.String())
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	s := NewSnapshot()
	s.Counters["oocore.fetched_bytes"] = 4096
	s.Histograms["engine.iteration_ns"] = Histogram{
		Count: 2, SumNs: 3000, MinNs: 1000, MaxNs: 2000,
		Buckets: []HistogramBucket{{UpperNs: 1024, Count: 1}, {UpperNs: 2048, Count: 1}},
	}
	var buf strings.Builder
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal([]byte(buf.String()), &back); err != nil {
		t.Fatalf("WriteJSON output does not parse: %v", err)
	}
	if back.Counters["oocore.fetched_bytes"] != 4096 {
		t.Fatalf("counter lost in round trip: %+v", back.Counters)
	}
	h := back.Histograms["engine.iteration_ns"]
	if h.Count != 2 || h.MeanNs() != 1500 || len(h.Buckets) != 2 {
		t.Fatalf("histogram lost in round trip: %+v", h)
	}
	if !strings.Contains(s.String(), `"oocore.fetched_bytes":4096`) {
		t.Fatalf("String() missing counter: %s", s.String())
	}
}
