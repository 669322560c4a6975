package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the program: the harness wraps the layer's public function.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"` // setupRep for set-up spans
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // index into the span list, -1 for a root
}

func (s span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// setupRep is the rep number of spans recorded during set-up.
const setupRep = -1

// tracer keeps spans in memory until the run ends. It is used from the
// benchmark's own goroutine only. A nil tracer records nothing, which is how
// the end-to-end pass runs with tracing off.
type tracer struct {
	workload string
	rep      int
	epoch    time.Time
	spans    []span
	open     []int // stack of spans not yet ended
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, rep: setupRep, epoch: time.Now()}
}

// do runs f inside a span named name, a child of the innermost open span.
func (t *tracer) do(name string, f func() error) error {
	if t == nil {
		return f()
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, Rep: t.rep, Parent: parent, StartNS: int64(time.Since(t.epoch))})
	t.open = append(t.open, id)
	err := f()
	t.spans[id].EndNS = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
	return err
}

// perRep returns, for each measured rep in order, the summed seconds of the
// spans called name (an op may call a layer more than once).
func (t *tracer) perRep(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name != name || s.Rep < 0 {
			continue
		}
		for len(out) <= s.Rep {
			out = append(out, 0)
		}
		out[s.Rep] += s.seconds()
	}
	return out
}

// setup returns the seconds of the set-up span called name, 0 if absent.
func (t *tracer) setup(name string) float64 {
	for _, s := range t.spans {
		if s.Name == name && s.Rep == setupRep {
			return s.seconds()
		}
	}
	return 0
}

// selfTimes returns each span's duration minus the part its children cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		d := s.EndNS - s.StartNS
		self[i] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		}
	}
	return self
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
