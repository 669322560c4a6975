package trace

import (
	"encoding/json"
	"io"
	"math"
	"sort"
)

// chromeEvent is one entry of the Chrome trace-event format (the JSON
// dialect chrome://tracing and Perfetto load). Ts/Dur are microseconds.
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur,omitempty"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	S    string  `json:"s,omitempty"`
	Args any     `json:"args,omitempty"`
}

type chromeDoc struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// candidateArgs is the JSON form of one scored candidate inside a grouped
// "plan decision" instant event.
type candidateArgs struct {
	Plan               string  `json:"plan"`
	PredictedNsPerEdge float64 `json:"predicted_ns_per_edge"`
	MeasuredNsPerEdge  float64 `json:"measured_ns_per_edge,omitempty"`
	Chosen             bool    `json:"chosen,omitempty"`
	Frozen             bool    `json:"frozen,omitempty"`
}

// WriteChromeTrace renders the retained events as Chrome trace-event JSON:
// iteration spans (named by their plan label) and planner events on the
// "engine" track, prefetch stalls on one track per compute worker, and
// read/decode spans on one track per fetcher. Per-candidate decision
// records are grouped back into one instant event per decision, whose args
// carry the full scored candidate set. Call after the run completes.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}
	r.mu.Lock()
	labels := append([]string(nil), r.labels...)
	numVertices := r.numVertices
	runName := r.runName
	r.mu.Unlock()
	pid := int(r.runID)
	if runName == "" {
		runName = "run-" + itoa(pid)
	}
	label := func(id int64) string {
		if id >= 0 && id < int64(len(labels)) {
			return labels[id]
		}
		return "?"
	}

	events := r.ordered()
	doc := chromeDoc{TraceEvents: make([]chromeEvent, 0, len(events)+8)}

	// Name the tracks that actually carry events.
	tracks := map[int32]bool{TrackEngine: true}
	for _, ev := range events {
		tracks[ev.track] = true
	}
	ids := make([]int32, 0, len(tracks))
	for id := range tracks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// The run id is the export's process: merged traces of concurrent runs
	// keep one named track group per run instead of piling every run's
	// engine/worker-N/fetcher-N onto colliding (0, tid) pairs.
	doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]string{"name": runName},
	})
	for _, id := range ids {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: int(id),
			Args: map[string]string{"name": trackName(id)},
		})
	}

	// Group decision candidates by iteration so each decision is one
	// instant event listing every scored alternative.
	type decisionGroup struct {
		ts         int64
		iteration  int64
		chosen     string
		frozen     bool
		candidates []candidateArgs
	}
	var decisions []*decisionGroup
	decisionByIter := make(map[int64]*decisionGroup)

	for _, ev := range events {
		switch ev.kind {
		case kindIter:
			args := map[string]any{
				"iteration":       ev.arg[0],
				"active_vertices": ev.arg[2],
				"io_wait_ns":      ev.arg[3],
				"io_hidden_ns":    ev.arg[4],
			}
			if numVertices > 0 {
				args["frontier_density"] = float64(ev.arg[2]) / float64(numVertices)
			}
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: label(ev.arg[1]), Ph: "X",
				Ts: micros(ev.start), Dur: micros(ev.dur),
				Pid: pid, Tid: int(ev.track), Args: args,
			})
		case kindDecision:
			g, ok := decisionByIter[ev.arg[0]]
			if !ok {
				g = &decisionGroup{ts: ev.start, iteration: ev.arg[0]}
				decisionByIter[ev.arg[0]] = g
				decisions = append(decisions, g)
			}
			cand := candidateArgs{
				Plan:               label(ev.arg[1]),
				PredictedNsPerEdge: math.Float64frombits(uint64(ev.arg[2])),
				MeasuredNsPerEdge:  math.Float64frombits(uint64(ev.arg[3])),
				Chosen:             ev.arg[4]&1 != 0,
				Frozen:             ev.arg[4]&2 != 0,
			}
			if cand.Chosen {
				g.chosen = cand.Plan
				g.frozen = cand.Frozen
			}
			g.candidates = append(g.candidates, cand)
		case kindFetch:
			name := "fetch"
			if ev.arg[2] != 0 {
				name = "fetch+decode"
			}
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: name, Ph: "X",
				Ts: micros(ev.start), Dur: micros(ev.dur),
				Pid:  pid,
				Tid:  int(ev.track),
				Args: map[string]any{"edges": ev.arg[0], "bytes": ev.arg[1]},
			})
		case kindStall:
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: "io-stall", Ph: "X",
				Ts: micros(ev.start), Dur: micros(ev.dur),
				Pid: pid, Tid: int(ev.track),
			})
		}
	}

	for _, g := range decisions {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "plan decision", Ph: "I", S: "g",
			Ts: micros(g.ts), Pid: pid, Tid: int(TrackEngine),
			Args: map[string]any{
				"iteration":  g.iteration,
				"chosen":     g.chosen,
				"frozen":     g.frozen,
				"candidates": g.candidates,
			},
		})
	}

	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(doc)
}

func micros(ns int64) float64 { return float64(ns) / 1e3 }

func trackName(id int32) string {
	switch {
	case id == TrackEngine:
		return "engine"
	case id >= TrackFetcherBase:
		return "fetcher-" + itoa(int(id-TrackFetcherBase))
	default:
		return "worker-" + itoa(int(id-TrackWorkerBase))
	}
}

// itoa avoids importing strconv for two-digit track numbers.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
