// Package trace is the run-scoped observability recorder of the engine: a
// preallocated ring of fixed-size events that the engine, the execution
// planner and the out-of-core fetcher pipeline feed
// while a run executes. Recording one event is a handful of stores plus one
// atomic cursor increment — no allocation, no locking — so a traced
// steady-state iteration keeps the engine's zero-allocation contract; a nil
// *Recorder disables every method at the cost of one pointer test, so
// untraced runs pay nothing measurable per edge.
//
// Two exports read the ring after a run completes: WriteChromeTrace renders
// the events as Chrome trace-event JSON (loadable in chrome://tracing and
// Perfetto, one track per compute worker and fetcher), and Snapshot folds
// the recorder's counters and histograms into a flat metrics.Snapshot — the
// scrape format a serving daemon can expose. Both readers assume the run has
// finished: the ring is single-writer per slot only because slots are
// claimed atomically, and exporting while events are still being recorded
// would read half-written slots.
package trace

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/epfl-repro/everythinggraph/internal/metrics"
)

// Track numbering of the Chrome export: every event carries a track id that
// the exporter turns into a named thread. The engine (iteration spans,
// planner decisions) records on TrackEngine; streamed
// compute workers record their prefetch stalls on TrackWorkerBase+i and the
// per-group fetcher goroutines record read/decode spans on
// TrackFetcherBase+i.
const (
	TrackEngine      int32 = 0
	TrackWorkerBase  int32 = 1
	TrackFetcherBase int32 = 1001
)

// Event kinds stored in the ring.
const (
	kindIter uint8 = iota + 1
	kindDecision
	kindFetch
	kindStall
)

// event is one fixed-size ring entry (64 bytes): recording is a struct
// assignment, so the hot path never follows a pointer or allocates.
type event struct {
	kind  uint8
	track int32
	start int64 // ns since the recorder's epoch
	dur   int64 // ns; 0 for instant events
	arg   [5]int64
}

// DefaultCapacity is the ring size used when NewRecorder is given a
// non-positive capacity: 32768 events (2 MiB), enough for every iteration
// of any benchmarked run plus the fetch spans of several streamed passes.
const DefaultCapacity = 1 << 15

// Recorder is the run-scoped event ring. The zero value is not usable;
// construct with NewRecorder. A nil *Recorder is the disabled recorder:
// every method is safe to call and does nothing.
type Recorder struct {
	epoch  time.Time
	events []event
	mask   uint64
	cursor atomic.Uint64

	// Online histograms, updated as spans are recorded (the ring may wrap,
	// so they cannot be reconstructed from it at export time).
	iterNs  hist
	fetchNs hist
	stallNs hist

	// Event-kind counters that must survive ring wrap.
	decisions   atomic.Int64
	fetchEdges  atomic.Int64
	fetchBytes  atomic.Int64
	stallTotal  atomic.Int64
	iterIOWait  atomic.Int64
	iterIOHides atomic.Int64

	mu          sync.Mutex
	labels      []string
	labelIDs    map[string]int32
	counters    map[string]int64
	numVertices int
	runName     string

	// runID keys this recorder's tracks in the Chrome export (its "process").
	// Concurrent runs — two leased queries on one store, a batch's groups —
	// each own a recorder, and before the export carried the run id their
	// merged traces collided: every run's engine was tid 0, every run's first
	// worker tid 1. With the id as the pid, track identity is (run, track)
	// and merged exports stay readable.
	runID int64
}

// runSeq hands out process-unique run ids, one per recorder.
var runSeq atomic.Int64

// NewRecorder builds a recorder whose ring holds at least capacity events
// (rounded up to a power of two; capacity <= 0 selects DefaultCapacity).
// When the ring wraps, the oldest events are overwritten and counted as
// dropped — counters and histograms keep accumulating regardless.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	r := &Recorder{
		epoch:    time.Now(),
		events:   make([]event, n),
		mask:     uint64(n - 1),
		labelIDs: make(map[string]int32),
		counters: make(map[string]int64),
		runID:    runSeq.Add(1),
	}
	r.iterNs.init()
	r.fetchNs.init()
	r.stallNs.init()
	return r
}

// Enabled reports whether events are being recorded (false on nil).
func (r *Recorder) Enabled() bool { return r != nil }

// RunID returns the recorder's process-unique run id — the Chrome export's
// pid, keying this run's tracks apart from every concurrent run's (0 on
// nil).
func (r *Recorder) RunID() int64 {
	if r == nil {
		return 0
	}
	return r.runID
}

// SetRunName labels the run in the Chrome export's process name (e.g.
// "bfs lease-0"); unnamed runs export as "run-<id>".
func (r *Recorder) SetRunName(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.runName = name
	r.mu.Unlock()
}

// SetNumVertices records the run's vertex count so the exporter can derive
// frontier density from the active-vertex count of each iteration span.
func (r *Recorder) SetNumVertices(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.numVertices = n
	r.mu.Unlock()
}

// Intern registers a label (a plan string, typically) and returns its id.
// The same label always maps to the same id. Interning takes a mutex and may
// allocate, so callers cache ids and call this only on the first occurrence
// of each distinct label — which is what keeps the per-iteration recording
// path allocation-free.
func (r *Recorder) Intern(label string) int32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.labelIDs[label]; ok {
		return id
	}
	id := int32(len(r.labels))
	r.labels = append(r.labels, label)
	r.labelIDs[label] = id
	return id
}

// record claims the next ring slot and stores the event. Concurrent
// recorders (the engine plus several fetchers) each get a distinct slot from
// the atomic cursor, so no two writers touch the same memory.
func (r *Recorder) record(ev event) {
	idx := r.cursor.Add(1) - 1
	r.events[idx&r.mask] = ev
}

// IterationSpan records one engine iteration: when it started, how long it
// ran, which plan label it executed (an Intern id), how many vertices were
// active, and how much of it stalled on (or was hidden by) storage.
func (r *Recorder) IterationSpan(start time.Time, dur time.Duration, iteration int, label int32, activeVertices int, ioWait, ioHidden time.Duration) {
	if r == nil {
		return
	}
	r.iterNs.add(int64(dur))
	r.iterIOWait.Add(int64(ioWait))
	r.iterIOHides.Add(int64(ioHidden))
	r.record(event{
		kind:  kindIter,
		track: TrackEngine,
		start: start.Sub(r.epoch).Nanoseconds(),
		dur:   int64(dur),
		arg:   [5]int64{int64(iteration), int64(label), int64(activeVertices), int64(ioWait), int64(ioHidden)},
	})
}

// Decision records one scored candidate of a planner decision: its plan
// label, the cost model's predicted ns/edge, the measured ns/edge (0 while
// unmeasured), and whether this candidate was the one chosen (and, for
// dense runs, frozen for the rest of the run). The planner emits one
// Decision per candidate; the exporter groups the candidates of one
// iteration back into a single decision event, so the trace shows the full
// "why" — every alternative and its score — not just the winner.
func (r *Recorder) Decision(iteration int, label int32, predictedNsPerEdge, measuredNsPerEdge float64, chosen, frozen bool) {
	if r == nil {
		return
	}
	var flags int64
	if chosen {
		flags |= 1
	}
	if frozen {
		flags |= 2
	}
	r.decisions.Add(1)
	r.record(event{
		kind:  kindDecision,
		track: TrackEngine,
		start: time.Since(r.epoch).Nanoseconds(),
		arg: [5]int64{
			int64(iteration),
			int64(label),
			int64(math.Float64bits(predictedNsPerEdge)),
			int64(math.Float64bits(measuredNsPerEdge)),
			flags,
		},
	})
}

// FetchSpan records one coalesced fetch of the out-of-core pipeline: a
// segment read (plus in-pipeline decode for compressed stores) that started
// at start and completed now, delivering edges decoded edge records from
// bytes stored bytes. track identifies the fetcher (TrackFetcherBase+i).
func (r *Recorder) FetchSpan(track int32, start time.Time, edges, bytes int64, decode bool) {
	if r == nil {
		return
	}
	dur := time.Since(start).Nanoseconds()
	r.fetchNs.add(dur)
	r.fetchEdges.Add(edges)
	r.fetchBytes.Add(bytes)
	var dec int64
	if decode {
		dec = 1
	}
	r.record(event{
		kind:  kindFetch,
		track: track,
		start: start.Sub(r.epoch).Nanoseconds(),
		dur:   dur,
		arg:   [5]int64{edges, bytes, dec, 0, 0},
	})
}

// Stall records a compute worker stalling on the prefetch pipeline (the
// per-slice wait the IOWait accounting sums). track identifies the worker
// (TrackWorkerBase+i).
func (r *Recorder) Stall(track int32, start time.Time, dur time.Duration) {
	if r == nil {
		return
	}
	r.stallNs.add(int64(dur))
	r.stallTotal.Add(int64(dur))
	r.record(event{
		kind:  kindStall,
		track: track,
		start: start.Sub(r.epoch).Nanoseconds(),
		dur:   int64(dur),
	})
}

// AddCounter accumulates a named counter into the recorder (engine totals,
// scheduler diffs, source I/O accounting). It takes a mutex and is meant for
// run setup/teardown, not the per-iteration path.
func (r *Recorder) AddCounter(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Len returns the number of events currently retained in the ring.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := r.cursor.Load()
	if n > uint64(len(r.events)) {
		return len(r.events)
	}
	return int(n)
}

// Dropped returns the number of events overwritten by ring wrap.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	n := r.cursor.Load()
	if n <= uint64(len(r.events)) {
		return 0
	}
	return int64(n - uint64(len(r.events)))
}

// ordered returns the retained events oldest-first. Must not race with
// recording (call after the run completes).
func (r *Recorder) ordered() []event {
	n := r.cursor.Load()
	if n <= uint64(len(r.events)) {
		return r.events[:n]
	}
	head := n & r.mask
	out := make([]event, 0, len(r.events))
	out = append(out, r.events[head:]...)
	return append(out, r.events[:head]...)
}

// DecisionCandidate is one scored alternative of a planner decision, in the
// programmatic (non-JSON) view returned by Decisions.
type DecisionCandidate struct {
	// Plan is the candidate's plan label (the cost-model key, without the
	// per-iteration I/O suffix).
	Plan string
	// PredictedNsPerEdge is the cost model's per-edge prediction at decision
	// time (the prior, possibly rescaled by cached measurements).
	PredictedNsPerEdge float64
	// MeasuredNsPerEdge is the EWMA of measured per-edge cost (0 while the
	// candidate has never run long enough to measure).
	MeasuredNsPerEdge float64
	// Chosen marks the candidate the planner picked.
	Chosen bool
	// Frozen marks a dense run's once-and-for-all choice.
	Frozen bool
}

// Decision is one planner decision: the full candidate set scored for one
// iteration.
type Decision struct {
	Iteration  int
	Candidates []DecisionCandidate
}

// Decisions reconstructs the planner decisions retained in the ring, in
// iteration order — the programmatic counterpart of the "plan decision"
// events of the Chrome export. Call after the run completes.
func (r *Recorder) Decisions() []Decision {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	labels := append([]string(nil), r.labels...)
	r.mu.Unlock()
	byIter := make(map[int]*Decision)
	var order []int
	for _, ev := range r.ordered() {
		if ev.kind != kindDecision {
			continue
		}
		iter := int(ev.arg[0])
		d, ok := byIter[iter]
		if !ok {
			d = &Decision{Iteration: iter}
			byIter[iter] = d
			order = append(order, iter)
		}
		var label string
		if id := int(ev.arg[1]); id >= 0 && id < len(labels) {
			label = labels[id]
		}
		d.Candidates = append(d.Candidates, DecisionCandidate{
			Plan:               label,
			PredictedNsPerEdge: math.Float64frombits(uint64(ev.arg[2])),
			MeasuredNsPerEdge:  math.Float64frombits(uint64(ev.arg[3])),
			Chosen:             ev.arg[4]&1 != 0,
			Frozen:             ev.arg[4]&2 != 0,
		})
	}
	sort.Ints(order)
	out := make([]Decision, 0, len(order))
	for _, iter := range order {
		out = append(out, *byIter[iter])
	}
	return out
}

// Snapshot folds the recorder's counters and histograms into a flat
// metrics.Snapshot — the scrape format of the future serving daemon. Call
// after the run completes.
func (r *Recorder) Snapshot() *metrics.Snapshot {
	if r == nil {
		return nil
	}
	s := metrics.NewSnapshot()
	r.mu.Lock()
	for k, v := range r.counters {
		s.Counters[k] = v
	}
	r.mu.Unlock()
	s.Counters["trace.events_recorded"] = int64(r.cursor.Load())
	s.Counters["trace.events_retained"] = int64(r.Len())
	if d := r.Dropped(); d > 0 {
		s.Counters["trace.events_dropped"] = d
	}
	if n := r.decisions.Load(); n > 0 {
		s.Counters["planner.decision_candidates"] = n
	}
	if n := r.fetchEdges.Load(); n > 0 {
		s.Counters["oocore.fetched_edges"] = n
		s.Counters["oocore.fetched_bytes"] = r.fetchBytes.Load()
	}
	if n := r.iterIOWait.Load(); n > 0 {
		s.Counters["engine.io_wait_ns"] = n
	}
	if n := r.iterIOHides.Load(); n > 0 {
		s.Counters["engine.io_hidden_ns"] = n
	}
	addHist(s, "engine.iteration_ns", &r.iterNs)
	addHist(s, "oocore.fetch_ns", &r.fetchNs)
	addHist(s, "oocore.stall_ns", &r.stallNs)
	return s
}

func addHist(s *metrics.Snapshot, name string, h *hist) {
	if h.count.Load() == 0 {
		return
	}
	s.Histograms[name] = h.snapshot()
}

// histBuckets is the number of power-of-two duration buckets: bucket i
// counts durations in [2^(i-1), 2^i) ns, which spans 1 ns to ~9 minutes.
const histBuckets = 40

// hist is a concurrent power-of-two histogram: adding a sample is four
// atomic adds plus at most two CAS loops for min/max, cheap enough for the
// per-coalesced-read paths that feed it (never per edge).
type hist struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

func (h *hist) init() {
	h.min.Store(math.MaxInt64)
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	i := bits.Len64(uint64(ns))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
	for {
		cur := h.min.Load()
		if ns >= cur || h.min.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

func (h *hist) snapshot() metrics.Histogram {
	out := metrics.Histogram{
		Count: h.count.Load(),
		SumNs: h.sum.Load(),
		MinNs: h.min.Load(),
		MaxNs: h.max.Load(),
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			out.Buckets = append(out.Buckets, metrics.HistogramBucket{UpperNs: int64(1) << i, Count: n})
		}
	}
	return out
}
