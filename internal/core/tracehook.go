package core

import (
	"time"

	"github.com/epfl-repro/everythinggraph/internal/sched"
	"github.com/epfl-repro/everythinggraph/internal/trace"
)

// planLabeler caches trace label ids per resolved StepPlan so the
// per-iteration recording path stays allocation-free: interning a label
// allocates, but only on the first occurrence of each distinct plan, after
// which emitting an iteration span is a map lookup plus a ring store.
type planLabeler struct {
	rec *trace.Recorder
	ids map[StepPlan]int32
}

func newPlanLabeler(rec *trace.Recorder) *planLabeler {
	return &planLabeler{rec: rec, ids: make(map[StepPlan]int32, 8)}
}

func (l *planLabeler) id(p StepPlan) int32 {
	if id, ok := l.ids[p]; ok {
		return id
	}
	id := l.rec.Intern(p.String())
	l.ids[p] = id
	return id
}

// emitIteration records one iteration span from the engine's existing
// timing — it reuses iterStart and stats.Duration, so tracing adds no clock
// reads to the iteration loop.
func (l *planLabeler) emitIteration(iterStart time.Time, stats IterationStats) {
	l.rec.IterationSpan(iterStart, stats.Duration, stats.Iteration, l.id(stats.Plan),
		stats.ActiveVertices, stats.IOWait, stats.IOHidden)
}

// finishRunTrace folds the run's end-of-run accounting into the recorder —
// engine totals, the scheduler counters attributable to this run (already
// diffed by the caller against its counter source: the run's lease, or the
// process-wide pool) and, for streamed runs, the source I/O delta — and
// attaches the resulting snapshot to the result.
func finishRunTrace(rec *trace.Recorder, res *Result, sc sched.PoolCounters, streamed bool, io SourceStats) {
	rec.AddCounter("engine.iterations", int64(res.Iterations))
	rec.AddCounter("engine.algorithm_ns", res.AlgorithmTime.Nanoseconds())
	rec.AddCounter("sched.gang_loops", sc.GangLoops)
	rec.AddCounter("sched.gang_joins", sc.GangJoins)
	rec.AddCounter("sched.parks", sc.Parks)
	rec.AddCounter("sched.unparks", sc.Unparks)
	if streamed {
		rec.AddCounter("oocore.reads", int64(io.Reads))
		rec.AddCounter("oocore.bytes_read", io.BytesRead)
		rec.AddCounter("oocore.io_time_ns", io.IOTime.Nanoseconds())
		rec.AddCounter("oocore.io_wait_ns", io.IOWait.Nanoseconds())
	}
	res.Metrics = rec.Snapshot()
}
