package oocore

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/core"
	"github.com/epfl-repro/everythinggraph/internal/graph"
)

// These tests cover the recycled streaming pool: the zero-allocation
// steady-state contract, budget shedding and prefetch starvation under a
// slow device (the -race targets of the acceptance criteria), depth changes
// without pool rebuilds and budget changes with them, the pass depth clamp,
// the per-level column partitions, the budget bound on compressed passes,
// and fetcher recovery after an aborted pass.

// idlePool returns the store's one idle stream pool: after a solo pass, the
// pool that ran it.
func idlePool(t *testing.T, s *Store) *streamPool {
	t.Helper()
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	if len(s.idle) != 1 {
		t.Fatalf("store holds %d idle pools, want 1", len(s.idle))
	}
	return s.idle[0]
}

func countingVisit(total *int64) func(int, []graph.Edge) {
	return func(_ int, edges []graph.Edge) { atomic.AddInt64(total, int64(len(edges))) }
}

func TestStreamPassSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	g := testGraph(t, 12, false)
	s := buildTestStore(t, g, 8, false)
	opt := coreStreamOpts(0, 1<<20)
	var total int64
	visit := countingVisit(&total)
	// Warm the pool, the fetchers and the sched loop protocol.
	for i := 0; i < 3; i++ {
		if err := s.StreamCells(opt, visit); err != nil {
			t.Fatalf("warmup pass: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := s.StreamCells(opt, visit); err != nil {
			t.Fatalf("measured pass: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state pass allocates %v objects, want 0", allocs)
	}
	if total == 0 {
		t.Fatal("visit never ran")
	}
}

func TestStreamedPageRankUnderSlowDeviceAndShedding(t *testing.T) {
	// The acceptance scenario: a slow device keeps every fetcher starved
	// while a budget far below the requested parallelism forces worker
	// shedding. The run must complete (no pipeline deadlock), stay
	// within the budget, and stay bit-identical to the in-memory grid path.
	g := testGraph(t, 10, false)
	const p = 8
	grid := memGrid(t, g, p, false)
	g.Grid = grid
	prMem := algorithms.NewPageRank()
	prMem.Iterations = 3
	if _, err := core.Run(g, prMem, gridConfig(core.Push)); err != nil {
		t.Fatalf("in-memory run: %v", err)
	}

	s := openSlowStore(t, storeImage(t, g, p, false), 24)
	// Two thirds of two workers' minimum buffers (4 KiB at 24 resident
	// bytes an edge): sheds an 8-requested-worker pass down to one.
	const budget = 2 * core.MinPrefetchDepth * core.MinStreamSliceEdges * core.StreamResidentEdgeBytes * 2 / 3
	prOOC := algorithms.NewPageRank()
	prOOC.Iterations = 3
	cfg := core.Config{
		Layout: graph.LayoutGrid, Flow: core.Push, Sync: core.SyncPartitionFree,
		Workers: 8, MemoryBudget: budget,
	}
	res, err := core.RunStreamed(s, prOOC, cfg)
	if err != nil {
		t.Fatalf("streamed run: %v", err)
	}
	if res.Iterations != 3 {
		t.Fatalf("streamed ran %d iterations, want 3", res.Iterations)
	}
	workers, _ := s.poolParams(core.StreamOptions{Workers: 8, MemoryBudget: budget})
	if workers != 1 {
		t.Fatalf("budget %d shed to %d workers, want 1", budget, workers)
	}
	for v := range prMem.Rank {
		if prOOC.Rank[v] != prMem.Rank[v] {
			t.Fatalf("rank[%d] = %v streamed, %v in-memory", v, prOOC.Rank[v], prMem.Rank[v])
		}
	}
	if peak := s.Stats().PeakResidentBytes; peak == 0 || peak > budget {
		t.Fatalf("peak resident %d bytes outside budget %d", peak, budget)
	}
	if s.Stats().IOWait == 0 {
		t.Fatal("slow device produced no measured I/O wait")
	}
}

func TestStreamCellsKnobChangesReusePool(t *testing.T) {
	g := testGraph(t, 10, true)
	s := buildTestStore(t, g, 8, false)
	const budget = 1 << 20

	want := edgeMultiset(g.EdgeArray.Edges)
	run := func(opt core.StreamOptions) {
		t.Helper()
		var mu, total = make(chan struct{}, 1), []graph.Edge(nil)
		mu <- struct{}{}
		err := s.StreamCells(opt, func(_ int, edges []graph.Edge) {
			<-mu
			total = append(total, edges...)
			mu <- struct{}{}
		})
		if err != nil {
			t.Fatalf("StreamCells: %v", err)
		}
		got := edgeMultiset(total)
		for e, n := range want {
			if got[e] != n {
				t.Fatalf("opt %+v: edge %v delivered %d times, want %d", opt, e, got[e], n)
			}
		}
		if st := s.Stats(); st.PeakResidentBytes > budget {
			t.Fatalf("peak resident %d exceeds the budget %d", st.PeakResidentBytes, budget)
		}
	}

	// First pass builds the pool; every later pass varies the prefetch depth
	// and must reuse the same pool — same buffers, same fetchers.
	run(core.StreamOptions{Workers: 4, MemoryBudget: budget})
	built := idlePool(t, s)
	for _, depth := range []int{4, 8, 2} {
		opt := core.StreamOptions{Workers: 4, MemoryBudget: budget, PrefetchDepth: depth}
		run(opt)
		if idlePool(t, s) != built {
			t.Fatalf("depth change %+v rebuilt the pool", opt)
		}
	}

	// A different worker count is a different pass shape: rebuild expected.
	run(core.StreamOptions{Workers: 2, MemoryBudget: budget})
	if idlePool(t, s) == built {
		t.Fatal("worker-count change did not rebuild the pool")
	}
}

// TestStreamCellsBudgetChangeRebuildsPool: the budget sizes the arenas, so
// a pass under a different budget rebuilds the pool, and a pass under the
// same budget reuses it.
func TestStreamCellsBudgetChangeRebuildsPool(t *testing.T) {
	g := testGraph(t, 10, false)
	s := buildTestStore(t, g, 8, false)
	pass := func(budget int64) {
		t.Helper()
		var total int64
		if err := s.StreamCells(core.StreamOptions{Workers: 2, MemoryBudget: budget}, countingVisit(&total)); err != nil {
			t.Fatalf("StreamCells: %v", err)
		}
		if total != int64(g.NumEdges()) {
			t.Fatalf("budget %d: delivered %d edges, want %d", budget, total, g.NumEdges())
		}
	}
	pass(1 << 20)
	built := idlePool(t, s)
	pass(1 << 20)
	if idlePool(t, s) != built {
		t.Fatal("an unchanged budget rebuilt the pool")
	}
	pass(512 << 10)
	if idlePool(t, s) == built {
		t.Fatal("a budget change did not rebuild the pool")
	}
	if got := idlePool(t, s).cap; got != 512<<10 {
		t.Fatalf("rebuilt pool sized for %d bytes, want %d", got, 512<<10)
	}
}

// TestStreamCellsClampsPassDepthToPool: a pass rotates the requested depth
// within [MinPrefetchDepth, the pool's depth cap], 0 selecting the default,
// and stays within the budget at every depth.
func TestStreamCellsClampsPassDepthToPool(t *testing.T) {
	g := testGraph(t, 10, false)
	s := buildTestStore(t, g, 8, false)
	const workers = 2
	budget := int64(workers * 4 * core.MinStreamSliceEdges * core.StreamResidentEdgeBytes) // feeds depth 4 at most
	for _, c := range []struct{ asked, want int }{
		{8, 4}, {4, 4}, {3, 3}, {1, core.MinPrefetchDepth}, {0, core.DefaultPrefetchDepth},
	} {
		var total int64
		opt := core.StreamOptions{Workers: workers, MemoryBudget: budget, PrefetchDepth: c.asked}
		if err := s.StreamCells(opt, countingVisit(&total)); err != nil {
			t.Fatalf("depth %d: StreamCells: %v", c.asked, err)
		}
		if got := idlePool(t, s).depth; got != c.want {
			t.Fatalf("depth %d ran at %d, want %d", c.asked, got, c.want)
		}
		if total != int64(g.NumEdges()) {
			t.Fatalf("depth %d: delivered %d edges, want %d", c.asked, total, g.NumEdges())
		}
		if peak := s.Stats().PeakResidentBytes; peak > budget {
			t.Fatalf("depth %d: peak resident %d exceeds the %d budget", c.asked, peak, budget)
		}
	}
}

// TestPoolLevelsPartitionAtStreamExecWorkers: the pool keeps one column
// partition per virtual level, at the worker count core.StreamExecWorkers
// gives that level, and a pass at the level runs exactly that partition.
func TestPoolLevelsPartitionAtStreamExecWorkers(t *testing.T) {
	g := testGraph(t, 11, false)
	s := buildTestStore(t, g, 8, false)
	const workers, budget = 4, 1 << 20
	for _, lv := range s.Levels() {
		var total int64
		opt := core.StreamOptions{Workers: workers, MemoryBudget: budget, GridLevel: lv.P}
		if err := s.StreamCells(opt, countingVisit(&total)); err != nil {
			t.Fatalf("level P=%d: StreamCells: %v", lv.P, err)
		}
		if total != int64(g.NumEdges()) {
			t.Fatalf("level P=%d: delivered %d edges, want %d", lv.P, total, g.NumEdges())
		}
		p := idlePool(t, s)
		if len(p.levels) != len(s.Levels()) {
			t.Fatalf("pool holds %d partitions for %d levels", len(p.levels), len(s.Levels()))
		}
		var pl *poolLevel
		for i := range p.levels {
			if p.levels[i].p == lv.P {
				pl = &p.levels[i]
			}
		}
		if pl == nil {
			t.Fatalf("no pool partition for level P=%d", lv.P)
		}
		if want := core.StreamExecWorkers(lv.P, workers, budget); pl.workers != want {
			t.Fatalf("level P=%d partitioned for %d workers, want %d", lv.P, pl.workers, want)
		}
		bounds := s.levelBounds(lv.Factor, pl.workers)
		if !slices.Equal(pl.bounds, bounds) {
			t.Fatalf("level P=%d bounds %v, want %v", lv.P, pl.bounds, bounds)
		}
		if _, maxRun := s.levelRuns(lv.Factor, bounds); pl.maxSeg != maxRun {
			t.Fatalf("level P=%d largest read %d, want %d", lv.P, pl.maxSeg, maxRun)
		}
		if p.passWorkers != pl.workers || p.passLevel != lv.P {
			t.Fatalf("pass at P=%d ran %d workers at P=%d, want %d at P=%d",
				lv.P, p.passWorkers, p.passLevel, pl.workers, lv.P)
		}
	}
}

func TestFixedDepthPassSpendsTheWholeBudget(t *testing.T) {
	// A default (depth-2) pass must be able to put the whole budget in
	// rotation — the arena is carved per pass, not pre-split for the
	// deepest pipeline. With cells far larger than the budget the slices
	// saturate, so peak resident accounting must exceed half the budget
	// (a depthCap-presized ring would cap it at budget/depthCap per slot,
	// i.e. a quarter).
	g := testGraph(t, 12, false)
	s := buildTestStore(t, g, 2, false) // 2x2 grid: row segments dwarf the budget
	const budget = 64 << 10
	var total int64
	if err := s.StreamCells(core.StreamOptions{Workers: 1, MemoryBudget: budget}, countingVisit(&total)); err != nil {
		t.Fatalf("StreamCells: %v", err)
	}
	peak := s.Stats().PeakResidentBytes
	if peak > budget {
		t.Fatalf("peak resident %d exceeds budget %d", peak, budget)
	}
	if peak <= budget/2 {
		t.Fatalf("depth-2 pass kept only %d of %d resident; the ring is not spending the budget", peak, budget)
	}
}

// flakyBackend fails every read after the trigger fires.
type flakyBackend struct {
	data []byte
	fail atomic.Bool
}

var errFlaky = errors.New("injected read failure")

func (b *flakyBackend) ReadAt(p []byte, off int64) (int, error) {
	if b.fail.Load() {
		return 0, errFlaky
	}
	return bytes.NewReader(b.data).ReadAt(p, off)
}

func TestStreamCellsRecoversAfterReadError(t *testing.T) {
	g := testGraph(t, 10, false)
	img := storeImage(t, g, 8, false)
	backend := &flakyBackend{data: img}
	s, err := NewStore(backend, int64(len(img)))
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	defer s.Close()

	opt := coreStreamOpts(4, 64<<10)
	var total int64
	if err := s.StreamCells(opt, countingVisit(&total)); err != nil {
		t.Fatalf("healthy pass: %v", err)
	}

	backend.fail.Store(true)
	if err := s.StreamCells(opt, countingVisit(&total)); !errors.Is(err, errFlaky) {
		t.Fatalf("failing pass returned %v, want the injected error", err)
	}

	// The fetchers and slot rings must come out of the aborted pass clean:
	// the next healthy pass delivers every edge again.
	backend.fail.Store(false)
	total = 0
	if err := s.StreamCells(opt, countingVisit(&total)); err != nil {
		t.Fatalf("recovery pass: %v", err)
	}
	if total != int64(g.NumEdges()) {
		t.Fatalf("recovery pass delivered %d edges, want %d", total, g.NumEdges())
	}
	if passes := s.Stats().Passes; passes != 2 {
		t.Fatalf("completed passes = %d, want 2 (the aborted pass must not count)", passes)
	}
}

// TestStreamCellsFailedPassReturnsItsPool: a pass that fails still hands its
// pool back to the store, and the next pass of the same shape reuses it.
func TestStreamCellsFailedPassReturnsItsPool(t *testing.T) {
	g := testGraph(t, 10, false)
	img := storeImage(t, g, 8, false)
	backend := &flakyBackend{data: img}
	s, err := NewStore(backend, int64(len(img)))
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	defer s.Close()

	opt := coreStreamOpts(4, 64<<10)
	var total int64
	backend.fail.Store(true)
	if err := s.StreamCells(opt, countingVisit(&total)); !errors.Is(err, errFlaky) {
		t.Fatalf("failing pass returned %v, want the injected error", err)
	}
	built := idlePool(t, s)
	backend.fail.Store(false)
	if err := s.StreamCells(opt, countingVisit(&total)); err != nil {
		t.Fatalf("healthy pass: %v", err)
	}
	if idlePool(t, s) != built {
		t.Fatal("the pass after a failed one built a new pool instead of reusing the returned one")
	}
}

// recordingStore records the options every pass of a run receives.
type recordingStore struct {
	*Store
	passes []core.StreamOptions
}

func (s *recordingStore) StreamCells(opt core.StreamOptions, visit func(worker int, edges []graph.Edge)) error {
	s.passes = append(s.passes, opt)
	return s.Store.StreamCells(opt, visit)
}

// TestStreamedAutoPassesGetConfiguredRecipe: every pass of an adaptive
// streamed PageRank receives the configured prefetch depth and budget —
// only the grid level is the planner's — and the result stays bit-identical
// to the fixed streamed (and hence the in-memory grid) run.
func TestStreamedAutoPassesGetConfiguredRecipe(t *testing.T) {
	g := testGraph(t, 12, false)
	const p = 8
	s := buildTestStore(t, g, p, false)
	prFixed := algorithms.NewPageRank()
	if _, err := core.RunStreamed(s, prFixed, streamConfig(core.Push, 1<<20)); err != nil {
		t.Fatalf("fixed streamed run: %v", err)
	}

	rec := &recordingStore{Store: buildTestStore(t, g, p, false)}
	prAuto := algorithms.NewPageRank()
	if _, err := core.RunStreamed(rec, prAuto, core.Config{Flow: core.Auto, MemoryBudget: 1 << 20, PrefetchDepth: 4}); err != nil {
		t.Fatalf("auto streamed run: %v", err)
	}
	for v := range prFixed.Rank {
		if prAuto.Rank[v] != prFixed.Rank[v] {
			t.Fatalf("rank[%d] = %v auto, %v fixed", v, prAuto.Rank[v], prFixed.Rank[v])
		}
	}
	if len(rec.passes) != prAuto.Iterations {
		t.Fatalf("%d passes for %d iterations", len(rec.passes), prAuto.Iterations)
	}
	for i, opt := range rec.passes {
		if opt.PrefetchDepth != 4 || opt.MemoryBudget != 1<<20 {
			t.Fatalf("pass %d ran d%d under %d bytes, want the configured d4 under 1 MiB", i, opt.PrefetchDepth, opt.MemoryBudget)
		}
	}
}

// slotEdgeBytes is what one buffered edge of compressed store s costs while
// resident: its offsets (plus the weight) and its decoded form.
func slotEdgeBytes(s *Store) int64 {
	return int64(s.rawEdgeBytes() + decodedEdgeBytes)
}

// TestCompressedDeepPrefetchStaysWithinBudget: a compressed pass slots whole
// cells, so a deep pipeline under a small budget must rotate fewer slots
// instead of overrunning the budget — with ranks bit-identical to a
// double-buffered run.
func TestCompressedDeepPrefetchStaysWithinBudget(t *testing.T) {
	g := testGraph(t, 12, false)
	const p, workers = 8, 2
	ref := buildTestStoreV2(t, g, p, false)
	// Room for three largest-cell slots per worker: depth 8 at the cell
	// floor would need far more.
	budget := int64(workers*3*ref.maxCellEdges) * slotEdgeBytes(ref)
	if core.StreamDepthCap(workers, budget) < 8 {
		t.Fatalf("budget %d cannot feed depth 8 at all; the test needs a larger graph", budget)
	}
	cfg := streamConfig(core.Pull, budget)
	cfg.Workers = workers
	prRef := algorithms.NewPageRank()
	if _, err := core.RunStreamed(ref, prRef, cfg); err != nil {
		t.Fatalf("depth-2 run: %v", err)
	}

	s := buildTestStoreV2(t, g, p, false)
	cfg.PrefetchDepth = 8
	pr := algorithms.NewPageRank()
	if _, err := core.RunStreamed(s, pr, cfg); err != nil {
		t.Fatalf("depth-8 run: %v", err)
	}
	if peak := s.Stats().PeakResidentBytes; peak > budget {
		t.Fatalf("depth-8 compressed run peaked at %d resident bytes, over the %d budget", peak, budget)
	}
	for v := range prRef.Rank {
		if math.Float64bits(pr.Rank[v]) != math.Float64bits(prRef.Rank[v]) {
			t.Fatalf("rank[%d] = %v at depth 8, %v at depth 2", v, pr.Rank[v], prRef.Rank[v])
		}
	}
}

// TestCompressedPoolDepthCapFitsLargestCells: a compressed store's pool
// rotates no more slots than its largest cells fit in the budget, so a
// depth-8 pass runs shallower; an uncompressed store keeps the
// slice-granularity cap.
func TestCompressedPoolDepthCapFitsLargestCells(t *testing.T) {
	g := testGraph(t, 12, false)
	const p, workers = 8, 2
	v2 := buildTestStoreV2(t, g, p, false)
	budget := int64(workers*3*v2.maxCellEdges) * slotEdgeBytes(v2)
	opt := core.StreamOptions{Workers: workers, MemoryBudget: budget, PrefetchDepth: 8}
	var total int64
	if err := v2.StreamCells(opt, countingVisit(&total)); err != nil {
		t.Fatalf("v2 pass: %v", err)
	}
	p2 := idlePool(t, v2)
	if p2.workers != workers {
		t.Fatalf("v2 pool built for %d workers, want %d", p2.workers, workers)
	}
	if p2.depthCap != 3 || p2.depth != 3 {
		t.Fatalf("v2 pool cap %d, pass depth %d; want 3 largest-cell slots per worker", p2.depthCap, p2.depth)
	}
	if total != int64(g.NumEdges()) {
		t.Fatalf("v2 pass delivered %d edges, want %d", total, g.NumEdges())
	}

	v1 := buildTestStore(t, g, p, false)
	if err := v1.StreamCells(opt, countingVisit(new(int64))); err != nil {
		t.Fatalf("v1 pass: %v", err)
	}
	if got, want := idlePool(t, v1).depthCap, core.StreamDepthCap(workers, budget); got != want {
		t.Fatalf("v1 pool depth cap %d, want core.StreamDepthCap's %d", got, want)
	}
}

// TestCompressedPoolKeepsMinDepthWhenCellsOverrun: when even
// MinPrefetchDepth largest-cell slots per worker exceed the budget, the
// pass keeps them — the one documented overrun, bounded by those slots —
// and still delivers every edge.
func TestCompressedPoolKeepsMinDepthWhenCellsOverrun(t *testing.T) {
	g := testGraph(t, 12, false)
	s := buildTestStoreV2(t, g, 8, false)
	const workers = 2
	resident := slotEdgeBytes(s)
	budget := int64(workers*s.maxCellEdges) * resident // one largest cell per worker
	var total int64
	if err := s.StreamCells(core.StreamOptions{Workers: workers, MemoryBudget: budget, PrefetchDepth: 8}, countingVisit(&total)); err != nil {
		t.Fatalf("StreamCells: %v", err)
	}
	pool := idlePool(t, s)
	if pool.depthCap != core.MinPrefetchDepth || pool.depth != core.MinPrefetchDepth {
		t.Fatalf("pool cap %d, pass depth %d; want %d", pool.depthCap, pool.depth, core.MinPrefetchDepth)
	}
	if total != int64(g.NumEdges()) {
		t.Fatalf("delivered %d edges, want %d", total, g.NumEdges())
	}
	floor := int64(pool.workers*core.MinPrefetchDepth*s.maxCellEdges) * resident
	if peak := s.Stats().PeakResidentBytes; peak > floor {
		t.Fatalf("peak resident %d exceeds the %d-byte largest-cell floor", peak, floor)
	}
}
