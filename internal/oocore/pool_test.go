package oocore

import (
	"bytes"
	"errors"
	"fmt"
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
// slow device (the -race targets of the acceptance criteria), pool reuse
// and the rebuilds a worker-count or budget change forces, the column
// partition, the pinned shape of a pass and its two-slot arenas, the
// budget bound on compressed passes, and fetcher recovery after an aborted
// pass.

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

func countingVisit(total *int64) func(int, []graph.Pair, []graph.Weight) {
	return func(_ int, pairs []graph.Pair, _ []graph.Weight) { atomic.AddInt64(total, int64(len(pairs))) }
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
	// Two thirds of two workers' minimum buffers (2 KiB at 8 resident bytes
	// an edge): sheds an 8-requested-worker pass down to one.
	const budget = int64(2 * core.MinPrefetchDepth * minSliceEdges * pairBytes * 2 / 3)
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
		err := s.StreamCells(opt, func(_ int, pairs []graph.Pair, weights []graph.Weight) {
			<-mu
			total = append(total, cellEdges(pairs, weights)...)
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

	// The first pass builds the pool (TestStreamCellsBudgetChangeRebuildsPool
	// covers its reuse by a pass of the same shape).
	run(core.StreamOptions{Workers: 4, MemoryBudget: budget})
	built := idlePool(t, s)

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

// TestExecWorkersClampsAndSheds: a pass runs one worker per column at most,
// and sheds workers while the budget cannot feed their minimal slots at the
// store's resident bytes an edge.
func TestExecWorkersClampsAndSheds(t *testing.T) {
	if got := execWorkers(1, 32, core.DefaultStreamMemoryBudget, int64(pairBytes)); got != 1 {
		t.Fatalf("32 workers on a 1x1 grid -> %d, want 1 (one worker per column at most)", got)
	}
	if got := execWorkers(64, 32, core.DefaultStreamMemoryBudget, int64(pairBytes)); got != 32 {
		t.Fatalf("roomy budget shed workers: %d", got)
	}
	// Two workers' minimal slots take 2 KiB of pairs, 3 KiB with weights:
	// a 2 KiB budget feeds two unweighted workers, and sheds weighted ones.
	const short = int64(2 * core.MinPrefetchDepth * minSliceEdges * pairBytes)
	if got := execWorkers(64, 2, short, int64(pairBytes)); got != 2 {
		t.Fatalf("%d-byte budget kept %d unweighted workers, want 2", short, got)
	}
	if got := execWorkers(64, 8, short, int64(pairBytes+4)); got != 1 {
		t.Fatalf("%d-byte budget kept %d weighted workers, want 1", short, got)
	}
}

// TestPoolPartitionsAtExecWorkers: the pool splits the columns among the
// worker count execWorkers gives the store, and bounds its reads by the
// largest row segment one group owns.
func TestPoolPartitionsAtExecWorkers(t *testing.T) {
	g := testGraph(t, 11, false)
	s := buildTestStore(t, g, 8, false)
	gp := s.GridP()
	const budget = 1 << 20
	for _, workers := range []int{1, 4, 16} {
		var total int64
		if err := s.StreamCells(core.StreamOptions{Workers: workers, MemoryBudget: budget}, countingVisit(&total)); err != nil {
			t.Fatalf("%d workers: StreamCells: %v", workers, err)
		}
		if total != int64(g.NumEdges()) {
			t.Fatalf("%d workers: delivered %d edges, want %d", workers, total, g.NumEdges())
		}
		p := idlePool(t, s)
		want := execWorkers(gp, workers, budget, s.residentEdgeBytes())
		if p.workers != want || !slices.Equal(p.bounds, partitionColumns(s.colEdges, want)) {
			t.Fatalf("%d workers: pool of %d partitioned %v, want %d workers", workers, p.workers, p.bounds, want)
		}
		var largest int64
		for gi := 0; gi < want; gi++ {
			for row := 0; row < gp; row++ {
				var n int64
				for col := p.bounds[gi]; col < p.bounds[gi+1]; col++ {
					n += s.CellEdges(row*gp + col)
				}
				largest = max(largest, n)
			}
		}
		if int64(p.maxSeg) != largest {
			t.Fatalf("%d workers: largest read %d, want %d", workers, p.maxSeg, largest)
		}
	}
}

// TestPassShapePinned pins what one pass over RMAT-12 at P=16 issues and
// holds resident, raw and compressed, at 1-3 workers and four budgets: the
// streamed benchmark's max(2 x edges, 1 MiB) (here 1 MiB), 2 x edges
// (64 KiB), 24 KiB and the default. A pass charges its pool's whole arenas
// for as long as it runs, so the peak is the pool's size whatever the
// groups' overlap, and 20 repeated two-worker passes read the same one.
// RMAT-12 has unit weights, so neither store carries a weight plane: the
// compressed pass reads 2 bytes per edge in one read per segment.
func TestPassShapePinned(t *testing.T) {
	g := testGraph(t, 12, false)
	if g.NumEdges() != 32768 {
		t.Fatalf("RMAT-12 has %d edges; the pins assume 32768", g.NumEdges())
	}
	images := map[bool][]byte{false: storeImage(t, g, 16, false), true: storeImage(t, g, 16, true)}
	pass := func(t *testing.T, compressed bool, budget int64, workers int) core.SourceStats {
		t.Helper()
		img := images[compressed]
		s, err := NewStore(bytes.NewReader(img), int64(len(img)))
		if err != nil {
			t.Fatalf("NewStore: %v", err)
		}
		var total int64
		err = s.StreamCells(core.StreamOptions{Workers: workers, MemoryBudget: budget}, countingVisit(&total))
		st := s.Stats()
		s.Close()
		if err != nil {
			t.Fatalf("StreamCells: %v", err)
		}
		if total != int64(g.NumEdges()) {
			t.Fatalf("delivered %d edges, want %d", total, g.NumEdges())
		}
		return st
	}
	for _, c := range []struct {
		compressed               bool
		budget                   int64
		workers                  int
		reads, bytesRead, peakRB int64
	}{
		{false, 1 << 20, 1, 16, 262144, 174576},
		{false, 1 << 20, 2, 32, 262144, 182368},
		{false, 1 << 20, 3, 48, 262144, 179472},
		{false, 64 << 10, 1, 18, 262144, 65536},
		{false, 64 << 10, 2, 36, 262144, 65536},
		{false, 64 << 10, 3, 54, 262144, 65520},
		{false, 24 << 10, 1, 31, 262144, 24576},
		{false, 24 << 10, 2, 60, 262144, 24576},
		{false, 24 << 10, 3, 92, 262144, 24576},
		{false, 0, 1, 16, 262144, 174576},
		{false, 0, 2, 32, 262144, 182368},
		{false, 0, 3, 48, 262144, 179472},
		{true, 1 << 20, 1, 16, 65536, 218220},
		{true, 1 << 20, 2, 32, 65536, 227960},
		{true, 1 << 20, 3, 48, 65536, 224340},
		{true, 64 << 10, 1, 19, 65536, 69820},
		{true, 64 << 10, 2, 34, 65536, 139640},
		{true, 64 << 10, 3, 50, 65536, 209460},
		{true, 24 << 10, 1, 19, 65536, 69820},
		{true, 24 << 10, 2, 34, 65536, 139640},
		{true, 24 << 10, 3, 50, 65536, 209460},
		{true, 0, 1, 16, 65536, 218220},
		{true, 0, 2, 32, 65536, 227960},
		{true, 0, 3, 48, 65536, 224340},
	} {
		name := fmt.Sprintf("v4/budget=%d/workers=%d", c.budget, c.workers)
		if c.compressed {
			name = fmt.Sprintf("v3/budget=%d/workers=%d", c.budget, c.workers)
		}
		t.Run(name, func(t *testing.T) {
			st := pass(t, c.compressed, c.budget, c.workers)
			if st.Reads != c.reads || st.BytesRead != c.bytesRead || st.PeakResidentBytes != c.peakRB {
				t.Errorf("%d reads, %d bytes, peak %d; pinned %d, %d, %d",
					st.Reads, st.BytesRead, st.PeakResidentBytes, c.reads, c.bytesRead, c.peakRB)
			}
		})
	}
	for _, compressed := range []bool{false, true} {
		t.Run(fmt.Sprintf("repeated/compressed=%v", compressed), func(t *testing.T) {
			first := pass(t, compressed, 0, 2).PeakResidentBytes
			for i := 1; i < 20; i++ {
				if peak := pass(t, compressed, 0, 2).PeakResidentBytes; peak != first {
					t.Fatalf("pass %d peaked at %d resident bytes, pass 0 at %d", i, peak, first)
				}
			}
		})
	}
}

// TestRingArenaIsTwoSlots: every group's arenas hold exactly the two slots
// a pass carves out of them — no deeper ring's worth that no pass uses —
// and a slot is no longer than the largest read, so an empty store's pool
// holds two one-edge slots, not the budget.
func TestRingArenaIsTwoSlots(t *testing.T) {
	g := testGraph(t, 12, false)
	empty := graph.New(nil, 1000, true)
	for _, s := range []*Store{
		buildTestStore(t, g, 16, false), buildTestStoreV2(t, g, 16, false),
		buildTestStore(t, empty, 16, false), buildTestStoreV2(t, empty, 16, false),
	} {
		for _, budget := range []int64{0, 24 << 10} {
			for _, workers := range []int{1, 2, 3} {
				if err := s.StreamCells(core.StreamOptions{Workers: workers, MemoryBudget: budget}, countingVisit(new(int64))); err != nil {
					t.Fatalf("StreamCells: %v", err)
				}
				p := idlePool(t, s)
				if p.bufEdges > max(p.maxSeg, 1) {
					t.Fatalf("%d edges, budget %d, %d workers: %d-edge slots for reads of at most %d",
						s.NumEdges(), budget, workers, p.bufEdges, p.maxSeg)
				}
				for i := range p.groups {
					gr := &p.groups[i]
					raw, weights := 0, 0
					if s.Compressed() {
						raw = 2 * p.bufEdges * s.edgeBytes
					}
					if s.weightOff > 0 {
						weights = 2 * p.bufEdges
					}
					if len(gr.pairArena) != 2*p.bufEdges || len(gr.weightArena) != weights || len(gr.rawArena) != raw {
						t.Fatalf("compressed=%v budget %d, %d workers, group %d: arenas of %d pairs, %d weights and %d raw bytes, want two %d-edge slots (%d weights, %d raw bytes)",
							s.Compressed(), budget, workers, i, len(gr.pairArena), len(gr.weightArena), len(gr.rawArena), p.bufEdges, weights, raw)
					}
				}
			}
		}
	}
}

func TestFixedDepthPassSpendsTheWholeBudget(t *testing.T) {
	// A pass must be able to put the whole budget in rotation: its two
	// slots split it. With cells far larger than the budget the slices
	// saturate, so peak resident accounting must exceed half the budget.
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
		t.Fatalf("pass kept only %d of %d resident; the ring is not spending the budget", peak, budget)
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

func (s *recordingStore) StreamCells(opt core.StreamOptions, visit func(worker int, pairs []graph.Pair, weights []graph.Weight)) error {
	s.passes = append(s.passes, opt)
	return s.Store.StreamCells(opt, visit)
}

// TestStreamedAutoPassesGetConfiguredRecipe: every pass of an adaptive
// streamed PageRank receives the configured budget — only the direction is
// the planner's — and the result stays bit-identical to the fixed streamed
// (and hence the in-memory grid) run.
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
	if _, err := core.RunStreamed(rec, prAuto, core.Config{Flow: core.Auto, MemoryBudget: 1 << 20}); err != nil {
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
		if opt.MemoryBudget != 1<<20 {
			t.Fatalf("pass %d ran under %d bytes, want the configured 1 MiB", i, opt.MemoryBudget)
		}
	}
}

// TestCompressedPassStaysWithinBudget: a compressed pass slots whole
// cells; under a budget with room for three largest cells per worker its
// two slots stay within the budget, with ranks bit-identical to the raw
// store's run.
func TestCompressedPassStaysWithinBudget(t *testing.T) {
	g := testGraph(t, 12, false)
	const p, workers = 8, 2
	s := buildTestStoreV2(t, g, p, false)
	budget := int64(workers*3*s.maxCellEdges) * s.residentEdgeBytes()
	cfg := streamConfig(core.Pull, budget)
	cfg.Workers = workers
	prRef := algorithms.NewPageRank()
	if _, err := core.RunStreamed(buildTestStore(t, g, p, false), prRef, cfg); err != nil {
		t.Fatalf("raw run: %v", err)
	}
	pr := algorithms.NewPageRank()
	if _, err := core.RunStreamed(s, pr, cfg); err != nil {
		t.Fatalf("compressed run: %v", err)
	}
	if peak := s.Stats().PeakResidentBytes; peak > budget {
		t.Fatalf("compressed run peaked at %d resident bytes, over the %d budget", peak, budget)
	}
	for v := range prRef.Rank {
		if math.Float64bits(pr.Rank[v]) != math.Float64bits(prRef.Rank[v]) {
			t.Fatalf("rank[%d] = %v compressed, %v raw", v, pr.Rank[v], prRef.Rank[v])
		}
	}
}

// TestCompressedSlotsFitLargestCells: a compressed store's slots take their
// length from the budget (or the largest read) while that exceeds the
// largest cell, and the two of them fit the budget; a raw store's slots
// take the same share.
func TestCompressedSlotsFitLargestCells(t *testing.T) {
	g := testGraph(t, 12, false)
	const p, workers = 8, 2
	v2 := buildTestStoreV2(t, g, p, false)
	budget := int64(workers*3*v2.maxCellEdges) * v2.residentEdgeBytes()
	opt := core.StreamOptions{Workers: workers, MemoryBudget: budget}
	var total int64
	if err := v2.StreamCells(opt, countingVisit(&total)); err != nil {
		t.Fatalf("v2 pass: %v", err)
	}
	p2 := idlePool(t, v2)
	if p2.workers != workers {
		t.Fatalf("v2 pool built for %d workers, want %d", p2.workers, workers)
	}
	if want := min(int(budget/(2*workers*v2.residentEdgeBytes())), p2.maxSeg); p2.bufEdges != want || want < v2.maxCellEdges {
		t.Fatalf("v2 slots hold %d edges, want the budget's %d (largest cell %d)", p2.bufEdges, want, v2.maxCellEdges)
	}
	if arena := int64(workers*len(p2.groups[0].pairArena)) * v2.residentEdgeBytes(); arena > budget {
		t.Fatalf("v2 arenas hold %d resident bytes, over the %d budget", arena, budget)
	}
	if total != int64(g.NumEdges()) {
		t.Fatalf("v2 pass delivered %d edges, want %d", total, g.NumEdges())
	}

	v4 := buildTestStore(t, g, p, false)
	if err := v4.StreamCells(opt, countingVisit(new(int64))); err != nil {
		t.Fatalf("v4 pass: %v", err)
	}
	p1 := idlePool(t, v4)
	if got, want := p1.bufEdges, min(int(budget/int64(2*workers*pairBytes)), p1.maxSeg); got != want {
		t.Fatalf("v4 slots hold %d edges, want the budget's %d", got, want)
	}
}

// TestCompressedPoolKeepsMinDepthWhenCellsOverrun: when two largest-cell
// slots per worker exceed the budget, the pass keeps them — the one
// documented overrun, bounded by those slots — and still delivers every
// edge.
func TestCompressedPoolKeepsMinDepthWhenCellsOverrun(t *testing.T) {
	g := testGraph(t, 12, false)
	s := buildTestStoreV2(t, g, 8, false)
	const workers = 2
	resident := s.residentEdgeBytes()
	budget := int64(workers*s.maxCellEdges) * resident // one largest cell per worker
	var total int64
	if err := s.StreamCells(core.StreamOptions{Workers: workers, MemoryBudget: budget}, countingVisit(&total)); err != nil {
		t.Fatalf("StreamCells: %v", err)
	}
	pool := idlePool(t, s)
	if pool.bufEdges != s.maxCellEdges {
		t.Fatalf("slots hold %d edges, want the largest cell's %d", pool.bufEdges, s.maxCellEdges)
	}
	if total != int64(g.NumEdges()) {
		t.Fatalf("delivered %d edges, want %d", total, g.NumEdges())
	}
	floor := int64(pool.workers*core.MinPrefetchDepth*s.maxCellEdges) * resident
	if peak := s.Stats().PeakResidentBytes; peak > floor {
		t.Fatalf("peak resident %d exceeds the %d-byte largest-cell floor", peak, floor)
	}
}
