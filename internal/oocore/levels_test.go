package oocore

import (
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/core"
	"github.com/epfl-repro/everythinggraph/internal/graph"
)

// These tests cover virtual coarsening: the ladder construction, the
// merged-read simulation the planner costs levels with, delivery and
// bit-identity of streamed execution at every rung (both store formats),
// and the steady-state zero-allocation contract at a coarse level.

func TestBuildStoreLevelsLadder(t *testing.T) {
	cases := []struct {
		p, rangeSize int
		wantP        []int
		wantFactor   []int
	}{
		{8, 100, []int{8, 4, 2, 1}, []int{1, 2, 4, 8}},
		{6, 10, []int{6, 3, 2, 1}, []int{1, 2, 4, 8}},
		{1, 5, []int{1}, []int{1}},
	}
	for _, c := range cases {
		levels := buildStoreLevels(c.p, c.rangeSize)
		if len(levels) != len(c.wantP) {
			t.Fatalf("p=%d: %d levels, want %d (%v)", c.p, len(levels), len(c.wantP), levels)
		}
		for i, lv := range levels {
			if lv.P != c.wantP[i] || lv.Factor != c.wantFactor[i] || lv.RangeSize != c.rangeSize*c.wantFactor[i] {
				t.Fatalf("p=%d level %d = %+v, want P=%d factor=%d range=%d",
					c.p, i, lv, c.wantP[i], c.wantFactor[i], c.rangeSize*c.wantFactor[i])
			}
		}
	}
}

func TestLevelBoundsAlignToCoarseColumns(t *testing.T) {
	g := testGraph(t, 11, false)
	s := buildTestStore(t, g, 8, false)
	for _, lv := range s.Levels() {
		for workers := 1; workers <= 4; workers++ {
			bounds := s.levelBounds(lv.Factor, workers)
			if bounds[0] != 0 || bounds[len(bounds)-1] != s.Header().P {
				t.Fatalf("factor %d workers %d: bounds %v do not cover [0,%d]", lv.Factor, workers, bounds, s.Header().P)
			}
			for i := 1; i < len(bounds); i++ {
				if bounds[i] < bounds[i-1] {
					t.Fatalf("factor %d workers %d: bounds %v not monotone", lv.Factor, workers, bounds)
				}
				if bounds[i] != s.Header().P && bounds[i]%lv.Factor != 0 {
					t.Fatalf("factor %d workers %d: boundary %d splits a coarse column", lv.Factor, workers, bounds[i])
				}
			}
		}
	}
}

func TestLevelRunsCoarseningMergesReads(t *testing.T) {
	g := testGraph(t, 12, false)
	s := buildTestStore(t, g, 8, false)
	prev := int64(-1)
	for _, lv := range s.Levels() {
		runs, maxRun := s.levelRuns(lv.Factor, s.levelBounds(lv.Factor, 1))
		if runs <= 0 || maxRun <= 0 {
			t.Fatalf("factor %d: runs=%d maxRun=%d on a non-empty store", lv.Factor, runs, maxRun)
		}
		if int64(maxRun) > s.NumEdges() {
			t.Fatalf("factor %d: maxRun %d exceeds edge count %d", lv.Factor, maxRun, s.NumEdges())
		}
		if prev >= 0 && runs > prev {
			t.Fatalf("factor %d: %d runs, more than the finer level's %d — coarsening must only merge", lv.Factor, runs, prev)
		}
		prev = runs
	}
	// A single full-width group has zero-width gaps at fine-row boundaries
	// inside a coarse row, so a dense store's coarsest level is one read.
	if runs, _ := s.levelRuns(s.Header().P, []int{0, s.Header().P}); runs != 1 {
		t.Fatalf("coarsest single-group pass issues %d reads, want 1", runs)
	}
}

func TestStreamLevelsProfileShape(t *testing.T) {
	g := testGraph(t, 11, false)
	for _, compressed := range []bool{false, true} {
		var s *Store
		if compressed {
			s = buildTestStoreV2(t, g, 8, false)
		} else {
			s = buildTestStore(t, g, 8, false)
		}
		infos := s.StreamLevels(2, core.DefaultStreamMemoryBudget)
		if len(infos) != len(s.Levels()) {
			t.Fatalf("compressed=%v: %d infos for %d levels", compressed, len(infos), len(s.Levels()))
		}
		profiles := s.LevelProfiles(2, core.DefaultStreamMemoryBudget)
		for i, lp := range profiles {
			if lp.Reads != infos[i].Reads || lp.Workers != infos[i].Workers {
				t.Fatalf("compressed=%v level %d: profile %+v disagrees with StreamLevels %+v", compressed, i, lp, infos[i])
			}
			if lp.ReadBytes != profiles[0].ReadBytes {
				t.Fatalf("compressed=%v: ReadBytes varies across levels (%d vs %d) — coarsening must not change bytes",
					compressed, lp.ReadBytes, profiles[0].ReadBytes)
			}
			if compressed && lp.DecodeBytes == 0 {
				t.Fatalf("v2 level %d reports zero decode bytes", i)
			}
			if !compressed && lp.DecodeBytes != 0 {
				t.Fatalf("v1 level %d reports decode bytes %d", i, lp.DecodeBytes)
			}
		}
	}
}

func TestStreamCellsVirtualLevelDeliversEveryEdgeOnce(t *testing.T) {
	g := testGraph(t, 11, true)
	for _, compressed := range []bool{false, true} {
		var s *Store
		if compressed {
			s = buildTestStoreV2(t, g, 8, false)
		} else {
			s = buildTestStore(t, g, 8, false)
		}
		want := edgeMultiset(g.EdgeArray.Edges)
		for _, lv := range s.Levels() {
			for _, workers := range []int{1, 3} {
				opt := coreStreamOpts(workers, 1<<20)
				opt.GridLevel = lv.P
				all, _ := collectStream(t, s, opt)
				got := edgeMultiset(all)
				if len(got) != len(want) {
					t.Fatalf("compressed=%v level P=%d w=%d: %d distinct edges, want %d",
						compressed, lv.P, workers, len(got), len(want))
				}
				for e, n := range want {
					if got[e] != n {
						t.Fatalf("compressed=%v level P=%d w=%d: edge %v delivered %d times, want %d",
							compressed, lv.P, workers, e, got[e], n)
					}
				}
			}
		}
	}
}

// rungSource narrows a store's ladder to the rung at the given index
// (1-based, 1 = finest). A static flow streams at its source's finest rung,
// so runs over it are pinned to that rung: a one-candidate set.
type rungSource struct {
	*Store
	rung int
}

func (s rungSource) StreamLevels(workers int, budget int64) []core.StreamLevelInfo {
	return s.Store.StreamLevels(workers, budget)[s.rung-1 : s.rung]
}

func TestStreamedEveryLevelBitIdentical(t *testing.T) {
	g := testGraph(t, 11, false)
	const p = 8
	grid := memGrid(t, g, p, false)
	g.Grid = grid
	prMem := algorithms.NewPageRank()
	if _, err := core.Run(g, prMem, gridConfig(core.Push)); err != nil {
		t.Fatalf("in-memory run: %v", err)
	}

	for _, compressed := range []bool{false, true} {
		var s *Store
		if compressed {
			s = buildTestStoreV2(t, g, p, false)
		} else {
			s = buildTestStore(t, g, p, false)
		}
		for i := range s.Levels() {
			pr := algorithms.NewPageRank()
			res, err := core.RunStreamed(rungSource{s, i + 1}, pr, streamConfig(core.Push, 128<<10))
			if err != nil {
				t.Fatalf("compressed=%v rung %d: %v", compressed, i+1, err)
			}
			wantP := s.Levels()[i].P
			for _, it := range res.PerIteration {
				if it.Plan.GridLevel != wantP {
					t.Fatalf("compressed=%v rung %d: plan %v ran at level %d, want %d",
						compressed, i+1, it.Plan, it.Plan.GridLevel, wantP)
				}
			}
			for v := range prMem.Rank {
				if pr.Rank[v] != prMem.Rank[v] {
					t.Fatalf("compressed=%v rung %d: rank[%d] = %v, in-memory %v",
						compressed, i+1, v, pr.Rank[v], prMem.Rank[v])
				}
			}
		}
	}
}

func TestStreamedEveryLevelSpMVBitIdentical(t *testing.T) {
	g := testGraph(t, 10, true)
	const p = 8
	grid := memGrid(t, g, p, false)
	g.Grid = grid
	mMem := algorithms.NewSpMV()
	if _, err := core.Run(g, mMem, gridConfig(core.Push)); err != nil {
		t.Fatalf("in-memory run: %v", err)
	}
	want := mMem.Result()

	for _, compressed := range []bool{false, true} {
		var s *Store
		if compressed {
			s = buildTestStoreV2(t, g, p, false)
		} else {
			s = buildTestStore(t, g, p, false)
		}
		for i := range s.Levels() {
			m := algorithms.NewSpMV()
			if _, err := core.RunStreamed(rungSource{s, i + 1}, m, streamConfig(core.Push, 64<<10)); err != nil {
				t.Fatalf("compressed=%v rung %d: %v", compressed, i+1, err)
			}
			got := m.Result()
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("compressed=%v rung %d: y[%d] = %v, in-memory %v", compressed, i+1, v, got[v], want[v])
				}
			}
		}
	}
}

func TestStreamedEveryLevelWCCLabelIdentical(t *testing.T) {
	g := testGraph(t, 11, false)
	const p = 8
	grid := memGrid(t, g, p, true)
	g.Grid = grid
	wccMem := algorithms.NewWCC()
	if _, err := core.Run(g, wccMem, gridConfig(core.Push)); err != nil {
		t.Fatalf("in-memory run: %v", err)
	}

	for _, compressed := range []bool{false, true} {
		var s *Store
		if compressed {
			s = buildTestStoreV2(t, g, p, true)
		} else {
			s = buildTestStore(t, g, p, true)
		}
		for i := range s.Levels() {
			wcc := algorithms.NewWCC()
			if _, err := core.RunStreamed(rungSource{s, i + 1}, wcc, streamConfig(core.Push, 128<<10)); err != nil {
				t.Fatalf("compressed=%v rung %d: %v", compressed, i+1, err)
			}
			for v := range wccMem.Labels {
				if wcc.Labels[v] != wccMem.Labels[v] {
					t.Fatalf("compressed=%v rung %d: label[%d] = %d, in-memory %d",
						compressed, i+1, v, wcc.Labels[v], wccMem.Labels[v])
				}
			}
		}
	}
}

func TestStreamPassCoarseLevelZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	g := testGraph(t, 12, false)
	s := buildTestStore(t, g, 8, false)
	// Coarsest rung above 1 so merged reads are the common case.
	lv := s.Levels()[len(s.Levels())-2]
	opt := coreStreamOpts(0, 1<<20)
	opt.GridLevel = lv.P
	var total int64
	visit := countingVisit(&total)
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
		t.Fatalf("coarse-level steady-state pass allocates %v objects, want 0", allocs)
	}
	if total == 0 {
		t.Fatal("visit never ran")
	}
}

func TestStreamCellsLevelKnobChangeReusesPool(t *testing.T) {
	g := testGraph(t, 10, true)
	s := buildTestStore(t, g, 8, false)
	const budget = 1 << 20
	want := edgeMultiset(g.EdgeArray.Edges)
	run := func(opt core.StreamOptions) {
		t.Helper()
		all, _ := collectStream(t, s, opt)
		got := edgeMultiset(all)
		for e, n := range want {
			if got[e] != n {
				t.Fatalf("opt %+v: edge %v delivered %d times, want %d", opt, e, got[e], n)
			}
		}
	}
	run(core.StreamOptions{Workers: 4, MemoryBudget: budget})
	built := idlePool(t, s)
	// The virtual level is the one option a run moves between passes:
	// switching it must not rebuild the pool.
	for _, lv := range s.Levels() {
		run(core.StreamOptions{Workers: 4, MemoryBudget: budget, GridLevel: lv.P})
		if idlePool(t, s) != built {
			t.Fatalf("switching to level P=%d rebuilt the pool", lv.P)
		}
	}
}

// TestStreamedAutoCoarseLevelBitIdentical is the race-detector target for
// virtual coarsening: an over-partitioned store streamed with the adaptive
// planner under a tight budget, so passes run at a coarsened level over the
// pool a fixed finest-level run built. Bit-identity against that run guards
// the result.
func TestStreamedAutoCoarseLevelBitIdentical(t *testing.T) {
	g := testGraph(t, 11, false)
	s := buildTestStore(t, g, 32, false)

	ref := algorithms.NewPageRank()
	if _, err := core.RunStreamed(s, ref, streamConfig(core.Push, 256<<10)); err != nil {
		t.Fatalf("reference run: %v", err)
	}

	cfg := core.Config{
		Layout: graph.LayoutGrid, Flow: core.Auto, Sync: core.SyncPartitionFree,
		MemoryBudget: 256 << 10,
	}
	pr := algorithms.NewPageRank()
	res, err := core.RunStreamed(s, pr, cfg)
	if err != nil {
		t.Fatalf("auto run: %v", err)
	}
	if res.Iterations == 0 {
		t.Fatal("auto run did no iterations")
	}
	for v := range ref.Rank {
		if pr.Rank[v] != ref.Rank[v] {
			t.Fatalf("rank[%d] = %v auto, %v finest", v, pr.Rank[v], ref.Rank[v])
		}
	}
}
