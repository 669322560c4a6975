package core

import (
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/graph"
)

// fakeLevelerSource is a fake source exposing a virtual coarsening ladder,
// the planner-facing half of what an on-disk store implements.
type fakeLevelerSource struct {
	fakeSource
	p      int
	levels []StreamLevelInfo
}

func (s *fakeLevelerSource) GridP() int { return s.p }

func (s *fakeLevelerSource) StreamLevels(workers int, budgetCap int64) []StreamLevelInfo {
	return s.levels
}

// overPartitionedSource models a store whose finest level fragments into
// thousands of tiny reads while coarser rungs coalesce almost fully.
func overPartitionedSource(n int) *fakeLevelerSource {
	return &fakeLevelerSource{
		fakeSource: fakeSource{n: n},
		p:          256,
		levels: []StreamLevelInfo{
			{P: 256, RangeSize: (n + 255) / 256, Workers: 1, Reads: 65000, MaxRunEdges: 64},
			{P: 64, RangeSize: (n + 63) / 64, Workers: 1, Reads: 4000, MaxRunEdges: 1024},
			{P: 8, RangeSize: (n + 7) / 8, Workers: 1, Reads: 64, MaxRunEdges: 65536},
		},
	}
}

func TestStreamAutoEnumeratesLadderLevels(t *testing.T) {
	src := overPartitionedSource(1 << 12)
	src.edges = []graph.Edge{{Src: 0, Dst: 1}}
	pl := streamPlanner(src, Config{Flow: Auto}, 1, DefaultStreamMemoryBudget, DefaultPushPullAlpha, true)
	seen := map[int]bool{}
	for _, c := range pl.candidates {
		if c.plan.Layout != graph.LayoutGrid {
			t.Fatalf("candidate %v over a v1 store is not a grid plan", c.plan)
		}
		seen[c.plan.GridLevel] = true
	}
	for _, p := range []int{256, 64, 8} {
		if !seen[p] {
			t.Fatalf("ladder level P=%d missing from candidates (got %v)", p, seen)
		}
	}
}

func TestStreamAutoPrefersCoarseOnOverPartitionedStore(t *testing.T) {
	src := overPartitionedSource(1 << 12)
	src.edges = []graph.Edge{{Src: 0, Dst: 1}}
	pl := streamPlanner(src, Config{Flow: Auto}, 1, DefaultStreamMemoryBudget, DefaultPushPullAlpha, true)
	plan := pl.Next(0, graph.NewFrontier(src.n))
	if plan.GridLevel >= 256 {
		t.Fatalf("planner opened at the fragmented finest level: %v", plan)
	}
}

// TestStreamStaticGridLevelsPinsRung: a static flow streams at its
// source's finest rung, so a source whose ladder starts at a coarser rung
// pins the run there — the one-candidate way to pin a resolution.
func TestStreamStaticGridLevelsPinsRung(t *testing.T) {
	ladder := overPartitionedSource(1 << 12).levels
	for rung, wantP := range map[int]int{1: 256, 2: 64, 3: 8} {
		src := overPartitionedSource(1 << 12)
		src.edges = []graph.Edge{{Src: 0, Dst: 1}}
		src.levels = ladder[rung-1 : rung]
		pl := streamPlanner(src, Config{Flow: Push}, 1, DefaultStreamMemoryBudget, DefaultPushPullAlpha, true)
		plan := pl.Next(0, graph.NewFrontier(src.n))
		if plan.GridLevel != wantP {
			t.Fatalf("rung %d pinned level %d, want %d", rung, plan.GridLevel, wantP)
		}
	}
}

func TestAdmitStreamLevelsKeepsOnlyImprovingRungs(t *testing.T) {
	levels := []StreamLevelInfo{
		{P: 64, Workers: 2, Reads: 1000},
		{P: 32, Workers: 2, Reads: 980}, // <10% fewer reads, same workers: dropped
		{P: 16, Workers: 2, Reads: 500}, // halves reads: kept
		{P: 8, Workers: 1, Reads: 499},  // worker count drops (budget clamp): kept as a distinct operating point
	}
	kept := admitStreamLevels(levels)
	if len(kept) != 3 || kept[0].P != 64 || kept[1].P != 16 || kept[2].P != 8 {
		t.Fatalf("admitted %v, want finest, P=16 (read halving), P=8 (worker drop)", kept)
	}
	// The finest level survives unconditionally, even alone.
	if kept := admitStreamLevels(levels[:1]); len(kept) != 1 || kept[0].P != 64 {
		t.Fatalf("single-level ladder admitted %v", kept)
	}
}

// TestStreamPlannerLabelsCompressedSource checks that a compressed source
// streams under "compressed/<P>" plans (fixed and adaptive), so traces tell
// the two storage formats apart.
func TestStreamPlannerLabelsCompressedSource(t *testing.T) {
	src := &fakeSource{n: 64, compressed: true}
	pl := streamPlanner(src, Config{Flow: Push}, 1, DefaultStreamMemoryBudget, DefaultPushPullAlpha, true)
	plan := pl.Next(0, graph.NewFrontier(64))
	if plan.Layout != graph.LayoutGridCompressed {
		t.Fatalf("fixed stream plan over a compressed source has layout %v", plan.Layout)
	}
	if want := "compressed/1/push/no-lock"; plan.String() != want {
		t.Fatalf("fixed stream plan labeled %q, want %q", plan.String(), want)
	}
	pl = streamPlanner(src, Config{Flow: Auto}, 1, DefaultStreamMemoryBudget, DefaultPushPullAlpha, true)
	for _, c := range pl.candidates {
		if c.plan.Layout != graph.LayoutGridCompressed {
			t.Fatalf("adaptive stream candidate over a compressed source has layout %v", c.plan.Layout)
		}
	}
	// An uncompressed source keeps the exact pre-compression labels.
	plain := &fakeSource{n: 64}
	plan = streamPlanner(plain, Config{Flow: Push}, 1, DefaultStreamMemoryBudget, DefaultPushPullAlpha, true).Next(0, graph.NewFrontier(64))
	if want := "grid/1/push/no-lock"; plan.String() != want {
		t.Fatalf("v1 stream plan labeled %q, want %q", plan.String(), want)
	}
}
