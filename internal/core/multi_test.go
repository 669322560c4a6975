package core

import (
	"reflect"
	"strings"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/sched"
)

// The tests in this file pin the multi-source kernels to their single-source
// counterparts: a MultiBFS/MultiSSSP sweep over k sources must produce, for
// every source, exactly what k separate runs produce — across every
// layout/flow/sync combination, because the bit-parallel edge functions go
// through the same StepPlan dispatch as everything else.

// multiSources picks k spread-out roots on g (distinct, in-range).
func multiSources(g *graph.Graph, k int) []graph.VertexID {
	n := g.NumVertices()
	srcs := make([]graph.VertexID, 0, k)
	seen := make(map[graph.VertexID]bool, k)
	for i := 0; len(srcs) < k; i++ {
		v := graph.VertexID((i*2654435761 + 17) % n)
		if !seen[v] {
			seen[v] = true
			srcs = append(srcs, v)
		}
	}
	return srcs
}

// hasEdge reports whether u -> v exists in the out-adjacency.
func hasEdge(g *graph.Graph, u, v graph.VertexID) bool {
	for _, w := range g.Out.Neighbors(u) {
		if w == v {
			return true
		}
	}
	return false
}

func TestMultiBFSMatchesSequentialAcrossConfigs(t *testing.T) {
	g := gen.RMAT(gen.RMATOptions{Scale: 10, EdgeFactor: 8, Seed: 33})
	prepareAll(t, g, false)
	sources := multiSources(g, 64)

	// Reference: one sequential BFS per source (levels are deterministic).
	refLevels := make([][]int32, len(sources))
	for s, src := range sources {
		bfs := algorithms.NewBFS(src)
		if _, err := Run(g, bfs, Config{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics}); err != nil {
			t.Fatalf("sequential bfs %d: %v", s, err)
		}
		refLevels[s] = bfs.Level
	}

	for _, cfg := range allConfigs() {
		name := cfg.Layout.String() + "/" + cfg.Flow.String() + "/" + cfg.Sync.String()
		mb := algorithms.NewMultiBFS(sources)
		if _, err := Run(g, mb, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for s, src := range sources {
			got := mb.Levels(s)
			for v := range got {
				if got[v] != refLevels[s][v] {
					t.Fatalf("%s: source %d: level[%d] = %d, want %d", name, s, v, got[v], refLevels[s][v])
				}
			}
			// Parents are ambiguous (any valid tree), so check validity: the
			// parent sits one level up and the tree edge exists.
			for v := range got {
				p := mb.ParentOf(s, graph.VertexID(v))
				switch {
				case got[v] < 0:
					if p != -1 {
						t.Fatalf("%s: source %d: unreached %d has parent %d", name, s, v, p)
					}
				case graph.VertexID(v) == src:
					if p != int32(src) {
						t.Fatalf("%s: source %d: root parent = %d", name, s, p)
					}
				default:
					if p < 0 || mb.LevelOf(s, graph.VertexID(p)) != got[v]-1 {
						t.Fatalf("%s: source %d: parent of %d is %d at level %d, vertex level %d",
							name, s, v, p, mb.LevelOf(s, graph.VertexID(p)), got[v])
					}
					if !hasEdge(g, graph.VertexID(p), graph.VertexID(v)) {
						t.Fatalf("%s: source %d: tree edge %d -> %d not in graph", name, s, p, v)
					}
				}
			}
		}
	}
}

func TestMultiSSSPMatchesSequentialAcrossConfigs(t *testing.T) {
	g := gen.RMAT(gen.RMATOptions{Scale: 9, EdgeFactor: 8, Seed: 21, Weighted: true})
	prepareAll(t, g, false)
	sources := multiSources(g, 16)

	refDist := make([][]float32, len(sources))
	for s, src := range sources {
		sssp := algorithms.NewSSSP(src)
		if _, err := Run(g, sssp, Config{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics}); err != nil {
			t.Fatalf("sequential sssp %d: %v", s, err)
		}
		refDist[s] = sssp.Distances()
	}

	for _, cfg := range allConfigs() {
		name := cfg.Layout.String() + "/" + cfg.Flow.String() + "/" + cfg.Sync.String()
		ms := algorithms.NewMultiSSSP(sources)
		if _, err := Run(g, ms, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for s := range sources {
			got := ms.Distances(s)
			for v := range got {
				if got[v] != refDist[s][v] {
					t.Fatalf("%s: source %d: dist[%d] = %v, want %v", name, s, v, got[v], refDist[s][v])
				}
			}
		}
	}
}

// TestMultiSourcePlanLabels checks that multi-source runs are a separate
// population in the planner's cost model: every per-iteration plan label
// carries the ×k suffix, so measured costs never pollute single-source
// entries.
func TestMultiSourcePlanLabels(t *testing.T) {
	g := gen.RMAT(gen.RMATOptions{Scale: 10, EdgeFactor: 8, Seed: 33})
	prepareAll(t, g, false)
	sources := multiSources(g, 64)

	mb := algorithms.NewMultiBFS(sources)
	res, err := Run(g, mb, Config{Flow: Auto})
	if err != nil {
		t.Fatalf("auto multi-bfs: %v", err)
	}
	for i, it := range res.PerIteration {
		if !strings.Contains(it.Plan.String(), "×64") {
			t.Fatalf("iteration %d: plan %q lacks the ×64 multi-source marker", i, it.Plan)
		}
	}
	for label := range res.PlanCosts {
		if !strings.Contains(label, "×64") {
			t.Fatalf("plan cost label %q lacks the ×64 multi-source marker", label)
		}
	}
}

func TestBatchBFSFansOutAcrossGroups(t *testing.T) {
	g := gen.RMAT(gen.RMATOptions{Scale: 10, EdgeFactor: 8, Seed: 33})
	prepareAll(t, g, false)
	// 100 sources force two groups (64 + 36), which run concurrently on
	// pool leases; -race covers the scratch separation.
	sources := multiSources(g, 100)

	results, err := Batch(g, BatchBFS, sources, Config{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if len(results) != len(sources) {
		t.Fatalf("got %d results, want %d", len(results), len(sources))
	}
	for i, r := range results {
		if r.Source != sources[i] {
			t.Fatalf("result %d: source %d, want %d", i, r.Source, sources[i])
		}
		bfs := algorithms.NewBFS(r.Source)
		if _, err := Run(g, bfs, Config{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics}); err != nil {
			t.Fatalf("sequential bfs %d: %v", i, err)
		}
		for v := range r.Level {
			if r.Level[v] != bfs.Level[v] {
				t.Fatalf("source %d: level[%d] = %d, want %d", r.Source, v, r.Level[v], bfs.Level[v])
			}
		}
		if r.Dist != nil {
			t.Fatalf("source %d: BFS result carries distances", r.Source)
		}
		if r.Run == nil {
			t.Fatalf("source %d: missing engine result", r.Source)
		}
	}
}

func TestBatchSSSPFansOut(t *testing.T) {
	g := gen.RMAT(gen.RMATOptions{Scale: 9, EdgeFactor: 8, Seed: 21, Weighted: true})
	prepareAll(t, g, false)
	sources := multiSources(g, 70) // two groups

	results, err := Batch(g, BatchSSSP, sources, Config{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	for i, r := range results {
		sssp := algorithms.NewSSSP(sources[i])
		if _, err := Run(g, sssp, Config{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics}); err != nil {
			t.Fatalf("sequential sssp %d: %v", i, err)
		}
		want := sssp.Distances()
		for v := range r.Dist {
			if r.Dist[v] != want[v] {
				t.Fatalf("source %d: dist[%d] = %v, want %v", r.Source, v, r.Dist[v], want[v])
			}
		}
		if r.Parent != nil || r.Level != nil {
			t.Fatalf("source %d: SSSP result carries a BFS tree", r.Source)
		}
	}
}

// TestBatchAutoGroupsConcurrentOrSequential: a two-group adaptive batch gives
// every source the same levels whether its groups run concurrently on
// leases of their own or one after the other on a caller-held lease, and on
// the sequential route each finished group hands its measured plan costs to
// the next group's cost model.
func TestBatchAutoGroupsConcurrentOrSequential(t *testing.T) {
	g := gen.RMAT(gen.RMATOptions{Scale: 11, EdgeFactor: 8, Seed: 7})
	prepareAll(t, g, false)
	sources := multiSources(g, 2*graph.MaxMultiWidth) // two ×64 groups: one cost population

	concurrent, err := Batch(g, BatchBFS, sources, Config{Flow: Auto})
	if err != nil {
		t.Fatalf("concurrent batch: %v", err)
	}
	lease := sched.DefaultPool().Lease(2)
	defer lease.Release()
	sequential, err := Batch(g, BatchBFS, sources, Config{Flow: Auto, Lease: lease})
	if err != nil {
		t.Fatalf("sequential batch: %v", err)
	}
	if len(concurrent) != len(sources) || len(sequential) != len(sources) {
		t.Fatalf("got %d and %d results, want %d", len(concurrent), len(sequential), len(sources))
	}
	for i := range sources {
		if concurrent[i].Source != sources[i] || sequential[i].Source != sources[i] {
			t.Fatalf("result %d: sources %d and %d, want %d", i, concurrent[i].Source, sequential[i].Source, sources[i])
		}
		for v := range concurrent[i].Level {
			if concurrent[i].Level[v] != sequential[i].Level[v] {
				t.Fatalf("source %d level[%d]: concurrent %d != sequential %d",
					sources[i], v, concurrent[i].Level[v], sequential[i].Level[v])
			}
		}
	}

	first, second := sequential[0].Run, sequential[graph.MaxMultiWidth].Run
	if first == second {
		t.Fatal("both groups report the same engine run")
	}
	if len(first.PlanCosts) == 0 {
		t.Fatal("first group measured no plan costs")
	}
	for label := range first.PlanCosts {
		if _, ok := second.PlanCosts[label]; !ok {
			t.Fatalf("second group's cost model lacks %q, which the first group measured", label)
		}
	}
}

func TestMergeCosts(t *testing.T) {
	base := map[string]float64{"a": 1, "b": 2}
	measured := map[string]float64{"b": 5, "c": 7, "d": 0}
	got := mergeCosts(base, measured)
	if want := map[string]float64{"a": 1, "b": 5, "c": 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("mergeCosts = %v, want %v", got, want)
	}
	if base["b"] != 2 || len(base) != 2 || len(measured) != 3 {
		t.Fatalf("mergeCosts mutated its inputs: base %v, measured %v", base, measured)
	}
}

func TestBatchWorkerShares(t *testing.T) {
	group := func(n int) []graph.VertexID { return make([]graph.VertexID, n) }
	cases := []struct {
		name   string
		widths []int
		priors map[string]float64
		total  int
		want   []int
	}{
		{"equal groups split evenly", []int{64, 64}, nil, 8, []int{4, 4}},
		{"narrow remainder gets less", []int{64, 16}, nil, 10, []int{8, 2}},
		{"every group gets a worker", []int{64, 64, 1}, nil, 2, []int{1, 1, 1}},
		{"later groups keep one each", []int{64, 1, 1}, nil, 4, []int{2, 1, 1}},
		// The cache prices a ×16 edge at four times a ×64 one, which evens
		// out the two groups' predicted volumes; single-source entries and
		// non-positive ones are not consulted.
		{"measured costs weigh the widths", []int{64, 16},
			map[string]float64{"grid/16/pull/no-lock×64": 1, "adjacency/pull/no-lock×16": 4,
				"adjacency/push/atomics×16": 9, "adjacency/pull/no-lock": 0.1, "grid/16/push/no-lock×16": 0},
			8, []int{4, 4}},
	}
	for _, c := range cases {
		groups := make([][]graph.VertexID, len(c.widths))
		for i, w := range c.widths {
			groups[i] = group(w)
		}
		if got := batchWorkerShares(groups, c.priors, c.total); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: shares %v, want %v", c.name, got, c.want)
		}
	}
}

// TestPredictedScanCostMatchesExactWidth: a width's cost entries are the
// labels ending in exactly ×k, so a ×64 sweep's cost never sizes a ×6 or ×1
// group's share.
func TestPredictedScanCostMatchesExactWidth(t *testing.T) {
	cases := []struct {
		priors map[string]float64
		k      int
		want   float64
	}{
		{map[string]float64{"adjacency/pull/no-lock×64": 2.5}, 6, 1},
		{map[string]float64{"adjacency/pull/no-lock×64": 2.5, "adjacency/pull/no-lock×6": 9}, 6, 9},
		{map[string]float64{"adjacency/pull/no-lock×16": 3}, 1, 1},
		{map[string]float64{"adjacency/push/atomics": 4}, 1, 4},
	}
	for _, c := range cases {
		if got := predictedScanCost(c.priors, c.k); got != c.want {
			t.Errorf("predictedScanCost(%v, %d) = %v, want %v", c.priors, c.k, got, c.want)
		}
	}
}

func TestBatchValidation(t *testing.T) {
	g := gen.RMAT(gen.RMATOptions{Scale: 8, EdgeFactor: 4, Seed: 1})
	prepareAll(t, g, false)

	if _, err := Batch(g, BatchKind(99), []graph.VertexID{0}, Config{}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := Batch(g, BatchBFS, nil, Config{}); err == nil {
		t.Fatal("empty source list accepted")
	}
	if _, err := Batch(g, BatchBFS, []graph.VertexID{graph.VertexID(g.NumVertices())}, Config{}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}
