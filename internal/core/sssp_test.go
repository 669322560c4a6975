package core

import (
	"container/heap"
	"fmt"
	"math"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
)

// distHeap is a binary min-heap of (distance, vertex) entries.
type distHeap []distEntry

type distEntry struct {
	d float32
	v graph.VertexID
}

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distEntry)) }
func (h *distHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// dijkstra is the serial reference: binary-heap Dijkstra in float32 over
// g's edge array (both directions of every edge when g is undirected). A
// vertex is pushed again whenever its distance improves, even after it was
// popped, so a negative edge without a negative cycle is handled too.
func dijkstra(g *graph.Graph, source graph.VertexID) []float32 {
	n := g.NumVertices()
	out := make([][]graph.Edge, n)
	for _, e := range g.EdgeArray.Edges {
		out[e.Src] = append(out[e.Src], e)
		if !g.Directed && e.Src != e.Dst {
			out[e.Dst] = append(out[e.Dst], graph.Edge{Src: e.Dst, Dst: e.Src, W: e.W})
		}
	}
	dist := make([]float32, n)
	for v := range dist {
		dist[v] = float32(math.Inf(1))
	}
	dist[source] = 0
	h := &distHeap{{0, source}}
	for h.Len() > 0 {
		top := heap.Pop(h).(distEntry)
		if top.d > dist[top.v] {
			continue
		}
		for _, e := range out[top.v] {
			if nd := top.d + e.W; nd < dist[e.Dst] {
				dist[e.Dst] = nd
				heap.Push(h, distEntry{nd, e.Dst})
			}
		}
	}
	return dist
}

// ssspOracleGraphs are the inputs of TestSSSPMatchesDijkstra, every layout
// built. Weights are small integers, so every path sum is exact.
func ssspOracleGraphs(t *testing.T) []spanGraph {
	t.Helper()
	e := func(s, d int, w float32) graph.Edge {
		return graph.Edge{Src: graph.VertexID(s), Dst: graph.VertexID(d), W: w}
	}
	reweight := func(g *graph.Graph, w float32) *graph.Graph {
		for i := range g.EdgeArray.Edges {
			g.EdgeArray.Edges[i].W = w
		}
		return g
	}
	road := func() *graph.Graph {
		return gen.Road(gen.RoadOptions{Width: 64, Height: 64, ShortcutFraction: 0.05, Seed: 5, Weighted: true})
	}
	// A directed ring with chords; the one negative edge 5 -> 3 closes only
	// cycles of positive total weight (3 -> 4 -> 5 -> 3 sums to 1).
	negative := []graph.Edge{e(5, 3, -3), e(0, 5, 1), e(2, 7, 4), e(8, 1, 1)}
	for v := 0; v < 10; v++ {
		negative = append(negative, e(v, (v+1)%10, 2))
	}
	var disconnected []graph.Edge
	for v := 0; v < 30; v++ {
		if v%10 != 9 {
			disconnected = append(disconnected, e(v, v+1, float32(1+v%4)), e(v+1, v, 3))
		}
	}
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"road-64", road()},
		{"rmat-10", gen.RMAT(gen.RMATOptions{Scale: 10, EdgeFactor: 16, Seed: 7, Weighted: true})},
		{"zero-weights", reweight(road(), 0)},
		{"unit-weights", reweight(road(), 1)},
		{"disconnected", graph.New(disconnected, 36, true)},
		{"self-loops", graph.New([]graph.Edge{e(0, 0, 1), e(0, 1, 2), e(1, 1, 0), e(1, 2, 1), e(2, 2, 3), e(2, 0, 1), e(3, 3, 1), e(2, 3, 7), e(4, 5, 1)}, 6, true)},
		{"negative-edge", graph.New(negative, 10, true)},
	}
	out := make([]spanGraph, len(cases))
	for i, c := range cases {
		prepareAll(t, c.g, !c.g.Directed)
		out[i] = spanGraph{c.name, c.g}
	}
	return out
}

// TestSSSPMatchesDijkstra: whatever order the engine relaxes edges in —
// every static configuration and the adaptive one, in memory and streamed,
// at 1, 2 and 8 workers, push iterations on the caller or on the gang, with
// the push kernels' buckets or without — SSSP leaves the serial Dijkstra
// distances bit for bit. On the lattice the buckets cut relaxations without
// stretching the run: fixed push takes at most 1.5x the iterations of plain
// frontier Bellman-Ford.
func TestSSSPMatchesDijkstra(t *testing.T) {
	configs := append(allConfigs(), Config{Flow: Auto, Layout: graph.LayoutAdjacency})
	for _, sg := range ssspOracleGraphs(t) {
		want := dijkstra(sg.g, 0)
		src := &gridSource{grid: sg.g.Grid, undirected: !sg.g.Directed}
		check := func(t *testing.T, run func(Algorithm) error) {
			t.Helper()
			s := algorithms.NewSSSP(0)
			if err := run(s); err != nil {
				t.Fatal(err)
			}
			for v, d := range s.Distances() {
				if math.Float32bits(d) != math.Float32bits(want[v]) {
					t.Fatalf("vertex %d: distance %v, Dijkstra %v", v, d, want[v])
				}
			}
		}
		for _, workers := range []int{1, 2, 8} {
			for _, cfg := range configs {
				cfg.Workers = workers
				name := fmt.Sprintf("%s/w%d/%v-%v-%v", sg.name, workers, cfg.Layout, cfg.Flow, cfg.Sync)
				run := func(t *testing.T) {
					check(t, func(alg Algorithm) error {
						_, err := Run(sg.g, alg, cfg)
						return err
					})
				}
				t.Run(name, run)
				if workers > 1 && pushesRows(cfg) {
					atCallerPushExtremes(t, name, run)
				}
				if cfg.Flow != Auto && (cfg.Layout != graph.LayoutGrid || cfg.Sync != SyncPartitionFree) {
					continue
				}
				t.Run("streamed/"+name, func(t *testing.T) {
					check(t, func(alg Algorithm) error {
						_, err := RunStreamed(src, alg, cfg)
						return err
					})
				})
			}
		}
	}

	g := ssspOracleGraphs(t)[0].g
	cfg := Config{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics, Workers: 2}
	bucketed, err := Run(g, algorithms.NewSSSP(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The per-edge adapter relaxes every active vertex: Bellman-Ford.
	plain, err := Run(g, perEdgeOnly{algorithms.NewSSSP(0)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if 2*bucketed.Iterations > 3*plain.Iterations {
		t.Fatalf("bucketed push took %d iterations, Bellman-Ford %d: more than 1.5x", bucketed.Iterations, plain.Iterations)
	}
	t.Logf("lattice: %d iterations bucketed, %d Bellman-Ford", bucketed.Iterations, plain.Iterations)
}
