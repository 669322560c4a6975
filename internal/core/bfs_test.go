package core

import (
	"fmt"
	"slices"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
)

// badParent checks a BFS tree rooted at source against g: the root is its
// own parent, an unreached vertex has parent -1, and every other reached
// vertex's parent reaches it over an edge of g (either way round when g is
// undirected) from one level up. Parents may differ between schedules;
// validity may not. It returns the first vertex that breaks it, and whether
// there is one.
func badParent(g *graph.Graph, source graph.VertexID, parent, level []int32) (graph.VertexID, bool) {
	type arc struct{ u, v graph.VertexID }
	arcs := make(map[arc]bool, len(g.EdgeArray.Edges))
	for _, e := range g.EdgeArray.Edges {
		arcs[arc{e.Src, e.Dst}] = true
		if !g.Directed {
			arcs[arc{e.Dst, e.Src}] = true
		}
	}
	for vi, p := range parent {
		v := graph.VertexID(vi)
		switch {
		case level[v] < 0:
			if p != -1 {
				return v, true
			}
		case v == source:
			if p != int32(v) {
				return v, true
			}
		case p < 0 || !arcs[arc{graph.VertexID(p), v}] || level[p] != level[v]-1:
			return v, true
		}
	}
	return 0, false
}

// Shape of layeredGraph: layer widths k and the parallel edges each wide
// vertex sends to the next hub.
const (
	layeredWidth = 40
	layeredFan   = 8
	// layeredAlpha puts |E|/alpha between a hub's out-edges (layeredWidth)
	// and a wide layer's (layeredFan*layeredWidth), so PushPull pushes from
	// the root, the stem and the hubs and pulls on the wide layers.
	layeredAlpha = 4
)

// layeredGraph is root 0 -> stem 1 -> k wide vertices -> hub -> k wide
// vertices -> hub -> k sinks, where every wide vertex sends layeredFan
// parallel edges to its hub and the first wide vertex one back to the stem,
// plus 105 vertices with no in-edge, each with one edge into the graph. That
// makes 229 vertices, so the last bitmap word is partial, and about half of
// them can only be reached as a root. The first pull comes after two pushes:
// the stem, discovered by the first, is not in the pull's frontier, and the
// back edge offers it a parent there.
func layeredGraph() *graph.Graph {
	const k = layeredWidth
	var edges []graph.Edge
	add := func(s, d int) {
		edges = append(edges, graph.Edge{Src: graph.VertexID(s), Dst: graph.VertexID(d), W: 1})
	}
	stem, hub1, hub2 := 1, k+2, 2*k+3
	add(0, stem)
	add(stem+1, stem)
	for i := 1; i <= k; i++ {
		add(stem, stem+i)
		add(hub1, hub1+i)
		add(hub2, hub2+i)
		for j := 0; j < layeredFan; j++ {
			add(stem+i, hub1)
			add(hub1+i, hub2)
		}
	}
	const n = 229
	for v := hub2 + k + 1; v < n; v++ {
		add(v, 2+v%(3*k))
	}
	return graph.New(edges, n, true)
}

// TestBFSMatchesSerialOracle: BFS levels match the queue BFS oracle, and every
// parent is a valid one, in every configuration ValidateTechniques admits
// and under Auto, at 1, 2 and 8 workers, push iterations on the caller or
// on the gang, in memory and — for the configurations that can — streamed.
// The inputs cover an RMAT graph both ways and the layered graph, whose
// in-degree-0 vertices and partial last word the bitmap pull step must skip
// and bound. A PushPull run on the layered graph alternates push and pull,
// so frontiers built a word at a time by a pull feed the next push.
func TestBFSMatchesSerialOracle(t *testing.T) {
	rmat := func(directed bool) *graph.Graph {
		g := gen.RMAT(gen.RMATOptions{Scale: 10, EdgeFactor: 8, Seed: 3})
		g.Directed = directed
		return g
	}
	inputs := []spanGraph{{"rmat-10", rmat(true)}, {"rmat-10-undirected", rmat(false)}, {"layered", layeredGraph()}}
	for _, in := range inputs {
		g := in.g
		prepareAll(t, g, !g.Directed)
		want := oracleBFS(g, 0)
		src := &gridSource{grid: g.Grid, undirected: !g.Directed}
		check := func(t *testing.T, run func(Algorithm) (*Result, error)) *Result {
			t.Helper()
			b := algorithms.NewBFS(0)
			res, err := run(b)
			if err != nil {
				t.Fatal(err)
			}
			for v, l := range want {
				if b.Level[v] != l {
					t.Fatalf("vertex %d: level %d, serial BFS %d", v, b.Level[v], l)
				}
			}
			if v, bad := badParent(g, b.Source, b.Parent, b.Level); bad {
				t.Fatalf("vertex %d at level %d: parent %d is not a valid BFS-tree parent", v, b.Level[v], b.Parent[v])
			}
			return res
		}
		for _, workers := range []int{1, 2, 8} {
			for _, cfg := range admittedConfigs() {
				cfg.Workers = workers
				// Every BFS iteration discovers a vertex, so a kernel that
				// rediscovers ends at the cap with wrong levels, not in a hang.
				cfg.MaxIterations = g.NumVertices()
				name := fmt.Sprintf("%s/w%d/%v-%v-%v", in.name, workers, cfg.Layout, cfg.Flow, cfg.Sync)
				run := func(t *testing.T) {
					check(t, func(alg Algorithm) (*Result, error) { return Run(g, alg, cfg) })
				}
				t.Run(name, run)
				if workers > 1 && pushesRows(cfg) {
					atCallerPushExtremes(t, name, run)
				}
				if cfg.Flow != Auto && (cfg.Layout != graph.LayoutGrid || cfg.Sync != SyncPartitionFree) {
					continue
				}
				t.Run("streamed/"+name, func(t *testing.T) {
					check(t, func(alg Algorithm) (*Result, error) { return RunStreamed(src, alg, cfg) })
				})
			}
			if in.name != "layered" {
				continue
			}
			t.Run(fmt.Sprintf("layered/w%d/pull-push-pull", workers), func(t *testing.T) {
				cfg := Config{Layout: graph.LayoutAdjacency, Flow: PushPull, Sync: SyncAtomics, PushPullAlpha: layeredAlpha, Workers: workers}
				res := check(t, func(alg Algorithm) (*Result, error) { return Run(g, alg, cfg) })
				var flows []Flow
				for _, it := range res.PerIteration {
					flows = append(flows, it.Plan.Flow)
				}
				if wantFlows := []Flow{Push, Push, Pull, Push, Pull, Push, Push}; !slices.Equal(flows, wantFlows) {
					t.Fatalf("directions %v, want %v", flows, wantFlows)
				}
			})
		}
	}
}
