package core

import (
	"fmt"
	"slices"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/prep"
)

// withUnitColumn returns a with an explicit all-ones Weights column, which a
// build of unit-weight edges leaves out.
func withUnitColumn(t *testing.T, a *graph.Adjacency) *graph.Adjacency {
	t.Helper()
	if a.Weights != nil {
		t.Fatal("a build of unit-weight edges kept its Weights column")
	}
	ones := make([]graph.Weight, len(a.Targets))
	for i := range ones {
		ones[i] = 1
	}
	return &graph.Adjacency{Index: a.Index, Targets: a.Targets, Weights: ones, NumVertices: a.NumVertices, SortedByTarget: a.SortedByTarget}
}

// unitWeightTwins builds RMAT-10, whose weights are all 1, with every layout
// (neighbour lists sorted if sorted) and returns it twice: as built, with no
// Weights column, and with the same adjacencies carrying an all-ones column.
func unitWeightTwins(t *testing.T, sorted bool) (bare, ones *graph.Graph) {
	bare = gen.RMAT(gen.RMATOptions{Scale: 10, EdgeFactor: 8, Seed: 21})
	opt := prep.Options{SortNeighbors: sorted}
	if err := prep.BuildAdjacency(bare, prep.InOut, opt); err != nil {
		t.Fatal(err)
	}
	if err := prep.BuildGrid(bare, 16, opt); err != nil {
		t.Fatal(err)
	}
	ones = &graph.Graph{EdgeArray: bare.EdgeArray, Out: withUnitColumn(t, bare.Out), In: withUnitColumn(t, bare.In), Grid: bare.Grid, Directed: bare.Directed}
	return bare, ones
}

// TestUnitWeightsBitIdentical runs SSSP and SpMV, through their span kernels
// and through the per-edge adapter, on a weightless adjacency and on the
// same adjacency with an explicit all-ones column: the results must agree bit
// for bit in every configuration at 1, 2 and 8 workers. SpMV sums are
// compared only where their order is fixed.
func TestUnitWeightsBitIdentical(t *testing.T) {
	var algos []spanAlgo
	for _, a := range spanAlgos {
		if a.name == "spmv" || a.name == "sssp" {
			algos = append(algos, a)
		}
	}
	for _, sorted := range []bool{false, true} {
		bare, ones := unitWeightTwins(t, sorted)
		for _, cfg := range allConfigs() {
			if sorted {
				if cfg.Layout != graph.LayoutAdjacency {
					continue
				}
				cfg.Layout = graph.LayoutAdjacencySorted
			}
			for _, workers := range []int{1, 2, 8} {
				cfg.Workers = workers
				for _, a := range algos {
					if !a.integral && workers > 1 && !ownedOrder(cfg) {
						continue
					}
					for _, adapter := range []bool{false, true} {
						name := fmt.Sprintf("%s/%s/%s/%s/w%d/adapter=%v", a.name, cfg.Layout, cfg.Flow, cfg.Sync, workers, adapter)
						run := func(g *graph.Graph) []uint64 {
							alg, result := a.make()
							if adapter {
								alg = perEdgeOnly{alg}
							}
							if _, err := Run(g, alg, cfg); err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							return result()
						}
						if !slices.Equal(run(bare), run(ones)) {
							t.Errorf("%s: results differ between the weightless and the all-ones adjacency", name)
						}
					}
				}
			}
		}
	}
}
