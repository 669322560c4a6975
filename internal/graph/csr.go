package graph

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/epfl-repro/everythinggraph/internal/sched"
)

// Adjacency is a compressed-sparse-row (CSR) adjacency structure: for every
// vertex v, the neighbour ids (and weights) of v are stored contiguously in
// Targets[Index[v]:Index[v+1]]. Depending on how it was built it represents
// either outgoing neighbours (destinations of out-edges) or incoming
// neighbours (sources of in-edges).
//
// This is the "adjacency list" layout of the paper: per-vertex edge arrays
// stored contiguously, i.e. CSR (Section 3.2, "the edges are stored
// contiguously in memory, corresponding to compressed sparse row format").
type Adjacency struct {
	// Index has NumVertices+1 entries; vertex v's neighbours occupy
	// positions Index[v] to Index[v+1] (exclusive) of Targets and Weights.
	Index []uint64
	// Targets holds the neighbour vertex ids.
	Targets []VertexID
	// Weights holds the corresponding edge weights, or is nil when they are
	// all 1: the builders write no column of ones (unweighted generators and
	// files). RowWeights reads either.
	Weights []Weight
	// NumVertices is the number of vertices covered by Index.
	NumVertices int
	// SortedByTarget records whether each per-vertex neighbour array is
	// sorted by neighbour id (the optimization evaluated in Section 5).
	SortedByTarget bool

	// nonEmpty is the NonEmpty bitmap, nil until first asked for.
	nonEmpty []uint64
}

// nonEmptyMu guards the first-use build of every adjacency's NonEmpty
// bitmap. It is not a field so that an Adjacency stays a plain value that
// may be copied.
var nonEmptyMu sync.Mutex

// NonEmpty returns a bitmap over the vertices with bit v set iff v has at
// least one neighbour: in an in-adjacency, the vertices a pull can ever
// update. It is built by one pass over Index on first use and shared by
// every later call, so a caller fetches it once per run, not per chunk; the
// adjacency must not change after that. Callers must not modify it.
func (a *Adjacency) NonEmpty() []uint64 {
	nonEmptyMu.Lock()
	defer nonEmptyMu.Unlock()
	if a.nonEmpty == nil {
		ne := make([]uint64, (a.NumVertices+63)/64)
		for v := 0; v < a.NumVertices; v++ {
			if a.Index[v+1] > a.Index[v] {
				ne[v>>6] |= 1 << (v & 63)
			}
		}
		a.nonEmpty = ne
	}
	return a.nonEmpty
}

// Degree returns the number of neighbours of v.
func (a *Adjacency) Degree(v VertexID) int {
	return int(a.Index[v+1] - a.Index[v])
}

// Neighbors returns the neighbour slice of v (shared storage, do not
// modify).
func (a *Adjacency) Neighbors(v VertexID) []VertexID {
	return a.Targets[a.Index[v]:a.Index[v+1]]
}

// NeighborWeights returns the weight slice parallel to Neighbors(v).
func (a *Adjacency) NeighborWeights(v VertexID) []Weight {
	return a.RowWeights(a.Index[v], a.Index[v+1])
}

// RowWeights returns the weights of Targets[lo:hi]: a window of Weights or,
// when Weights is nil, hi-lo ones from a shared all-ones slice. Callers must
// not modify it.
func (a *Adjacency) RowWeights(lo, hi uint64) []Weight {
	if a.Weights != nil {
		return a.Weights[lo:hi]
	}
	return unitWeightRow(int(hi - lo))
}

// PairWeights returns the weights of n pairs: weights[:n] or, when weights
// is nil (every weight 1), n ones from the slice RowWeights shares. Callers
// must not modify it.
func PairWeights(weights []Weight, n int) []Weight {
	if weights != nil {
		return weights[:n]
	}
	return unitWeightRow(n)
}

// unitWeights backs RowWeights's rows of ones. It is replaced, never written:
// readers may keep an old one, and racing growers only cost a regrowth.
var unitWeights atomic.Pointer[[]Weight]

func unitWeightRow(n int) []Weight {
	ones := unitWeights.Load()
	if ones == nil || len(*ones) < n {
		grown := make([]Weight, 2*n) // at least double: few regrowths
		for i := range grown {
			grown[i] = 1
		}
		unitWeights.Store(&grown)
		ones = &grown
	}
	return (*ones)[:n]
}

// NumEdges returns the total number of stored neighbour entries.
func (a *Adjacency) NumEdges() int { return len(a.Targets) }

// Validate checks structural invariants: monotone index, index covering all
// targets, neighbour ids in range, and the sortedness flag.
func (a *Adjacency) Validate() error {
	if len(a.Index) != a.NumVertices+1 {
		return fmt.Errorf("graph: CSR index has %d entries, want %d", len(a.Index), a.NumVertices+1)
	}
	if a.Index[0] != 0 {
		return fmt.Errorf("graph: CSR index must start at 0, got %d", a.Index[0])
	}
	if a.Index[a.NumVertices] != uint64(len(a.Targets)) {
		return fmt.Errorf("graph: CSR index ends at %d, want %d", a.Index[a.NumVertices], len(a.Targets))
	}
	if a.Weights != nil && len(a.Weights) != len(a.Targets) {
		return fmt.Errorf("graph: CSR weights length %d != targets length %d", len(a.Weights), len(a.Targets))
	}
	for v := 0; v < a.NumVertices; v++ {
		if a.Index[v] > a.Index[v+1] {
			return fmt.Errorf("graph: CSR index not monotone at vertex %d", v)
		}
	}
	n := VertexID(a.NumVertices)
	for i, t := range a.Targets {
		if t >= n {
			return fmt.Errorf("graph: CSR target %d at position %d out of range", t, i)
		}
	}
	if a.SortedByTarget {
		for v := 0; v < a.NumVertices; v++ {
			nb := a.Neighbors(VertexID(v))
			for i := 1; i < len(nb); i++ {
				if nb[i-1] > nb[i] {
					return fmt.Errorf("graph: CSR marked sorted but vertex %d is not", v)
				}
			}
		}
	}
	return nil
}

// SortNeighbors sorts each per-vertex neighbour array by target id, carrying
// any weights along, and sets SortedByTarget. This is the extra
// pre-processing step whose (absent) benefit is measured in Section 5.2.
// It is a measured pre-processing cost, so it runs vertex-parallel and
// sorts with direct dual-slice routines instead of sort.Sort's
// interface-dispatched comparisons. It uses all CPUs; use
// SortNeighborsParallel to bound the parallelism.
func (a *Adjacency) SortNeighbors() { a.SortNeighborsParallel(0) }

// SortNeighborsParallel is SortNeighbors with an explicit worker bound
// (workers<=0 selects all CPUs). internal/prep routes its builds through
// this so the measured pre-processing honours the configured parallelism.
func (a *Adjacency) SortNeighborsParallel(workers int) {
	sched.ParallelFor(0, a.NumVertices, workers, func(v int) {
		lo, hi := a.Index[v], a.Index[v+1]
		switch {
		case hi-lo < 2:
		case a.Weights == nil:
			slices.Sort(a.Targets[lo:hi])
		default:
			sortNeighborSpan(a.Targets[lo:hi], a.Weights[lo:hi])
		}
	})
	a.SortedByTarget = true
}

// insertionSortCutoff is the span length below which neighbour sorting uses
// insertion sort; most per-vertex neighbour lists are short, so this is the
// common case.
const insertionSortCutoff = 16

// sortNeighborSpan sorts nb ascending, applying the same permutation to w.
// Plain quicksort (median-of-three pivot) with an insertion-sort base case;
// recursion always descends into the smaller half so the stack depth is
// O(log n) even on adversarial inputs.
func sortNeighborSpan(nb []VertexID, w []Weight) {
	for len(nb) > insertionSortCutoff {
		p := partitionNeighbors(nb, w)
		if p < len(nb)-p-1 {
			sortNeighborSpan(nb[:p], w[:p])
			nb, w = nb[p+1:], w[p+1:]
		} else {
			sortNeighborSpan(nb[p+1:], w[p+1:])
			nb, w = nb[:p], w[:p]
		}
	}
	// Insertion sort for the base case.
	for i := 1; i < len(nb); i++ {
		tv, tw := nb[i], w[i]
		j := i - 1
		for j >= 0 && nb[j] > tv {
			nb[j+1], w[j+1] = nb[j], w[j]
			j--
		}
		nb[j+1], w[j+1] = tv, tw
	}
}

// partitionNeighbors performs a Hoare-style median-of-three partition and
// returns the final pivot position.
func partitionNeighbors(nb []VertexID, w []Weight) int {
	n := len(nb)
	mid, last := n/2, n-1
	// Median-of-three: order nb[0], nb[mid], nb[last], then use nb[mid] as
	// the pivot, parked at position last-1.
	if nb[mid] < nb[0] {
		nb[mid], nb[0] = nb[0], nb[mid]
		w[mid], w[0] = w[0], w[mid]
	}
	if nb[last] < nb[0] {
		nb[last], nb[0] = nb[0], nb[last]
		w[last], w[0] = w[0], w[last]
	}
	if nb[last] < nb[mid] {
		nb[last], nb[mid] = nb[mid], nb[last]
		w[last], w[mid] = w[mid], w[last]
	}
	nb[mid], nb[last-1] = nb[last-1], nb[mid]
	w[mid], w[last-1] = w[last-1], w[mid]
	pivot := nb[last-1]
	i, j := 0, last-1
	for {
		i++
		for nb[i] < pivot {
			i++
		}
		j--
		for nb[j] > pivot {
			j--
		}
		if i >= j {
			break
		}
		nb[i], nb[j] = nb[j], nb[i]
		w[i], w[j] = w[j], w[i]
	}
	nb[i], nb[last-1] = nb[last-1], nb[i]
	w[i], w[last-1] = w[last-1], w[i]
	return i
}

// Edges reconstructs the (src,dst,weight) triples represented by the CSR,
// interpreting it as an out-adjacency (weight 1 where Weights is nil). Used
// by tests to check that builders preserve the edge multiset.
func (a *Adjacency) Edges() []Edge {
	out := make([]Edge, 0, len(a.Targets))
	for v := 0; v < a.NumVertices; v++ {
		ws := a.NeighborWeights(VertexID(v))
		for i, t := range a.Neighbors(VertexID(v)) {
			out = append(out, Edge{Src: VertexID(v), Dst: t, W: ws[i]})
		}
	}
	return out
}
