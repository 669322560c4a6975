package numa

import (
	"fmt"

	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/sched"
)

// Partition assigns every vertex to a NUMA node. The Polymer/Gemini scheme
// (Section 7.1) splits the vertex space into as many contiguous ranges as
// there are nodes, balancing vertices and edges, and colocates each edge
// with its *target* vertex so that push-mode updates write locally.
type Partition struct {
	// Nodes is the number of NUMA nodes.
	Nodes int
	// Bounds has Nodes+1 entries; node k owns vertices
	// [Bounds[k], Bounds[k+1]).
	Bounds []graph.VertexID
	// Interleaved marks round-robin placement (no contiguous ownership); in
	// that case Bounds is nil and NodeOf hashes the vertex id.
	Interleaved bool
	// VerticesPerNode and EdgesPerNode record the balance achieved by the
	// partitioner (diagnostics and tests).
	VerticesPerNode []int
	EdgesPerNode    []int
}

// NodeOf returns the node owning vertex v.
func (p *Partition) NodeOf(v graph.VertexID) int {
	if p.Interleaved {
		return int(v) % p.Nodes
	}
	// Binary search over the bounds (Nodes is tiny, linear is fine).
	for k := 0; k < p.Nodes; k++ {
		if v < p.Bounds[k+1] {
			return k
		}
	}
	return p.Nodes - 1
}

// Interleave builds the baseline placement that spreads vertices across
// nodes round-robin, the "inter." configuration of Figures 9 and 10.
func Interleave(numVertices, nodes int) *Partition {
	if nodes < 1 {
		nodes = 1
	}
	p := &Partition{
		Nodes:           nodes,
		Interleaved:     true,
		VerticesPerNode: make([]int, nodes),
		EdgesPerNode:    make([]int, nodes),
	}
	for v := 0; v < numVertices; v++ {
		p.VerticesPerNode[v%nodes]++
	}
	return p
}

// PartitionGemini builds the NUMA-aware placement of Polymer/Gemini: the
// vertex space is cut into `nodes` contiguous ranges chosen so that every
// range holds roughly the same number of *incoming* edges (edges are
// colocated with their target vertices), while also bounding the vertex
// imbalance. The returned partition records the achieved balance.
func PartitionGemini(g *graph.Graph, nodes int) (*Partition, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("numa: invalid node count %d", nodes)
	}
	n := g.NumVertices()
	if n == 0 {
		return nil, fmt.Errorf("numa: cannot partition an empty graph")
	}
	inDeg := g.EdgeArray.InDegrees()

	totalEdges := g.NumEdges()
	targetEdges := (totalEdges + nodes - 1) / nodes

	bounds := make([]graph.VertexID, nodes+1)
	verticesPer := make([]int, nodes)
	edgesPer := make([]int, nodes)

	node := 0
	acc := 0
	for v := 0; v < n; v++ {
		if node < nodes-1 && acc >= targetEdges {
			bounds[node+1] = graph.VertexID(v)
			node++
			acc = 0
		}
		acc += int(inDeg[v])
		verticesPer[node]++
		edgesPer[node] += int(inDeg[v])
	}
	bounds[nodes] = graph.VertexID(n)
	// Any nodes that received no range (very small graphs) get empty ranges
	// at the end; fill their bounds.
	for k := node + 1; k < nodes; k++ {
		bounds[k] = graph.VertexID(n)
	}

	return &Partition{
		Nodes:           nodes,
		Bounds:          bounds,
		VerticesPerNode: verticesPer,
		EdgesPerNode:    edgesPer,
	}, nil
}

// NodeSubgraphs holds the per-node edge sets built during NUMA-aware
// pre-processing. Building them is the "Partitioning" cost segment of
// Figures 9 and 10: it is a second pre-processing pass of the same order of
// magnitude as adjacency-list construction.
type NodeSubgraphs struct {
	// Partition is the placement the subgraphs were built for.
	Partition *Partition
	// InEdges[k] holds the edges whose destination is owned by node k
	// (the Polymer/Gemini colocation rule), grouped so that node k's
	// workers can process them locally.
	InEdges [][]graph.Edge
}

// BuildNodeSubgraphs materializes the per-node edge lists for a partition.
// This is real work (it scans and copies the whole edge array) and is what
// the benchmarks time as the partitioning cost of Figures 9 and 10. The
// copy uses the same chunked-histogram-and-scatter structure as the radix
// builder so the partitioning cost reflects an efficient implementation,
// exactly as Polymer and Gemini implement it.
func BuildNodeSubgraphs(g *graph.Graph, p *Partition, workers int) *NodeSubgraphs {
	nodes := p.Nodes
	edges := g.EdgeArray.Edges
	sub := &NodeSubgraphs{Partition: p, InEdges: make([][]graph.Edge, nodes)}
	if len(edges) == 0 {
		for k := 0; k < nodes; k++ {
			sub.InEdges[k] = nil
		}
		return sub
	}

	if workers <= 0 {
		workers = sched.MaxWorkers()
	}
	chunkSize := (len(edges) + workers - 1) / workers
	numChunks := (len(edges) + chunkSize - 1) / chunkSize

	// Per-chunk histogram over nodes.
	counts := make([][]int64, numChunks)
	sched.ParallelForChunked(0, numChunks, 1, workers, func(cLo, cHi int) {
		for c := cLo; c < cHi; c++ {
			cnt := make([]int64, nodes)
			lo := c * chunkSize
			hi := lo + chunkSize
			if hi > len(edges) {
				hi = len(edges)
			}
			for i := lo; i < hi; i++ {
				cnt[p.NodeOf(edges[i].Dst)]++
			}
			counts[c] = cnt
		}
	})

	// Exclusive scan in (node-major, chunk-minor) order gives each chunk a
	// private output window per node, so the scatter needs no atomics.
	totals := make([]int64, nodes)
	var running int64
	for k := 0; k < nodes; k++ {
		start := running
		for c := 0; c < numChunks; c++ {
			v := counts[c][k]
			counts[c][k] = running - start
			running += v
		}
		totals[k] = running - start
	}
	for k := 0; k < nodes; k++ {
		sub.InEdges[k] = make([]graph.Edge, totals[k])
	}

	sched.ParallelForChunked(0, numChunks, 1, workers, func(cLo, cHi int) {
		for c := cLo; c < cHi; c++ {
			offs := counts[c]
			lo := c * chunkSize
			hi := lo + chunkSize
			if hi > len(edges) {
				hi = len(edges)
			}
			for i := lo; i < hi; i++ {
				k := p.NodeOf(edges[i].Dst)
				sub.InEdges[k][offs[k]] = edges[i]
				offs[k]++
			}
		}
	})
	return sub
}

// LocalEdgeFraction returns the fraction of edges whose source and
// destination are owned by the same node — the quantity that determines the
// average access latency under NUMA-aware placement.
func LocalEdgeFraction(g *graph.Graph, p *Partition) float64 {
	if g.NumEdges() == 0 {
		return 1
	}
	local := 0
	for _, e := range g.EdgeArray.Edges {
		if p.NodeOf(e.Src) == p.NodeOf(e.Dst) {
			local++
		}
	}
	return float64(local) / float64(g.NumEdges())
}

// AccessLocalFraction estimates the fraction of memory accesses that are
// served by the local node under the Polymer/Gemini placement. Processing
// one edge touches three streams: the edge record itself and the destination
// vertex's metadata (both colocated with the destination's node, hence local
// to the worker that owns that node's partition) and the source vertex's
// metadata (local only when the source lives on the same node). Interleaved
// placement, by contrast, serves only 1/Nodes of all three streams locally.
func AccessLocalFraction(g *graph.Graph, p *Partition) float64 {
	return (2 + LocalEdgeFraction(g, p)) / 3
}
