package prep

// The radix builder: an MSD partition followed by a per-bucket counting
// pass, three trips over the data in all.
//
//  1. One read of the input fills, for each of a few contiguous chunks, a
//     histogram of the key's high bits, rejects any endpoint outside
//     [0, numVertices), and notes whether any weight differs from 1 (only
//     then is Weights allocated). This read is the only part of the build
//     that could run while the input is still arriving from storage.
//  2. A prefix sum in (bucket-major, chunk-minor) order gives every
//     (chunk, bucket) pair its output window, and the chunks scatter their
//     edges into those windows in parallel. Each bucket then holds the edges
//     of one contiguous vertex range, in input order, as records of the
//     key's low bits and the other end — 8 bytes an edge, or 12 with the
//     weight's bits when the build has weights.
//  3. Buckets are processed in parallel. A bucket's vertex range is small
//     enough (at most 2^12 vertices for up to 2^24 keys) that its counters
//     stay in the L1 cache: count the bucket's records per vertex, turn the
//     counts into offsets — which are the CSR Index entries of that range —
//     and place every target (and weight) at its final position.
//
// Both scatters keep edges with equal keys in input order, so the result is
// the one a stable sort by key produces. The second scatter writes Targets
// and Weights directly: no sorted edge array exists at any point, and none
// has to be scanned for key boundaries or split into columns afterwards.

import (
	"math"
	"math/bits"
	"slices"

	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/sched"
)

const (
	// bucketVertexBits bounds a bucket's vertex range so that its 2^12
	// cursors (32 KB) stay in the L1 cache during the second scatter.
	bucketVertexBits = 12
	// maxBucketBits caps the first scatter at 4096 output streams; beyond
	// 2^24 keys the buckets' vertex ranges grow instead.
	maxBucketBits = 12
	// minBucketBits asks for 64 buckets where there are that many vertices,
	// so that the bucket-parallel pass has work to share out.
	minBucketBits = 6
	// chunksPerWorker is how many input chunks each worker gets on average,
	// so that a worker that falls behind can leave chunks to the others.
	chunksPerWorker = 4
	// minChunkEdges keeps the per-chunk histograms small next to the chunks.
	minChunkEdges = 4096
)

// buildRadixSort builds the CSR adjacency keyed by source (or destination,
// if byDst) as described at the top of this file. edges is only read.
func buildRadixSort(edges []graph.Edge, numVertices int, byDst bool, workers int) (*graph.Adjacency, error) {
	m := len(edges)
	if m == 0 {
		return &graph.Adjacency{Index: make([]uint64, numVertices+1), Targets: []graph.VertexID{}, NumVertices: numVertices}, nil
	}
	if workers <= 0 {
		workers = sched.MaxWorkers()
	}
	// The key splits into a bucket id (high bits) and a vertex within the
	// bucket (low bits).
	maxKey := max(numVertices, 1) - 1
	keyBits := bits.Len(uint(maxKey))
	lowBits := max(min(keyBits-minBucketBits, bucketVertexBits), keyBits-maxBucketBits, 0)
	numBuckets := maxKey>>lowBits + 1

	numChunks := min(workers*chunksPerWorker, (m+minChunkEdges-1)/minChunkEdges)
	chunkSize := (m + numChunks - 1) / numChunks
	chunk := func(c int) []graph.Edge { return edges[c*chunkSize : min((c+1)*chunkSize, m)] }

	// 1. Per-chunk histograms of the bucket id, the range and weight checks.
	hist := make([]uint64, numChunks*numBuckets)
	bad := make([]int, numChunks) // first out-of-range edge of the chunk, or -1
	heavy := make([]bool, numChunks)
	sched.ParallelForChunked(0, numChunks, 1, workers, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			h := hist[c*numBuckets : (c+1)*numBuckets]
			bad[c] = -1
			weighted := false
			for i, e := range chunk(c) {
				if int(e.Src) >= numVertices || int(e.Dst) >= numVertices {
					bad[c] = c*chunkSize + i
					break
				}
				h[edgeKey(e, byDst)>>lowBits]++
				weighted = weighted || e.W != 1
			}
			heavy[c] = weighted
		}
	})
	for _, i := range bad {
		if i >= 0 {
			return nil, rangeError(edges, i, numVertices)
		}
	}

	// Output windows of the (chunk, bucket) pairs, in place in hist.
	bucketStart := make([]uint64, numBuckets+1)
	var running uint64
	for b := 0; b < numBuckets; b++ {
		bucketStart[b] = running
		for c := 0; c < numChunks; c++ {
			v := hist[c*numBuckets+b]
			hist[c*numBuckets+b] = running
			running += v
		}
	}
	bucketStart[numBuckets] = running

	adj := &graph.Adjacency{
		Index:       make([]uint64, numVertices+1),
		Targets:     make([]graph.VertexID, m),
		NumVertices: numVertices,
	}
	if slices.Contains(heavy, true) {
		adj.Weights = make([]graph.Weight, m)
		scatterAndPlace[[3]uint32](adj, edges, byDst, workers, uint(lowBits), chunkSize, hist, bucketStart)
	} else {
		scatterAndPlace[[2]uint32](adj, edges, byDst, workers, uint(lowBits), chunkSize, hist, bucketStart)
	}
	adj.Index[numVertices] = uint64(m)
	return adj, nil
}

// bucketRecord is an edge as the buckets hold it: the key's low bits, the
// other end and, last and only in a weighted build, the weight's bits. len is
// constant per instantiation, so the [2]uint32 one compiles the weight away.
// Records are accessed in place: a copy of one would go through the stack.
type bucketRecord interface{ [2]uint32 | [3]uint32 }

// scatterAndPlace runs passes 2 and 3 on records of type R: the partition of
// the edges into their buckets, through the (chunk, bucket) windows of pass
// 1, then the counting sort of every bucket into adj.
func scatterAndPlace[R bucketRecord](adj *graph.Adjacency, edges []graph.Edge, byDst bool, workers int, lowBits uint, chunkSize int, windows, bucketStart []uint64) {
	m, numBuckets := len(edges), len(bucketStart)-1
	mask := graph.VertexID(1)<<lowBits - 1

	// 2. The stable partition into buckets.
	buckets := make([]R, m)
	sched.ParallelForChunked(0, len(windows)/numBuckets, 1, workers, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			next := windows[c*numBuckets : (c+1)*numBuckets]
			for _, e := range edges[c*chunkSize : min((c+1)*chunkSize, m)] {
				k, t := e.Src, e.Dst
				if byDst {
					k, t = t, k
				}
				b := k >> lowBits
				r := &buckets[next[b]]
				next[b]++
				(*r)[0], (*r)[1] = k&mask, t
				if len(*r) > 2 {
					(*r)[len(*r)-1] = math.Float32bits(e.W)
				}
			}
		}
	})

	// 3. Per bucket: count, offsets (= Index), place.
	cursors := make([]uint64, workers<<lowBits)
	sched.ParallelForWorker(0, numBuckets, 1, workers, func(w, lo, hi int) {
		cur := cursors[w<<lowBits : (w+1)<<lowBits]
		for b := lo; b < hi; b++ {
			bucket := buckets[bucketStart[b]:bucketStart[b+1]]
			clear(cur)
			for i := range bucket {
				cur[bucket[i][0]]++
			}
			pos := bucketStart[b]
			index := adj.Index[b<<lowBits : min((b+1)<<lowBits, adj.NumVertices)]
			for v := range index {
				index[v] = pos
				cur[v], pos = pos, pos+cur[v]
			}
			for i := range bucket {
				r := &bucket[i]
				at := cur[(*r)[0]]
				cur[(*r)[0]]++
				adj.Targets[at] = (*r)[1]
				if len(*r) > 2 {
					adj.Weights[at] = math.Float32frombits((*r)[len(*r)-1])
				}
			}
		}
	})
}
