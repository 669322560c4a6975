package prep

// The radix builder: an MSD partition followed by a per-bucket counting
// pass, three trips over the data in all.
//
//  1. One read of the input fills, for each of a few contiguous chunks, a
//     histogram of the key's high bits, and rejects any endpoint outside
//     [0, numVertices). This read is the only part of the build that could
//     run while the input is still arriving from storage.
//  2. A prefix sum in (bucket-major, chunk-minor) order gives every
//     (chunk, bucket) pair its output window, and the chunks scatter their
//     edges into those windows in parallel. Each bucket then holds the edges
//     of one contiguous vertex range, in input order. The scatter is skipped
//     when a single bucket holds every edge: the input is that bucket.
//  3. Buckets are processed in parallel. A bucket's vertex range is small
//     enough (at most 2^12 vertices for up to 2^24 keys) that its counters
//     stay in the L1 cache: count the bucket's edges per vertex, turn the
//     counts into offsets — which are the CSR Index entries of that range —
//     and place every target and weight at its final position.
//
// Both scatters keep edges with equal keys in input order, so the result is
// the one a stable sort by key produces. The second scatter writes Targets
// and Weights directly: no sorted edge array exists at any point, and none
// has to be scanned for key boundaries or split into columns afterwards.

import (
	"math/bits"

	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/sched"
)

// radixDigitBits is the digit width of the paper's radix sort (256 buckets
// per pass).
const radixDigitBits = 8

// RadixPasses returns the number of passes an 8-bit-digit LSD radix sort
// needs for keys in [0, numVertices): log2(#vertices)/8, rounded up. It is
// the pass count of the paper's sort (Section 3.2), which the overlap model
// of Section 3.4 is stated in; the builder below makes at most two scatters
// whatever the key width.
func RadixPasses(numVertices int) int {
	if numVertices <= 1 {
		return 1
	}
	keyBits := bits.Len(uint(numVertices - 1))
	return (keyBits + radixDigitBits - 1) / radixDigitBits
}

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
	adj := &graph.Adjacency{
		Index:       make([]uint64, numVertices+1),
		Targets:     make([]graph.VertexID, m),
		Weights:     make([]graph.Weight, m),
		NumVertices: numVertices,
	}
	if m == 0 {
		return adj, nil
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

	// 1. Per-chunk histograms of the bucket id, and the range check.
	hist := make([]uint64, numChunks*numBuckets)
	bad := make([]int, numChunks) // first out-of-range edge of the chunk, or -1
	sched.ParallelForChunked(0, numChunks, 1, workers, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			h := hist[c*numBuckets : (c+1)*numBuckets]
			bad[c] = -1
			for i, e := range chunk(c) {
				if int(e.Src) >= numVertices || int(e.Dst) >= numVertices {
					bad[c] = c*chunkSize + i
					break
				}
				h[edgeKey(e, byDst)>>lowBits]++
			}
		}
	})
	for _, i := range bad {
		if i >= 0 {
			return nil, rangeError(edges, i, numVertices)
		}
	}

	// 2. Output windows, then the stable partition into buckets.
	bucketStart := make([]uint64, numBuckets+1)
	var running uint64
	single := false
	for b := 0; b < numBuckets; b++ {
		bucketStart[b] = running
		for c := 0; c < numChunks; c++ {
			v := hist[c*numBuckets+b]
			hist[c*numBuckets+b] = running
			running += v
		}
		single = single || running-bucketStart[b] == uint64(m)
	}
	bucketStart[numBuckets] = running
	buckets := edges
	if !single {
		buckets = make([]graph.Edge, m)
		sched.ParallelForChunked(0, numChunks, 1, workers, func(lo, hi int) {
			for c := lo; c < hi; c++ {
				next := hist[c*numBuckets : (c+1)*numBuckets]
				for _, e := range chunk(c) {
					b := edgeKey(e, byDst) >> lowBits
					buckets[next[b]] = e
					next[b]++
				}
			}
		})
	}

	// 3. Per bucket: count, offsets (= Index), place.
	mask := graph.VertexID(1)<<lowBits - 1
	cursors := make([]uint64, workers<<lowBits)
	sched.ParallelForWorker(0, numBuckets, 1, workers, func(w, lo, hi int) {
		cur := cursors[w<<lowBits : (w+1)<<lowBits]
		for b := lo; b < hi; b++ {
			bucket := buckets[bucketStart[b]:bucketStart[b+1]]
			clear(cur)
			for _, e := range bucket {
				cur[edgeKey(e, byDst)&mask]++
			}
			pos := bucketStart[b]
			index := adj.Index[b<<lowBits : min((b+1)<<lowBits, numVertices)]
			for v := range index {
				index[v] = pos
				cur[v], pos = pos, pos+cur[v]
			}
			for _, e := range bucket {
				k := edgeKey(e, byDst) & mask
				adj.Targets[cur[k]] = otherEnd(e, byDst)
				adj.Weights[cur[k]] = e.W
				cur[k]++
			}
		}
	})
	adj.Index[numVertices] = uint64(m)
	return adj, nil
}

// SortNeighborsParallel sorts every per-vertex edge array by neighbour id,
// in parallel over vertices. It implements the adjacency-list cache
// optimization evaluated (and found unhelpful) in Section 5.2. The sort
// itself lives with the CSR structure (graph.Adjacency.SortNeighborsParallel,
// a dual-slice quicksort with no sort.Sort interface dispatch); this
// wrapper is kept as the pre-processing entry point.
func SortNeighborsParallel(a *graph.Adjacency, workers int) {
	a.SortNeighborsParallel(workers)
}
