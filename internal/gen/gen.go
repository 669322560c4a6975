// Package gen generates the datasets of Table 1. The original study uses
// two real-world graphs (the Twitter follower graph and the DIMACS US-Road
// graph), the synthetic RMAT family and the Netflix bipartite rating graph.
// The real datasets are not redistributable and are far larger than what a
// test environment can hold, so this package provides generators whose
// outputs have the structural properties that drive the paper's
// conclusions:
//
//   - RMAT/Kronecker power-law graphs of configurable scale (the paper's
//     RMAT-N family: 2^N vertices, 2^(N+4) edges);
//   - a "Twitter profile": an RMAT graph with the skew parameters commonly
//     used to model the Twitter follower graph (the paper itself notes the
//     Twitter graph "has a degree distribution similar to that of RMAT and
//     benefits from the same approaches");
//   - a road-network profile: a 2-D lattice with sparse diagonal shortcuts,
//     giving the high diameter and uniformly small degrees that
//     characterize the US-Road graph;
//   - a bipartite rating graph with Zipf-distributed item popularity,
//     standing in for the Netflix dataset used by ALS.
//
// All generators are deterministic for a given seed.
package gen

import (
	"math/rand"

	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/sched"
)

// RMATParams are the recursive-matrix quadrant probabilities (a,b,c,d with
// a+b+c+d=1) of the RMAT model (Chakrabarti et al.).
type RMATParams struct {
	A, B, C float64 // D is 1-A-B-C
}

// DefaultRMAT are the canonical Graph500/RMAT parameters used for the
// paper's synthetic datasets.
var DefaultRMAT = RMATParams{A: 0.57, B: 0.19, C: 0.19}

// RMATOptions configures the RMAT generator.
type RMATOptions struct {
	// Scale is the log2 of the number of vertices (RMAT-N in the paper).
	Scale int
	// EdgeFactor is the number of edges per vertex; the paper's RMAT-N has
	// 2^(N+4) edges, i.e. an edge factor of 16.
	EdgeFactor int
	// Params are the quadrant probabilities.
	Params RMATParams
	// Seed makes the generation deterministic.
	Seed int64
	// Weighted attaches uniform random weights in [1, 64) to edges;
	// unweighted graphs get weight 1.
	Weighted bool
	// Workers bounds generation parallelism (0 = all CPUs).
	Workers int
}

// RMAT generates a directed power-law graph with 2^Scale vertices and
// 2^Scale*EdgeFactor edges.
func RMAT(opt RMATOptions) *graph.Graph {
	if opt.EdgeFactor <= 0 {
		opt.EdgeFactor = 16
	}
	if opt.Params == (RMATParams{}) {
		opt.Params = DefaultRMAT
	}
	n := 1 << opt.Scale
	m := n * opt.EdgeFactor
	edges := make([]graph.Edge, m)

	workers := opt.Workers
	if workers <= 0 {
		workers = sched.MaxWorkers()
	}
	cuts := newRMATCuts(opt.Params)
	sched.ParallelForWorker(0, m, rmatChunk, workers, func(worker, lo, hi int) {
		fillRMATRange(edges[lo:hi], lo, opt, cuts)
	})
	return graph.New(edges, n, true)
}

// rmatChunk is the RMAT generation granularity: every generator path —
// parallel materializing, serial fallback, streaming — seeds an independent
// rng per rmatChunk-aligned chunk, which makes the output identical edge
// for edge regardless of worker count, scheduling, or streaming.
const rmatChunk = 1 << 14

// fillRMATRange deterministically generates the RMAT edges with indices
// [lo, lo+len(dst)) into dst. lo must be rmatChunk-aligned; the range may
// span several chunks (a single-worker run covers the whole edge set in
// one call) and is reseeded at every chunk boundary so the sequence never
// depends on how the range was split.
//
// Each edge descends the recursive matrix Scale times, from the top bit
// down. A level draws x from the chunk's source and takes the quadrant
// q = [x >= a] + [x >= ab] + [x >= abc] of the cut points c: 0 is the
// top-left quadrant (no bit), 1 top-right (destination bit), 2 bottom-left
// (source bit), 3 bottom-right (both). The three tests are sign bits of
// cut-1-x, so the descent has no branch on the draw but the resample that
// Float64 takes when its value rounds to 1. Each test is exactly the test
// rand.Float64() >= p of the same draw (see rmatCut), and the weights come
// from a Rand over the same source, so the edges are bit for bit those of
// the textbook descent that compares Float64 against A, A+B and A+B+C in
// turn (gen_test.go keeps it as the reference).
func fillRMATRange(dst []graph.Edge, lo int, opt RMATOptions, c rmatCuts) {
	for len(dst) > 0 {
		n := rmatChunk
		if n > len(dst) {
			n = len(dst)
		}
		source := rand.NewSource(opt.Seed ^ int64(uint64(lo)*0x9e3779b97f4a7c15))
		rng := rand.New(source)
		for i := 0; i < n; i++ {
			var src, dstV uint32
			for level := 0; level < opt.Scale; level++ {
				x := uint64(source.Int63())
				for x >= c.one {
					x = uint64(source.Int63())
				}
				q := (c.a-1-x)>>63 + (c.ab-1-x)>>63 + (c.abc-1-x)>>63
				src = src<<1 | uint32(q>>1)
				dstV = dstV<<1 | uint32(q&1)
			}
			w := graph.Weight(1)
			if opt.Weighted {
				w = graph.Weight(1 + rng.Intn(63))
			}
			dst[i] = graph.Edge{Src: src, Dst: dstV, W: w}
		}
		dst = dst[n:]
		lo += n
	}
}

// rmatCuts are the cut points of the cumulative quadrant probabilities A,
// A+B and A+B+C, and of 1, on the source's 63-bit draws.
type rmatCuts struct{ a, ab, abc, one uint64 }

// newRMATCuts sums the probabilities in float64 in the order the float
// descent does. Raising each cut to at least the one before keeps the
// descent's first-match order for parameters whose sums are not
// increasing (a negative B or C).
func newRMATCuts(p RMATParams) rmatCuts {
	ab := p.A + p.B
	c := rmatCuts{a: rmatCut(p.A), ab: rmatCut(ab), abc: rmatCut(ab + p.C), one: rmatCut(1)}
	c.ab = max(c.ab, c.a)
	c.abc = max(c.abc, c.ab)
	return c
}

// rmatCut is the number of 63-bit draws x whose Float64 value
// float64(x)/(1<<63) is below p, so rand.Float64() < p holds exactly when
// the draw it came from is below the cut; Float64 resamples exactly the
// draws at or above rmatCut(1). The value is monotone in x, so a binary
// search over that exact conversion finds the cut in 63 steps. It is 0
// for p <= 0 or NaN and 1<<63 for p > 1.
func rmatCut(p float64) uint64 {
	lo, hi := uint64(0), uint64(1)<<63
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(int64(mid))/(1<<63) < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TwitterProfileOptions configures the Twitter-like generator.
type TwitterProfileOptions struct {
	// Scale is the log2 of the number of vertices.
	Scale int
	// EdgeFactor defaults to 24, approximating the Twitter graph's average
	// degree (1468M edges / 62M vertices ≈ 23.7).
	EdgeFactor int
	Seed       int64
	Weighted   bool
	Workers    int
}

// TwitterProfile generates a directed graph with Twitter-like skew: an RMAT
// graph with a higher edge factor and stronger hub concentration than the
// default RMAT family.
func TwitterProfile(opt TwitterProfileOptions) *graph.Graph {
	ef := opt.EdgeFactor
	if ef <= 0 {
		ef = 24
	}
	return RMAT(RMATOptions{
		Scale:      opt.Scale,
		EdgeFactor: ef,
		Params:     RMATParams{A: 0.6, B: 0.19, C: 0.15},
		Seed:       opt.Seed,
		Weighted:   opt.Weighted,
		Workers:    opt.Workers,
	})
}

// RoadOptions configures the road-network generator.
type RoadOptions struct {
	// Width and Height are the lattice dimensions; the graph has
	// Width*Height vertices.
	Width, Height int
	// ShortcutFraction is the fraction of vertices that get one extra
	// diagonal edge, mimicking highways; 0 keeps the pure lattice.
	ShortcutFraction float64
	Seed             int64
	Weighted         bool
}

// roadRegionsPerSide is the number of region tiles per lattice dimension
// used by the road generator's vertex numbering (16 regions in total).
const roadRegionsPerSide = 4

// Road generates an undirected high-diameter, low-degree graph shaped like
// a road network: a Width x Height lattice where every vertex connects to
// its right and down neighbours (each stored once; the engine treats the
// dataset as undirected), plus optional diagonal shortcuts. Degrees are at
// most 5 and the diameter is on the order of Width+Height, matching the
// US-Road graph's structural profile.
//
// Vertex ids are assigned region by region (a 4x4 tiling of the lattice),
// mirroring the regional ordering of the DIMACS/TIGER road data, where
// vertices of the same geographic area have nearby ids. This keeps locality
// realistic: a traversal's wavefront sweeping the map touches vertex ids
// that are mostly close together, so its metadata accesses cluster the way
// they do on the real road graphs.
func Road(opt RoadOptions) *graph.Graph {
	if opt.Width <= 0 {
		opt.Width = 256
	}
	if opt.Height <= 0 {
		opt.Height = 256
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	n := opt.Width * opt.Height
	// The lattice has 2n-W-H edges and at most (W-1)(H-1) shortcuts, so
	// the array is never regrown.
	edges := make([]graph.Edge, 0, 2*n-opt.Width-opt.Height+(opt.Width-1)*(opt.Height-1))
	id := roadVertexNumbering(opt.Width, opt.Height)
	weight := func() graph.Weight {
		if opt.Weighted {
			return graph.Weight(1 + rng.Intn(9))
		}
		return 1
	}
	for y := 0; y < opt.Height; y++ {
		for x := 0; x < opt.Width; x++ {
			if x+1 < opt.Width {
				edges = append(edges, graph.Edge{Src: id(x, y), Dst: id(x+1, y), W: weight()})
			}
			if y+1 < opt.Height {
				edges = append(edges, graph.Edge{Src: id(x, y), Dst: id(x, y+1), W: weight()})
			}
			if opt.ShortcutFraction > 0 && x+1 < opt.Width && y+1 < opt.Height && rng.Float64() < opt.ShortcutFraction {
				edges = append(edges, graph.Edge{Src: id(x, y), Dst: id(x+1, y+1), W: weight()})
			}
		}
	}
	return graph.New(edges, n, false)
}

// roadVertexNumbering returns the (x, y) -> vertex-id mapping used by Road:
// ids are dense in [0, Width*Height) and assigned tile by tile over a 4x4
// region grid, row-major within each tile. The top-left cell gets id 0 and
// the bottom-right cell gets the largest id.
func roadVertexNumbering(width, height int) func(x, y int) graph.VertexID {
	tileW := (width + roadRegionsPerSide - 1) / roadRegionsPerSide
	tileH := (height + roadRegionsPerSide - 1) / roadRegionsPerSide
	ids := make([]graph.VertexID, width*height)
	next := graph.VertexID(0)
	for tileRow := 0; tileRow < roadRegionsPerSide; tileRow++ {
		for tileCol := 0; tileCol < roadRegionsPerSide; tileCol++ {
			for y := tileRow * tileH; y < (tileRow+1)*tileH && y < height; y++ {
				for x := tileCol * tileW; x < (tileCol+1)*tileW && x < width; x++ {
					ids[y*width+x] = next
					next++
				}
			}
		}
	}
	return func(x, y int) graph.VertexID { return ids[y*width+x] }
}

// BipartiteOptions configures the rating-graph generator used for ALS.
type BipartiteOptions struct {
	// Users is the number of left-side vertices (ids 0..Users-1).
	Users int
	// Items is the number of right-side vertices (ids Users..Users+Items-1).
	Items int
	// RatingsPerUser is the average number of ratings per user.
	RatingsPerUser int
	// ZipfS controls item-popularity skew (>1; larger is more skewed).
	ZipfS float64
	Seed  int64
}

// Bipartite generates a bipartite rating graph: every edge goes from a user
// to an item and carries a rating in [1,5]. Item popularity follows a Zipf
// distribution, mirroring the Netflix dataset's skew.
func Bipartite(opt BipartiteOptions) *graph.Graph {
	if opt.Users <= 0 {
		opt.Users = 1024
	}
	if opt.Items <= 0 {
		opt.Items = 256
	}
	if opt.RatingsPerUser <= 0 {
		opt.RatingsPerUser = 16
	}
	if opt.ZipfS <= 1 {
		opt.ZipfS = 1.2
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	zipf := rand.NewZipf(rng, opt.ZipfS, 1, uint64(opt.Items-1))
	n := opt.Users + opt.Items
	edges := make([]graph.Edge, 0, opt.Users*opt.RatingsPerUser)
	for u := 0; u < opt.Users; u++ {
		// Poisson-ish spread around the mean keeps user degrees varied.
		k := opt.RatingsPerUser/2 + rng.Intn(opt.RatingsPerUser+1)
		seen := make(map[uint64]struct{}, k)
		for j := 0; j < k; j++ {
			item := zipf.Uint64()
			if _, dup := seen[item]; dup {
				continue
			}
			seen[item] = struct{}{}
			rating := graph.Weight(1 + rng.Intn(5))
			edges = append(edges, graph.Edge{
				Src: graph.VertexID(u),
				Dst: graph.VertexID(opt.Users + int(item)),
				W:   rating,
			})
		}
	}
	return graph.New(edges, n, false)
}

// UniformOptions configures the uniform random-graph generator (used by
// tests as an un-skewed contrast to RMAT).
type UniformOptions struct {
	NumVertices int
	NumEdges    int
	Seed        int64
	Weighted    bool
}

// Uniform generates a directed Erdős–Rényi-style graph with edges drawn
// uniformly at random.
func Uniform(opt UniformOptions) *graph.Graph {
	if opt.NumVertices <= 0 {
		opt.NumVertices = 1024
	}
	if opt.NumEdges <= 0 {
		opt.NumEdges = opt.NumVertices * 8
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	edges := make([]graph.Edge, opt.NumEdges)
	for i := range edges {
		w := graph.Weight(1)
		if opt.Weighted {
			w = graph.Weight(1 + rng.Intn(63))
		}
		edges[i] = graph.Edge{
			Src: graph.VertexID(rng.Intn(opt.NumVertices)),
			Dst: graph.VertexID(rng.Intn(opt.NumVertices)),
			W:   w,
		}
	}
	return graph.New(edges, opt.NumVertices, true)
}
