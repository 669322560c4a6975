package gen

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/epfl-repro/everythinggraph/internal/graph"
)

// edgeHash is FNV-1a 64 over each edge as little-endian Src, Dst and the
// bits of W, 12 bytes per edge.
func edgeHash(edges []graph.Edge) uint64 {
	h := fnv.New64a()
	var b [12]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint32(b[0:], e.Src)
		binary.LittleEndian.PutUint32(b[4:], e.Dst)
		binary.LittleEndian.PutUint32(b[8:], math.Float32bits(e.W))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestGeneratorsGolden pins the generators' output bytes: a generator
// change that moves one edge, endpoint or weight changes every workload
// built on it.
func TestGeneratorsGolden(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want uint64
	}{
		{"rmat-16", RMAT(RMATOptions{Scale: 16, EdgeFactor: 16, Seed: 1}), 0x62d9268c0963f864},
		{"twitter-12-weighted", TwitterProfile(TwitterProfileOptions{Scale: 12, Seed: 7, Weighted: true}), 0xf3f1117c2a609b6c},
		{"road-64-weighted", Road(RoadOptions{Width: 64, Height: 64, ShortcutFraction: 0.05, Seed: 3, Weighted: true}), 0xfa22b6f462cf11aa},
	}
	for _, c := range cases {
		if got := edgeHash(c.g.EdgeArray.Edges); got != c.want {
			t.Errorf("%s: edge hash %#x, want %#x", c.name, got, c.want)
		}
	}
}

// floatRMAT is the reference RMAT generator: the same chunk seeding as
// fillRMATRange, with each level's quadrant chosen by comparing
// rand.Float64 against A, A+B and A+B+C in turn.
func floatRMAT(opt RMATOptions) []graph.Edge {
	edges := make([]graph.Edge, (1<<opt.Scale)*opt.EdgeFactor)
	for lo := 0; lo < len(edges); lo += rmatChunk {
		rng := rand.New(rand.NewSource(opt.Seed ^ int64(uint64(lo)*0x9e3779b97f4a7c15)))
		for i := lo; i < min(lo+rmatChunk, len(edges)); i++ {
			src, dst := floatRMATEdge(rng, opt.Scale, opt.Params)
			w := graph.Weight(1)
			if opt.Weighted {
				w = graph.Weight(1 + rng.Intn(63))
			}
			edges[i] = graph.Edge{Src: src, Dst: dst, W: w}
		}
	}
	return edges
}

func floatRMATEdge(rng *rand.Rand, scale int, p RMATParams) (graph.VertexID, graph.VertexID) {
	var src, dst uint32
	a, b, c := p.A, p.B, p.C
	for bit := scale - 1; bit >= 0; bit-- {
		r := rng.Float64()
		switch {
		case r < a:
		case r < a+b:
			dst |= 1 << uint(bit)
		case r < a+b+c:
			src |= 1 << uint(bit)
		default:
			src |= 1 << uint(bit)
			dst |= 1 << uint(bit)
		}
	}
	return src, dst
}

// rmatCase is a random small RMAT configuration for testing/quick.
type rmatCase struct{ Opt RMATOptions }

// Generate draws quadrant probabilities that sum below 1, sum to within
// 1e-12 of 1 (on either side), have A = 0, or have a negative B; any seed,
// either weighting, 1 or 3 workers, scale 1 to 12.
func (rmatCase) Generate(r *rand.Rand, _ int) reflect.Value {
	p := RMATParams{A: r.Float64(), B: r.Float64(), C: r.Float64()}
	sum := p.A + p.B + p.C
	switch r.Intn(4) {
	case 0:
		sum += r.Float64()
	case 1:
		p.A = 0
		sum += r.Float64()
	case 2:
		p.B = -p.B / 4
	}
	p.A, p.B, p.C = p.A/sum, p.B/sum, p.C/sum+(2*r.Float64()-1)*1e-12
	return reflect.ValueOf(rmatCase{RMATOptions{
		Scale:      1 + r.Intn(12),
		EdgeFactor: 1 + r.Intn(9),
		Params:     p,
		Seed:       int64(r.Uint64()),
		Weighted:   r.Intn(2) == 0,
		Workers:    []int{1, 3}[r.Intn(2)],
	}})
}

// TestRMATMatchesFloatDescent: RMAT and StreamRMAT give the float
// descent's edges, bit for bit, for random parameters, seeds, weightings
// and worker counts.
func TestRMATMatchesFloatDescent(t *testing.T) {
	check := func(c rmatCase) bool {
		want := floatRMAT(c.Opt)
		if got := RMAT(c.Opt).EdgeArray.Edges; !reflect.DeepEqual(got, want) {
			t.Logf("RMAT differs from the float descent for %+v", c.Opt)
			return false
		}
		var streamed []graph.Edge
		if err := StreamRMAT(c.Opt, func(chunk []graph.Edge) error {
			streamed = append(streamed, chunk...)
			return nil
		}); err != nil || !reflect.DeepEqual(streamed, want) {
			t.Logf("StreamRMAT differs from the float descent for %+v (err %v)", c.Opt, err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	// The canonical parameter sets, and all four quadrants equal.
	for _, p := range []RMATParams{DefaultRMAT, {A: 0.6, B: 0.19, C: 0.15}, {A: 0.25, B: 0.25, C: 0.25}} {
		if !check(rmatCase{RMATOptions{Scale: 12, EdgeFactor: 5, Params: p, Seed: -3, Weighted: true, Workers: 3}}) {
			t.Fatalf("parameters %+v", p)
		}
	}
}

// TestRMATCut: below the cut of p a draw's Float64 value is below p, and at
// or above it, it is not, checked on the two draws either side of the
// cut.
func TestRMATCut(t *testing.T) {
	check := func(p float64) bool {
		cut := rmatCut(p)
		for d := -2; d <= 2; d++ {
			x := cut + uint64(d)
			if x >= 1<<63 { // outside the draws' range (or wrapped below 0)
				continue
			}
			if below := float64(int64(x))/(1<<63) < p; below != (x < cut) {
				t.Logf("p = %v, cut %d: draw %d gives below = %v", p, cut, x, below)
				return false
			}
		}
		return true
	}
	ps := []float64{0, -0.5, math.NaN(), math.SmallestNonzeroFloat64, 0x1p-63, 0x1p-62,
		0.15, 0.19, 0.25, 0.5, 0.57, 0.6, 0.76, 0.79, 0.95, 0.94,
		math.Nextafter(1, 0), 1 - 1e-12, 1, 1 + 1e-12, 2, math.Inf(1)}
	for _, p := range append(ps, DefaultRMAT.A+DefaultRMAT.B, DefaultRMAT.A+DefaultRMAT.B+DefaultRMAT.C) {
		if !check(p) {
			t.Fatalf("cut of %v", p)
		}
	}
	if err := quick.Check(func(u uint64) bool { return check(float64(u>>11) / (1 << 53)) }, nil); err != nil {
		t.Fatal(err)
	}
	if got := rmatCut(1); got != 1<<63-512 {
		t.Fatalf("cut of 1 = %d, want 2^63-512 (the draws whose Float64 value rounds to 1 are resampled)", got)
	}
}

func TestRMATSizesAndBounds(t *testing.T) {
	g := RMAT(RMATOptions{Scale: 10, EdgeFactor: 8, Seed: 1})
	if g.NumVertices() != 1024 {
		t.Fatalf("NumVertices = %d, want 1024", g.NumVertices())
	}
	if g.NumEdges() != 1024*8 {
		t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), 1024*8)
	}
	if err := g.EdgeArray.Validate(); err != nil {
		t.Fatalf("edges out of range: %v", err)
	}
	if !g.Directed {
		t.Fatal("RMAT graphs are directed")
	}
}

func TestRMATDeterministicForSeed(t *testing.T) {
	a := RMAT(RMATOptions{Scale: 8, EdgeFactor: 4, Seed: 99, Workers: 2})
	b := RMAT(RMATOptions{Scale: 8, EdgeFactor: 4, Seed: 99, Workers: 7})
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	for i := range a.EdgeArray.Edges {
		if a.EdgeArray.Edges[i] != b.EdgeArray.Edges[i] {
			t.Fatalf("edge %d differs across worker counts: %+v vs %+v", i, a.EdgeArray.Edges[i], b.EdgeArray.Edges[i])
		}
	}
	c := RMAT(RMATOptions{Scale: 8, EdgeFactor: 4, Seed: 100})
	same := true
	for i := range a.EdgeArray.Edges {
		if a.EdgeArray.Edges[i] != c.EdgeArray.Edges[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestRMATIsSkewed(t *testing.T) {
	// Power-law graphs concentrate a large share of edges on few vertices;
	// a uniform graph does not. Compare the max out-degree.
	rmat := RMAT(RMATOptions{Scale: 12, EdgeFactor: 8, Seed: 5})
	uni := Uniform(UniformOptions{NumVertices: 1 << 12, NumEdges: 8 << 12, Seed: 5})
	maxDeg := func(g *graph.Graph) uint32 {
		var m uint32
		for _, d := range g.EdgeArray.OutDegrees() {
			if d > m {
				m = d
			}
		}
		return m
	}
	if maxDeg(rmat) < 4*maxDeg(uni) {
		t.Fatalf("RMAT max degree %d not clearly more skewed than uniform %d", maxDeg(rmat), maxDeg(uni))
	}
}

func TestRMATWeighted(t *testing.T) {
	g := RMAT(RMATOptions{Scale: 8, EdgeFactor: 4, Seed: 3, Weighted: true})
	varied := false
	for _, e := range g.EdgeArray.Edges {
		if e.W < 1 || e.W >= 64 {
			t.Fatalf("weight %v out of range", e.W)
		}
		if e.W != g.EdgeArray.Edges[0].W {
			varied = true
		}
	}
	if !varied {
		t.Fatal("weights are all identical")
	}
}

func TestTwitterProfileDefaults(t *testing.T) {
	g := TwitterProfile(TwitterProfileOptions{Scale: 10, Seed: 2})
	if g.NumVertices() != 1024 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 1024*24 {
		t.Fatalf("NumEdges = %d, want %d (edge factor 24)", g.NumEdges(), 1024*24)
	}
}

func TestRoadShape(t *testing.T) {
	g := Road(RoadOptions{Width: 32, Height: 16, Seed: 1})
	if g.NumVertices() != 512 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	if g.Directed {
		t.Fatal("road graphs are undirected")
	}
	// Pure lattice edge count: horizontal (w-1)*h + vertical w*(h-1).
	want := (32-1)*16 + 32*(16-1)
	if g.NumEdges() != want {
		t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), want)
	}
	// Every vertex has total degree at most 4 in the pure lattice.
	out := g.EdgeArray.OutDegrees()
	in := g.EdgeArray.InDegrees()
	for v := range out {
		if out[v]+in[v] > 4 {
			t.Fatalf("vertex %d has lattice degree %d > 4", v, out[v]+in[v])
		}
	}
}

func TestRoadShortcutsAddEdges(t *testing.T) {
	plain := Road(RoadOptions{Width: 64, Height: 64, Seed: 1})
	shortcut := Road(RoadOptions{Width: 64, Height: 64, Seed: 1, ShortcutFraction: 0.2})
	if shortcut.NumEdges() <= plain.NumEdges() {
		t.Fatalf("shortcuts did not add edges: %d vs %d", shortcut.NumEdges(), plain.NumEdges())
	}
}

func TestRoadWeighted(t *testing.T) {
	g := Road(RoadOptions{Width: 16, Height: 16, Seed: 1, Weighted: true})
	for _, e := range g.EdgeArray.Edges {
		if e.W < 1 || e.W > 9 {
			t.Fatalf("weight %v out of range", e.W)
		}
	}
}

func TestBipartiteEdgesCrossSides(t *testing.T) {
	g := Bipartite(BipartiteOptions{Users: 100, Items: 20, RatingsPerUser: 8, Seed: 6})
	if g.NumVertices() != 120 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	for _, e := range g.EdgeArray.Edges {
		if int(e.Src) >= 100 {
			t.Fatalf("edge source %d is not a user", e.Src)
		}
		if int(e.Dst) < 100 {
			t.Fatalf("edge destination %d is not an item", e.Dst)
		}
		if e.W < 1 || e.W > 5 {
			t.Fatalf("rating %v outside [1,5]", e.W)
		}
	}
}

func TestBipartiteNoDuplicateRatingsPerUser(t *testing.T) {
	g := Bipartite(BipartiteOptions{Users: 50, Items: 30, RatingsPerUser: 10, Seed: 8})
	seen := map[[2]uint32]bool{}
	for _, e := range g.EdgeArray.Edges {
		key := [2]uint32{e.Src, e.Dst}
		if seen[key] {
			t.Fatalf("duplicate rating %d -> %d", e.Src, e.Dst)
		}
		seen[key] = true
	}
}

func TestUniformBounds(t *testing.T) {
	f := func(seed int64) bool {
		g := Uniform(UniformOptions{NumVertices: 200, NumEdges: 500, Seed: seed})
		return g.EdgeArray.Validate() == nil && g.NumEdges() == 500
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorDefaultsDoNotPanic(t *testing.T) {
	if g := Road(RoadOptions{}); g.NumVertices() == 0 {
		t.Fatal("road defaults produced empty graph")
	}
	if g := Bipartite(BipartiteOptions{}); g.NumVertices() == 0 {
		t.Fatal("bipartite defaults produced empty graph")
	}
	if g := Uniform(UniformOptions{}); g.NumVertices() == 0 {
		t.Fatal("uniform defaults produced empty graph")
	}
	if g := TwitterProfile(TwitterProfileOptions{Scale: 6}); g.NumEdges() == 0 {
		t.Fatal("twitter defaults produced empty graph")
	}
}

// BenchmarkRMAT generates the RMAT-16 graph (1 M edges) on all CPUs.
func BenchmarkRMAT(b *testing.B) {
	opt := RMATOptions{Scale: 16, EdgeFactor: 16, Seed: 1}
	for i := 0; i < b.N; i++ {
		RMAT(opt)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(16<<16), "ns/edge")
}

// BenchmarkRoad512 generates one 512x512 weighted road lattice with 5%
// shortcuts, the warm.sssp.road workload's graph; -benchmem shows its one
// edge allocation.
func BenchmarkRoad512(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Road(RoadOptions{Width: 512, Height: 512, ShortcutFraction: 0.05, Seed: int64(i), Weighted: true})
	}
}
