package core

import (
	"math"
	"sync"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/prep"
)

// pinCallerPush sets the caller-only push threshold for the rest of t.
func pinCallerPush(t *testing.T, limit int64) {
	t.Helper()
	old := callerPushLimit
	callerPushLimit = limit
	t.Cleanup(func() { callerPushLimit = old })
}

// atCallerPushExtremes runs f in two subtests of t named after name, with
// the caller-only threshold pinned at 0 (every push iteration handed to the
// gang) and at its maximum (every one on the caller): the oracle tests' small
// inputs would otherwise only ever take the caller path.
func atCallerPushExtremes(t *testing.T, name string, f func(t *testing.T)) {
	t.Helper()
	for _, limit := range []int64{0, math.MaxInt64} {
		label := "gang"
		if limit > 0 {
			label = "caller"
		}
		t.Run(name+"/push-on-"+label, func(t *testing.T) {
			pinCallerPush(t, limit)
			f(t)
		})
	}
}

// pushesRows reports whether a run under cfg can execute push iterations
// over CSR rows — the iterations the caller-only rule applies to.
func pushesRows(cfg Config) bool {
	if cfg.Flow == Auto {
		return true
	}
	return cfg.Flow != Pull && (cfg.Layout == graph.LayoutAdjacency || cfg.Layout == graph.LayoutAdjacencySorted)
}

// pushSpy is a SpanAlgorithm that records, for every PushRows call, the
// worker it ran on and whether its span was Atomic. It activates nothing,
// so a run of it is the one iteration over its initial frontier.
type pushSpy struct {
	flood
	frontier []graph.VertexID

	mu    sync.Mutex
	calls []pushSpyCall
}

type pushSpyCall struct {
	worker int
	atomic bool
}

func (s *pushSpy) InitialFrontier(g *graph.Graph) *graph.Frontier {
	return graph.NewFrontierFromSparse(g.NumVertices(), s.frontier)
}

func (s *pushSpy) PushRows(sp *graph.Span, worker int, _ *graph.Adjacency, _ []graph.VertexID) {
	s.mu.Lock()
	s.calls = append(s.calls, pushSpyCall{worker, sp.Atomic})
	s.mu.Unlock()
}

func (*pushSpy) PullRows(*graph.Span, int, *graph.Adjacency, int, int) {}
func (*pushSpy) PushEdges(*graph.Span, int, []graph.Edge)              {}
func (*pushSpy) PullEdges(*graph.Span, int, []graph.Edge)              {}

// TestSmallPushIterationsRunOnCaller pins the caller-only rule: a push
// iteration of fewer than callerPushEdges active out-edges runs every chunk
// on worker 0 with an unsynchronized span, a larger one keeps its atomic
// updates, and a one-worker run never synchronizes.
func TestSmallPushIterationsRunOnCaller(t *testing.T) {
	// Sources 0..sources-1 each with deg edges into their own targets.
	const deg = 256
	below := (callerPushEdges - 1) / deg
	sources := callerPushEdges/deg + 8
	var edges []graph.Edge
	for s := 0; s < sources; s++ {
		for j := 0; j < deg; j++ {
			edges = append(edges, graph.Edge{Src: graph.VertexID(s), Dst: graph.VertexID(sources + s*deg + j), W: 1})
		}
	}
	g := graph.New(edges, sources*(deg+1), true)
	if err := prep.BuildAdjacency(g, prep.Out, prep.Options{Method: prep.RadixSort}); err != nil {
		t.Fatal(err)
	}
	first := func(k int) []graph.VertexID {
		vs := make([]graph.VertexID, k)
		for i := range vs {
			vs[i] = graph.VertexID(i)
		}
		return vs
	}
	cases := []struct {
		name       string
		frontier   int // first this many sources are active
		workers    int
		wantAtomic bool
		wantCaller bool // every call on worker 0
	}{
		{"below/w4", below, 4, false, true},
		{"above/w4", sources, 4, true, false},
		{"below/w1", below, 1, false, true},
		{"above/w1", sources, 1, false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spy := &pushSpy{frontier: first(c.frontier)}
			cfg := Config{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics, Workers: c.workers, MaxIterations: 1}
			res, err := Run(g, spy, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := res.PerIteration[0].ActiveEdges, int64(c.frontier*deg); got != want {
				t.Fatalf("iteration pushed %d edges, want %d", got, want)
			}
			if len(spy.calls) < 2 {
				t.Fatalf("%d PushRows calls, want one per chunk of a multi-chunk iteration", len(spy.calls))
			}
			for i, call := range spy.calls {
				if call.atomic != c.wantAtomic {
					t.Fatalf("call %d: Atomic %v, want %v", i, call.atomic, c.wantAtomic)
				}
				if c.wantCaller && call.worker != 0 {
					t.Fatalf("call %d ran on worker %d, want the caller (worker 0)", i, call.worker)
				}
			}
		})
	}
}

// TestSSSPRoadIterationsPinned: on a lattice whose every push iteration
// runs on the caller, the iteration count of a bucketed SSSP does not depend
// on the worker count or the run — a split iteration would let a worker read
// a source distance another one is lowering, at a moment that varies from
// run to run, and with it which vertices the next frontier re-adds.
func TestSSSPRoadIterationsPinned(t *testing.T) {
	g := gen.Road(gen.RoadOptions{Width: 128, Height: 128, ShortcutFraction: 0.05, Seed: 11, Weighted: true})
	if err := prep.BuildAdjacency(g, prep.Out, prep.Options{Method: prep.RadixSort, Undirected: !g.Directed}); err != nil {
		t.Fatal(err)
	}
	want := dijkstra(g, 0)
	iterations := -1
	for _, workers := range []int{1, 2, 8} {
		for rep := 0; rep < 10; rep++ {
			s := algorithms.NewSSSP(0)
			cfg := Config{Layout: graph.LayoutAdjacency, Flow: Push, Sync: SyncAtomics, Workers: workers}
			res, err := Run(g, s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, it := range res.PerIteration {
				if it.ActiveEdges >= callerPushLimit {
					t.Fatalf("iteration %d pushes %d edges, not below the caller-only threshold", it.Iteration, it.ActiveEdges)
				}
			}
			if iterations < 0 {
				iterations = res.Iterations
			} else if res.Iterations != iterations {
				t.Fatalf("w%d run %d: %d iterations, the first run took %d", workers, rep, res.Iterations, iterations)
			}
			for v, d := range s.Distances() {
				if math.Float32bits(d) != math.Float32bits(want[v]) {
					t.Fatalf("w%d run %d: vertex %d distance %v, Dijkstra %v", workers, rep, v, d, want[v])
				}
			}
		}
	}
	t.Logf("%d iterations at every worker count", iterations)
}
