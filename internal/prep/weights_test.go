package prep

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/graph"
)

// builds enumerates the directions a build can ask for; "undirected" is an
// Out build that mirrors every edge.
var builds = []struct {
	name       string
	dir        Direction
	undirected bool
}{{"in", In, false}, {"out", Out, false}, {"in-out", InOut, false}, {"undirected", Out, true}}

// reference is referenceCSR of an edge list for every direction in builds,
// kept as each adjacency's Index and its packed rows, as built and with every
// row sorted.
type reference struct {
	out, in, undirected referenceRows
	unit                bool // every weight is 1
}

type referenceRows struct {
	index        []uint64
	rows, sorted []uint64
}

func newReference(edges []graph.Edge, numVertices int) reference {
	rows := func(a *graph.Adjacency) referenceRows {
		r := referenceRows{index: a.Index, rows: packRows(a), sorted: packRows(a)}
		sortRows(r.index, r.sorted)
		return r
	}
	return reference{
		out:        rows(referenceCSR(edges, numVertices, false)),
		in:         rows(referenceCSR(edges, numVertices, true)),
		undirected: rows(referenceCSR(mirrored(edges), numVertices, false)),
		unit:       !slices.ContainsFunc(edges, func(e graph.Edge) bool { return e.W != 1 }),
	}
}

// packRows returns every (target, weight) entry of a, in Targets order, as
// the target in the high and the weight's bits in the low 32 bits.
func packRows(a *graph.Adjacency) []uint64 {
	ws := a.RowWeights(0, uint64(len(a.Targets)))
	rows := make([]uint64, len(a.Targets))
	for i, t := range a.Targets {
		rows[i] = uint64(t)<<32 | uint64(math.Float32bits(ws[i]))
	}
	return rows
}

// sortRows sorts each vertex's packed entries.
func sortRows(index, rows []uint64) {
	for v := range len(index) - 1 {
		slices.Sort(rows[index[v]:index[v+1]])
	}
}

// checkBuild builds edges with method, workers and the direction of
// builds[b], and compares every adjacency it attaches with ref: Index and
// the (target, weight) rows equal — row contents as multisets for the
// builders that are not stable — and Weights nil iff every weight is 1.
func checkBuild(t *testing.T, name string, edges []graph.Edge, numVertices int, ref reference, method Method, workers, b int) {
	t.Helper()
	c := builds[b]
	g := graph.New(edges, numVertices, !c.undirected)
	if err := BuildAdjacency(g, c.dir, Options{Method: method, Workers: workers, Undirected: c.undirected}); err != nil {
		t.Fatalf("%s %v %s workers=%d: %v", name, method, c.name, workers, err)
	}
	check := func(got *graph.Adjacency, want referenceRows) {
		t.Helper()
		if (got.Weights == nil) != ref.unit {
			t.Errorf("%s %v %s workers=%d: Weights nil %v, all weights 1 %v", name, method, c.name, workers, got.Weights == nil, ref.unit)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("%s %v %s workers=%d: %v", name, method, c.name, workers, err)
		}
		rows, wantRows := packRows(got), want.rows
		if method != RadixSort && slices.Equal(got.Index, want.index) {
			sortRows(got.Index, rows)
			wantRows = want.sorted
		}
		if !slices.Equal(got.Index, want.index) || !slices.Equal(rows, wantRows) {
			t.Errorf("%s %v %s workers=%d: adjacency differs from the reference", name, method, c.name, workers)
		}
	}
	switch {
	case c.undirected:
		check(g.Out, ref.undirected)
	case c.dir == In:
		check(g.In, ref.in)
	case c.dir == Out:
		check(g.Out, ref.out)
	default:
		check(g.Out, ref.out)
		check(g.In, ref.in)
	}
}

// TestUnitWeightBuildsOmitWeights: every builder, in every direction and at
// every worker count, leaves Weights nil on edges that all weigh 1 and
// otherwise builds what the reference does. One weight other than 1, in the
// first, a middle or the last radix chunk, brings the whole column back; those
// inputs run the radix builder at every worker count and the others at 8
// workers, as in-out and undirected builds. Under the race detector the test
// runs at 1 and 8 workers and skips the two largest inputs.
func TestUnitWeightBuildsOmitWeights(t *testing.T) {
	workerCounts := []int{1, 2, 3, 8}
	if raceEnabled {
		workerCounts = []int{1, 8}
	}
	for _, c := range radixCases() {
		if raceEnabled && (len(c.edges) > 1<<16 || c.numVertices > 1<<17) {
			continue
		}
		unit := slices.Clone(c.edges)
		for i := range unit {
			unit[i].W = 1
		}
		ref := newReference(unit, c.numVertices)
		for _, method := range []Method{RadixSort, CountSort, Dynamic} {
			for _, workers := range workerCounts {
				for b := range builds {
					checkBuild(t, c.name, unit, c.numVertices, ref, method, workers, b)
				}
			}
		}
		m := len(unit)
		if m == 0 {
			continue
		}
		for _, at := range []int{0, m / 2, m - 1} {
			heavy := slices.Clone(unit)
			heavy[at].W = 3
			name := fmt.Sprintf("%s/weight-at-%d", c.name, at)
			ref := newReference(heavy, c.numVertices)
			for _, method := range []Method{RadixSort, CountSort, Dynamic} {
				for _, workers := range workerCounts {
					if method != RadixSort && workers != 8 {
						continue
					}
					for b, build := range builds {
						if build.dir == InOut || build.undirected {
							checkBuild(t, name, heavy, c.numVertices, ref, method, workers, b)
						}
					}
				}
			}
		}
	}
}

// FuzzBuildAdjacency builds small edge lists, with weights drawn from 1 and
// other values, and compares the result with referenceCSR. data holds 5
// bytes an edge (source, destination, weight byte); the list is repeated
// copies times so that builds span several chunks, and only copy keep%copies
// keeps the weights of data, the others weighing 1. shape picks the
// direction, worker count and method.
func FuzzBuildAdjacency(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 1, 0, 2, 0, 200}, uint16(3), uint8(0), uint8(0), uint8(0))
	f.Add([]byte{5, 0, 9, 1, 0, 9, 1, 5, 0, 7, 3, 0, 3, 0, 130}, uint16(300), uint8(0x2d), uint8(200), uint8(101))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint16(70), uint8(0xff), uint8(255), uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, nv uint16, shape, copies, keep uint8) {
		n := 1 + int(nv)%2000
		var list []graph.Edge
		for ; len(data) >= 5; data = data[5:] {
			w := graph.Weight(1)
			if data[4] >= 128 {
				w = graph.Weight(data[4] - 128)
			}
			list = append(list, graph.Edge{
				Src: graph.VertexID(int(binary.LittleEndian.Uint16(data)) % n),
				Dst: graph.VertexID(int(binary.LittleEndian.Uint16(data[2:])) % n),
				W:   w,
			})
		}
		reps := 1 + int(copies)*4
		edges := make([]graph.Edge, 0, reps*len(list))
		for r := 0; r < reps; r++ {
			for _, e := range list {
				if r != int(keep)%reps {
					e.W = 1
				}
				edges = append(edges, e)
			}
		}
		b, workers, method := int(shape%4), 1+int(shape/4)%8, Method(int(shape/32)%3)
		checkBuild(t, "fuzz", edges, n, newReference(edges, n), method, workers, b)
	})
}
