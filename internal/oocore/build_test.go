package oocore

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
)

// pinBudget is small enough that RMAT-12's heaviest rows take several sort
// windows at the default 256x256 grid.
const pinBudget = 3 << 10

// pinnedStores lists the builds whose whole-file FNV-1a hashes are pinned:
// v4 and v3, directed and undirected, RMAT-12 (unit weights: a store
// without a weight plane) and a weighted 64x64 road lattice (with one), and
// an empty store. The road and empty v3 hashes were taken from the builder
// that scattered edges through per-cell buffers, whose bytes did not depend
// on its budget: the radix partition must write the same files. The RMAT-12
// v3 hashes were taken when version 3 took version 4's weight rule (a plane
// only when some weight is not 1), which dropped their plane of ones. The
// v4 hashes were taken when the format replaced version 1's 12-byte
// records; the stores they hash stream exactly the in-memory grid's cells
// (format_test.go).
var pinnedStores = []struct {
	name       string
	graph      string
	undirected bool
	compressed bool
	hash       uint64
}{
	{"rmat12-v4", "rmat12", false, false, 0xd682d6c7478d0279},
	{"rmat12-v4-undirected", "rmat12", true, false, 0x8d4bc1b2a772701f},
	{"rmat12-v3", "rmat12", false, true, 0x9402510eda3aa5af},
	{"rmat12-v3-undirected", "rmat12", true, true, 0xf93ac50a294ec05c},
	{"road64-v4", "road64", false, false, 0x1c71865d628fe7f5},
	{"road64-v4-undirected", "road64", true, false, 0xc6eda581f3037ab4},
	{"road64-v3", "road64", false, true, 0xc270129e3b16d1a0},
	{"road64-v3-undirected", "road64", true, true, 0x7d65371a629a2bd8},
	{"empty-v4", "empty", false, false, 0x78f3b13ab9df89c5},
	{"empty-v3", "empty", false, true, 0xa644602d597fc36},
}

// pinGraphs returns the pinned builds' inputs.
func pinGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	return map[string]*graph.Graph{
		"rmat12": testGraph(t, 12, false),
		"road64": gen.Road(gen.RoadOptions{Width: 64, Height: 64, ShortcutFraction: 0.1, Seed: 3, Weighted: true}),
		"empty":  graph.New(nil, 16, true),
	}
}

// fileHash is the FNV-1a hash of the whole file at path.
func fileHash(t *testing.T, path string) uint64 {
	t.Helper()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(img)
	return h.Sum64()
}

// heaviestRowWindows returns how many sort windows the store's heaviest
// row takes when built under budget.
func heaviestRowWindows(t *testing.T, path string, budget int64) uint64 {
	t.Helper()
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Header()
	var heaviest uint64
	for r := 0; r < h.P; r++ {
		heaviest = max(heaviest, s.cellIndex[(r+1)*h.P]-s.cellIndex[r*h.P])
	}
	win := newPartition(nil, h, s.cellIndex, budget).win
	return (heaviest + win - 1) / win
}

// TestStoreBytesPinned: every pinned build gives the pinned file, at the
// default budget, where each row is sorted in one window, and at one that
// splits RMAT-12's heavy rows into several.
func TestStoreBytesPinned(t *testing.T) {
	graphs := pinGraphs(t)
	dir := t.TempDir()
	for _, budget := range []int64{buildBudget, pinBudget} {
		for _, c := range pinnedStores {
			g := graphs[c.graph]
			path := filepath.Join(dir, c.name+".egs")
			opt := BuildOptions{NumVertices: g.NumVertices(), Undirected: c.undirected, Compressed: c.compressed}
			if _, err := buildStore(path, opt, SliceStream(g.EdgeArray.Edges, 1000), budget); err != nil {
				t.Fatalf("%s, budget %d: %v", c.name, budget, err)
			}
			if h := fileHash(t, path); h != c.hash {
				t.Errorf("%s, budget %d: file hash %#x, want %#x", c.name, budget, h, c.hash)
			}
			if c.graph != "rmat12" {
				continue
			}
			windows := heaviestRowWindows(t, path, budget)
			if budget == buildBudget && windows != 1 {
				t.Errorf("%s: heaviest row takes %d windows at the default budget, want 1", c.name, windows)
			}
			if budget == pinBudget && windows < 3 {
				t.Errorf("%s: heaviest row takes %d windows at budget %d, want several", c.name, windows, budget)
			}
		}
	}
}

// dirEntries lists the names in dir.
func dirEntries(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestFailedBuildLeavesNothing: a build that fails after it created the
// store — a stream that yields an out-of-range edge, fails, or yields a
// different edge count on its second run — leaves no file in the directory and no
// descriptor open, and a changed count is reported as a stream that is not
// restartable.
func TestFailedBuildLeavesNothing(t *testing.T) {
	g := testGraph(t, 10, false)
	edges := g.EdgeArray.Edges
	// secondRun returns a stream that runs first on its first run and
	// second on every later one.
	secondRun := func(first, second Stream) func() Stream {
		return func() Stream {
			runs := 0
			return func(yield func([]graph.Edge) error) error {
				runs++
				if runs == 1 {
					return first(yield)
				}
				return second(yield)
			}
		}
	}
	failed := errors.New("device gone")
	extra := append(append([]graph.Edge(nil), edges...), graph.Edge{Src: 1, Dst: 2, W: 1})
	outside := append([]graph.Edge(nil), edges...)
	outside[len(outside)-1].Dst = graph.VertexID(g.NumVertices())
	moved := append([]graph.Edge(nil), edges...)
	moved[0].Dst = (moved[0].Dst + graph.VertexID(g.NumVertices()/2)) % graph.VertexID(g.NumVertices())
	cases := []struct {
		name   string
		stream func() Stream
		want   string
	}{
		{"out-of-range-second-run", secondRun(SliceStream(edges, 0), SliceStream(outside, 0)), "out of range"},
		{"fails-second-run", secondRun(SliceStream(edges, 0), func(func([]graph.Edge) error) error { return failed }), failed.Error()},
		{"fewer-second-run", secondRun(SliceStream(edges, 0), SliceStream(edges[1:], 0)), "stream not restartable?"},
		{"more-second-run", secondRun(SliceStream(edges, 0), SliceStream(extra, 0)), "stream not restartable?"},
		{"moved-second-run", secondRun(SliceStream(edges, 0), SliceStream(moved, 0)), "stream not restartable?"},
	}
	for _, c := range cases {
		for _, compressed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/compressed=%v", c.name, compressed), func(t *testing.T) {
				dir := t.TempDir()
				fds := openFDs(t)
				opt := BuildOptions{NumVertices: g.NumVertices(), Compressed: compressed}
				_, err := buildStore(filepath.Join(dir, "failed.egs"), opt, c.stream(), pinBudget)
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("build returned %v, want an error containing %q", err, c.want)
				}
				if names := dirEntries(t, dir); len(names) != 0 {
					t.Fatalf("failed build left %v in its directory", names)
				}
				if n := openFDs(t); n != fds {
					t.Fatalf("%d descriptors open after the failed build, %d before", n, fds)
				}
			})
		}
	}
}
