package graph

import (
	"math/rand"
	"testing"
)

// pyramidTestGrid builds a small grid by hand (the prep package is not
// importable from here) with a deterministic pseudo-random edge set.
func pyramidTestGrid(t *testing.T, numVertices, p, numEdges int) *Grid {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	rangeSize := (numVertices + p - 1) / p
	cells := make([][]Edge, p*p)
	total := 0
	for i := 0; i < numEdges; i++ {
		e := Edge{Src: VertexID(rng.Intn(numVertices)), Dst: VertexID(rng.Intn(numVertices))}
		cell := (int(e.Src)/rangeSize)*p + int(e.Dst)/rangeSize
		cells[cell] = append(cells[cell], e)
		total++
	}
	g := &Grid{P: p, RangeSize: rangeSize, NumVertices: numVertices, CellIndex: make([]uint64, p*p+1)}
	for c, cell := range cells {
		g.CellIndex[c] = uint64(len(g.Edges))
		g.Edges = append(g.Edges, cell...)
	}
	g.CellIndex[p*p] = uint64(len(g.Edges))
	g.BuildPyramid()
	if err := g.Validate(); err != nil {
		t.Fatalf("grid invalid: %v", err)
	}
	return g
}

func TestBuildPyramidLevels(t *testing.T) {
	g := pyramidTestGrid(t, 1024, 16, 5000)
	wantPs := []int{16, 8, 4, 2, 1}
	if g.NumLevels() != len(wantPs) {
		t.Fatalf("NumLevels = %d, want %d", g.NumLevels(), len(wantPs))
	}
	for i, want := range wantPs {
		lv := g.Level(i)
		if lv.P != want {
			t.Fatalf("level %d: P = %d, want %d", i, lv.P, want)
		}
		if lv.RangeSize != g.RangeSize*lv.Factor {
			t.Fatalf("level %d: RangeSize = %d, want %d", i, lv.RangeSize, g.RangeSize*lv.Factor)
		}
		if got := g.LevelByP(want); got != lv {
			t.Fatalf("LevelByP(%d) returned a different level", want)
		}
	}
	if g.LevelByP(3) != nil {
		t.Fatal("LevelByP must return nil for unmaterialized dimensions")
	}
	// Idempotent: rebuilding must not duplicate levels.
	g.BuildPyramid()
	if g.NumLevels() != len(wantPs) {
		t.Fatalf("BuildPyramid is not idempotent: %d levels", g.NumLevels())
	}
}

// TestPyramidSpansCoverEveryEdgeInColumnOrder asserts the pyramid's core
// contract: at every level, iterating each coarse column's spans in
// ascending fine-row order visits exactly the edges of that column's
// destination range, and the per-destination visit order equals the fine
// grid's — the property that keeps any pinned level bit-reproducible.
func TestPyramidSpansCoverEveryEdgeInColumnOrder(t *testing.T) {
	g := pyramidTestGrid(t, 1000, 16, 4000) // non-power-of-two vertex count
	// Reference: fine-grid per-destination visit sequence (column-owned,
	// rows ascending — the engine's deterministic order).
	type visit struct{ src, dst VertexID }
	perDst := make(map[VertexID][]visit)
	for col := 0; col < g.P; col++ {
		for row := 0; row < g.P; row++ {
			for _, e := range g.Cell(row, col) {
				perDst[e.Dst] = append(perDst[e.Dst], visit{e.Src, e.Dst})
			}
		}
	}
	for li := 0; li < g.NumLevels(); li++ {
		lv := g.Level(li)
		seen := 0
		got := make(map[VertexID][]visit)
		for col := 0; col < lv.P; col++ {
			loV := VertexID(col * lv.RangeSize)
			hiV := VertexID((col + 1) * lv.RangeSize)
			for row := 0; row < g.P; row++ {
				for _, e := range g.LevelSpan(lv, row, col) {
					if e.Dst < loV || e.Dst >= hiV {
						t.Fatalf("level %d: edge ->%d streamed in column %d covering [%d,%d)", li, e.Dst, col, loV, hiV)
					}
					got[e.Dst] = append(got[e.Dst], visit{e.Src, e.Dst})
					seen++
				}
			}
		}
		if seen != len(g.Edges) {
			t.Fatalf("level %d: spans visited %d edges, want %d", li, seen, len(g.Edges))
		}
		for dst, want := range perDst {
			gv := got[dst]
			if len(gv) != len(want) {
				t.Fatalf("level %d: destination %d visited %d times, want %d", li, dst, len(gv), len(want))
			}
			for i := range want {
				if gv[i] != want[i] {
					t.Fatalf("level %d: destination %d visit %d = %v, want %v (order must match the fine grid)", li, dst, i, gv[i], want[i])
				}
			}
		}
	}
}

func TestPyramidSpanCounts(t *testing.T) {
	g := pyramidTestGrid(t, 1024, 16, 3000)
	for li := 0; li < g.NumLevels(); li++ {
		lv := g.Level(li)
		count := 0
		for row := 0; row < g.P; row++ {
			for col := 0; col < lv.P; col++ {
				if len(g.LevelSpan(lv, row, col)) > 0 {
					count++
				}
			}
		}
		if lv.Spans != count {
			t.Fatalf("level %d: Spans = %d, want %d", li, lv.Spans, count)
		}
		if lv.Spans > g.P*lv.P {
			t.Fatalf("level %d: Spans = %d exceeds the %d possible spans", li, lv.Spans, g.P*lv.P)
		}
	}
}

// TestBuildPyramidNonPowerOfTwoP: halving an odd dimension rounds up and
// the clamped boundary tables still cover every fine range exactly once.
func TestBuildPyramidNonPowerOfTwoP(t *testing.T) {
	g := pyramidTestGrid(t, 1000, 5, 2000)
	wantPs := []int{5, 3, 2, 1}
	if g.NumLevels() != len(wantPs) {
		t.Fatalf("NumLevels = %d, want %d", g.NumLevels(), len(wantPs))
	}
	for i, want := range wantPs {
		if got := g.Level(i).P; got != want {
			t.Fatalf("level %d: P = %d, want %d", i, got, want)
		}
	}
}

func TestGridPForCapsOversizedRequests(t *testing.T) {
	for _, tc := range []struct {
		name                string
		numVertices, req, p int
	}{
		// A small graph cannot use a 4096-wide grid: per-range metadata is
		// far below the LLC target at that resolution, so the request caps
		// — but never below the paper's default.
		{"oversized request on a small graph", 1 << 20, 4096, DefaultGridP},
		// A graph whose metadata demands the finer grid keeps it: 2^28
		// vertices at 8 B/vertex is 2 GiB of metadata; even /512 ranges
		// exceed the per-range target, so the request stands.
		{"justified large request", 1 << 28, 512, 512},
		// Requests at or below the default are never reshaped (fixed-P
		// reproducibility), regardless of fit.
		{"default-sized request", 1 << 20, 256, 256},
		{"small request", 1 << 20, 64, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if p := GridPFor(tc.numVertices, tc.req); p != tc.p {
				t.Fatalf("GridPFor(%d, %d) = %d, want %d", tc.numVertices, tc.req, p, tc.p)
			}
		})
	}
}
