package oocore

import (
	"path/filepath"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/core"
	"github.com/epfl-repro/everythinggraph/internal/graph"
)

// repack repartitions src into a temp file and opens the result.
func repack(t *testing.T, src *Store, targetP int, compressed bool) *Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "repack.egs")
	if _, err := Repartition(src, path, targetP, compressed); err != nil {
		t.Fatalf("Repartition(P=%d, compressed=%v): %v", targetP, compressed, err)
	}
	out, err := Open(path)
	if err != nil {
		t.Fatalf("Open repacked: %v", err)
	}
	t.Cleanup(func() { out.Close() })
	return out
}

// TestRepartitionEveryLevelExactCellContent checks the structural half of
// the bit-identity guarantee: each coarse cell of the repacked store holds
// exactly the source's fine cells replayed row-major — same edges, same
// order, same weights — for every ladder rung and all four format
// combinations (v1/v2 source x v1/v2 output).
func TestRepartitionEveryLevelExactCellContent(t *testing.T) {
	g := testGraph(t, 10, true)
	const p = 8
	for _, srcCompressed := range []bool{false, true} {
		var src *Store
		if srcCompressed {
			src = buildTestStoreV2(t, g, p, false)
		} else {
			src = buildTestStore(t, g, p, false)
		}
		for _, lv := range src.Levels() {
			for _, outCompressed := range []bool{false, true} {
				out := repack(t, src, lv.P, outCompressed)
				h := out.Header()
				if h.P != lv.P || h.RangeSize != lv.RangeSize {
					t.Fatalf("src v2=%v -> out v2=%v P=%d: header %dx%d range %d, want range %d",
						srcCompressed, outCompressed, lv.P, h.P, h.P, h.RangeSize, lv.RangeSize)
				}
				if h.NumEdges != src.NumEdges() || out.Compressed() != outCompressed {
					t.Fatalf("src v2=%v -> out v2=%v P=%d: %d edges compressed=%v, want %d / %v",
						srcCompressed, outCompressed, lv.P, h.NumEdges, out.Compressed(), src.NumEdges(), outCompressed)
				}
				var want, got, buf []graph.Edge
				var err error
				for R := 0; R < lv.P; R++ {
					for C := 0; C < lv.P; C++ {
						want = want[:0]
						for r := R * lv.Factor; r < (R+1)*lv.Factor && r < p; r++ {
							for c := C * lv.Factor; c < (C+1)*lv.Factor && c < p; c++ {
								if buf, err = src.ReadCell(r, c, buf); err != nil {
									t.Fatalf("source ReadCell(%d,%d): %v", r, c, err)
								}
								want = append(want, buf...)
							}
						}
						if got, err = out.ReadCell(R, C, got); err != nil {
							t.Fatalf("repacked ReadCell(%d,%d): %v", R, C, err)
						}
						if len(got) != len(want) {
							t.Fatalf("src v2=%v -> out v2=%v P=%d cell (%d,%d): %d edges, want %d",
								srcCompressed, outCompressed, lv.P, R, C, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("src v2=%v -> out v2=%v P=%d cell (%d,%d) edge %d: %v, want %v",
									srcCompressed, outCompressed, lv.P, R, C, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestRepartitionStreamedBitIdentical is the end-to-end half: PageRank
// streamed over the repacked store at its materialized resolution matches
// the source streamed at its finest level, rank for rank.
func TestRepartitionStreamedBitIdentical(t *testing.T) {
	g := testGraph(t, 11, false)
	src := buildTestStore(t, g, 8, false)
	ref := algorithms.NewPageRank()
	if _, err := core.RunStreamed(src, ref, streamConfig(core.Push, 128<<10)); err != nil {
		t.Fatalf("source run: %v", err)
	}
	for _, compressed := range []bool{false, true} {
		out := repack(t, src, 4, compressed)
		pr := algorithms.NewPageRank()
		if _, err := core.RunStreamed(out, pr, streamConfig(core.Push, 128<<10)); err != nil {
			t.Fatalf("repacked run (v2=%v): %v", compressed, err)
		}
		for v := range ref.Rank {
			if pr.Rank[v] != ref.Rank[v] {
				t.Fatalf("v2=%v: rank[%d] = %v repacked, %v source", compressed, v, pr.Rank[v], ref.Rank[v])
			}
		}
	}
}

// TestRepartitionUndirectedDoesNotRemirror guards the MirroredInput path: a
// mirrored store replayed through the builder must keep its edge count and
// its Undirected header bit, not double every edge again.
func TestRepartitionUndirectedDoesNotRemirror(t *testing.T) {
	g := testGraph(t, 10, false)
	src := buildTestStore(t, g, 8, true)
	out := repack(t, src, 4, false)
	if out.NumEdges() != src.NumEdges() {
		t.Fatalf("repacked undirected store has %d edges, source %d", out.NumEdges(), src.NumEdges())
	}
	if !out.Undirected() {
		t.Fatal("repacked store lost the Undirected header bit")
	}

	wccSrc := algorithms.NewWCC()
	if _, err := core.RunStreamed(src, wccSrc, streamConfig(core.Push, 128<<10)); err != nil {
		t.Fatalf("source WCC: %v", err)
	}
	wccOut := algorithms.NewWCC()
	if _, err := core.RunStreamed(out, wccOut, streamConfig(core.Push, 128<<10)); err != nil {
		t.Fatalf("repacked WCC: %v", err)
	}
	for v := range wccSrc.Labels {
		if wccOut.Labels[v] != wccSrc.Labels[v] {
			t.Fatalf("label[%d] = %d repacked, %d source", v, wccOut.Labels[v], wccSrc.Labels[v])
		}
	}
}

func TestRepartitionRejectsOffLadderP(t *testing.T) {
	g := testGraph(t, 10, false)
	src := buildTestStore(t, g, 8, false)
	path := filepath.Join(t.TempDir(), "bad.egs")
	if _, err := Repartition(src, path, 7, false); err == nil {
		t.Fatal("P=7 (not a ladder rung of P=8) was not rejected")
	}
	if _, err := Repartition(src, path, 16, false); err == nil {
		t.Fatal("P=16 (finer than the store) was not rejected")
	}
}
