package oocore

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/core"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/sched"
	"github.com/epfl-repro/everythinggraph/internal/storage"
)

// streamOnce runs one single-worker pass — one column group, so cells
// arrive row-major in a fixed order — and returns every delivered edge.
func streamOnce(s *Store) ([]graph.Edge, error) {
	var all []graph.Edge
	err := s.StreamCells(coreStreamOpts(1, 0), func(_ int, edges []graph.Edge) {
		all = append(all, edges...)
	})
	return all, err
}

// fuzzImages builds the two store images FuzzOpenStore mutates: a v1 store
// and a plane-less compressed store of the same small graph.
func fuzzImages(f *testing.F) (v1, v3 []byte) {
	g := testGraph(f, 6, false)
	for i := range g.EdgeArray.Edges {
		g.EdgeArray.Edges[i].W = 0
	}
	path := filepath.Join(f.TempDir(), "fuzz.egs")
	if _, err := BuildStoreFromGraph(path, g, 4, false); err != nil {
		f.Fatalf("BuildStoreFromGraph: %v", err)
	}
	v1, err := os.ReadFile(path)
	if err != nil {
		f.Fatalf("ReadFile: %v", err)
	}
	return v1, buildV2Image(f, 6, 4)
}

// FuzzOpenStore applies one mutation — a byte xor-ed at an offset, then a
// truncation — to real v1 and compressed store images, opens the result and
// streams it. It must never panic or hang. Every byte of a plane-less
// compressed image is under a checksum, so an image that opens and streams
// must deliver exactly the original cells' edges; v1 edge records carry
// none, so there every delivered edge must at least lie inside the graph.
func FuzzOpenStore(f *testing.F) {
	v1, v3 := fuzzImages(f)
	var want []graph.Edge // the unmutated compressed image's edges
	for _, tc := range []struct {
		compressed bool
		img        []byte
	}{{false, v1}, {true, v3}} {
		s, err := openImage(tc.img)
		if err != nil {
			f.Fatalf("unmutated image (compressed=%v) rejected: %v", tc.compressed, err)
		}
		edges, err := streamOnce(s)
		if err != nil {
			f.Fatalf("unmutated image (compressed=%v) failed to stream: %v", tc.compressed, err)
		}
		if tc.compressed {
			want = edges
		}
		dataOff := uint32(s.dataOff)
		s.Close()
		// Header fields, metadata, the first and a later edge, the last byte.
		for _, off := range []uint32{0, 9, 17, 41, 45, headerSize + 3, dataOff - 1, dataOff, dataOff + 5, uint32(len(tc.img) - 1)} {
			f.Add(tc.compressed, off, byte(0x40), uint32(0))
		}
		f.Add(tc.compressed, uint32(0), byte(0), uint32(1))
		f.Add(tc.compressed, dataOff+6, byte(0x01), uint32(0))
	}
	f.Fuzz(func(t *testing.T, compressed bool, offset uint32, xor byte, trunc uint32) {
		img := append([]byte(nil), v1...)
		if compressed {
			img = append([]byte(nil), v3...)
		}
		img[int(offset)%len(img)] ^= xor
		img = img[:len(img)-int(trunc)%(len(img)+1)]
		s, err := openImage(img)
		if err != nil {
			return
		}
		defer s.Close()
		got, err := streamOnce(s)
		if err != nil {
			return
		}
		if !compressed {
			for i, e := range got {
				if int(e.Src) >= s.NumVertices() || int(e.Dst) >= s.NumVertices() {
					t.Fatalf("accepted v1 image delivered edge %d %v outside %d vertices", i, e, s.NumVertices())
				}
			}
			return
		}
		if len(got) != len(want) {
			t.Fatalf("accepted compressed image delivered %d edges, the original %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("accepted compressed image delivered edge %d as %v, the original %v", i, got[i], want[i])
			}
		}
	})
}

// TestV1OutOfRangeRecordFailsCleanly: v1 edge records carry no checksum, so
// a corrupt one can name a vertex past the graph. Wherever it sits in a
// segment that spans several slots — its first, a middle or its last
// record, in the source or the destination — a record naming NumVertices
// must fail the pass, solo and leased, and ReadCell with an error naming
// that record, not panic inside a kernel; one naming NumVertices-1 is a
// legal edge.
func TestV1OutOfRangeRecordFailsCleanly(t *testing.T) {
	const p, bufEdges = 8, 100
	img := storeImage(t, testGraph(t, 10, false), p, false)
	ref, err := openImage(img)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ref.Close()
	// One worker streams row 1 as one segment, bufEdges records a slot.
	opt := core.StreamOptions{Workers: 1, MemoryBudget: core.MinPrefetchDepth * bufEdges * core.StreamResidentEdgeBytes}
	lo, hi := int64(ref.cellIndex[p]), int64(ref.cellIndex[2*p])
	if hi-lo <= 2*bufEdges {
		t.Fatalf("row 1 holds %d records, want a segment over more than two slots", hi-lo)
	}
	nv := uint32(ref.NumVertices())
	for _, rec := range []int64{lo, (lo + hi) / 2, hi - 1} {
		col := 0
		for int64(ref.cellIndex[p+col+1]) <= rec {
			col++
		}
		for _, field := range []string{"src", "dst"} {
			for _, v := range []uint32{nv - 1, nv} {
				for _, leased := range []bool{false, true} {
					name := fmt.Sprintf("record=%d/%s=%d/leased=%v", rec, field, v, leased)
					t.Run(name, func(t *testing.T) {
						bad := append([]byte(nil), img...)
						at := ref.dataOff + rec*storage.EdgeBytes
						if field == "dst" {
							at += 4
						}
						binary.LittleEndian.PutUint32(bad[at:], v)
						s, err := openImage(bad)
						if err != nil {
							t.Fatalf("open rejected a store whose corruption is in the edge data: %v", err)
						}
						defer s.Close()
						opt := opt
						if leased {
							lease := sched.DefaultPool().Lease(2)
							defer lease.Release()
							opt.Lease = lease
						}
						passErr := s.StreamCells(opt, func(int, []graph.Edge) {})
						_, cellErr := s.ReadCell(1, col, nil)
						if v < nv {
							if passErr != nil || cellErr != nil {
								t.Fatalf("legal record rejected: pass %v, ReadCell %v", passErr, cellErr)
							}
							return
						}
						want := fmt.Sprintf("edge record %d (", rec)
						for what, err := range map[string]error{"pass": passErr, "ReadCell": cellErr} {
							if err == nil || !strings.Contains(err.Error(), want) {
								t.Errorf("%s returned %v, want an error naming edge record %d", what, err, rec)
							}
						}
					})
				}
			}
		}
	}
}
