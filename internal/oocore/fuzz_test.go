package oocore

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/core"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/sched"
)

// streamOnce runs one single-worker pass — one column group, so cells
// arrive row-major, in file order — and returns every delivered pair and
// weight (weights nil when no slice carried any).
func streamOnce(s *Store) ([]graph.Pair, []graph.Weight, error) {
	var pairs []graph.Pair
	var weights []graph.Weight
	err := s.StreamCells(coreStreamOpts(1, 0), func(_ int, ps []graph.Pair, ws []graph.Weight) {
		pairs = append(pairs, ps...)
		weights = append(weights, ws...)
	})
	return pairs, weights, err
}

// fuzzImages builds the store images FuzzOpenStore mutates, all of one
// small graph: a unit-weight version-4 store (no plane), a weighted one
// (with a plane) and a plane-less compressed store.
func fuzzImages(f *testing.F) [][]byte {
	g := testGraph(f, 6, false)
	weighted := testGraph(f, 6, true)
	return [][]byte{storeImage(f, g, 4, false), storeImage(f, weighted, 4, false), buildV2Image(f, 6, 4)}
}

// FuzzOpenStore applies one mutation — a byte xor-ed at an offset, then a
// truncation — to real store images, opens the result and streams it. It
// must never panic or hang, and an image that opens and streams must
// deliver exactly what its bytes hold. Every byte of a plane-less
// compressed image is under a checksum, so that is the original pairs and
// weights; version-4 records and plane entries carry none, so it is the
// original pairs and weights with the xor applied where it landed in them
// (and nothing else changed when it landed anywhere else).
func FuzzOpenStore(f *testing.F) {
	images := fuzzImages(f)
	type stream struct {
		dataOff, planeOff int64
		pairs             []graph.Pair
		weights           []graph.Weight
	}
	want := make([]stream, len(images))
	for i, img := range images {
		s, err := openImage(img)
		if err != nil {
			f.Fatalf("unmutated image %d rejected: %v", i, err)
		}
		pairs, weights, err := streamOnce(s)
		if err != nil {
			f.Fatalf("unmutated image %d failed to stream: %v", i, err)
		}
		if (weights != nil) != (s.weightOff > 0) || (s.weightOff > 0) != (i == 1) {
			f.Fatalf("image %d: weights delivered %v, plane at %d", i, weights != nil, s.weightOff)
		}
		want[i] = stream{s.dataOff, s.weightOff, pairs, weights}
		dataOff := uint32(s.dataOff)
		s.Close()
		// Header fields, metadata, the first and a later edge, the last byte.
		for _, off := range []uint32{0, 9, 17, 41, 45, headerSize + 3, dataOff - 1, dataOff, dataOff + 5, uint32(len(img) - 1)} {
			f.Add(uint8(i), off, byte(0x40), uint32(0))
		}
		f.Add(uint8(i), uint32(0), byte(0), uint32(1))
		f.Add(uint8(i), dataOff+6, byte(0x01), uint32(0))
	}
	f.Fuzz(func(t *testing.T, image uint8, offset uint32, xor byte, trunc uint32) {
		i := int(image) % len(images)
		img := append([]byte(nil), images[i]...)
		at := int64(offset) % int64(len(img))
		img[at] ^= xor
		img = img[:len(img)-int(trunc)%(len(img)+1)]
		s, err := openImage(img)
		if err != nil {
			return
		}
		defer s.Close()
		gotPairs, gotWeights, err := streamOnce(s)
		if err != nil {
			return
		}
		w := want[i]
		pairs, weights := slices.Clone(w.pairs), slices.Clone(w.weights)
		if !s.Compressed() {
			if pb := asBytes(pairs); at >= w.dataOff && at < w.dataOff+int64(len(pb)) {
				pb[at-w.dataOff] ^= xor
			} else if wb := asBytes(weights); w.planeOff > 0 && at >= w.planeOff && at < w.planeOff+int64(len(wb)) {
				wb[at-w.planeOff] ^= xor
			}
		}
		if !slices.Equal(gotPairs, pairs) {
			t.Fatalf("accepted image %d delivered %d pairs unlike the %d its bytes hold", i, len(gotPairs), len(pairs))
		}
		// Compare weights bit for bit: a mutated weight may be NaN.
		if !slices.Equal(asBytes(gotWeights), asBytes(weights)) || (gotWeights == nil) != (weights == nil) {
			t.Fatalf("accepted image %d delivered weights unlike the ones its bytes hold", i)
		}
	})
}

// TestOutOfRangeRecordFailsCleanly: pair records carry no checksum, so a
// corrupt one can name a vertex past the graph. Wherever it sits in a
// segment that spans several slots — its first, a middle or its last
// record, in the source or the destination — a record naming NumVertices
// must fail the pass, solo and leased, and ReadCell with an error naming
// that record, not panic inside a kernel; one naming NumVertices-1 is a
// legal edge.
func TestOutOfRangeRecordFailsCleanly(t *testing.T) {
	const p, bufEdges = 8, 100
	img := storeImage(t, testGraph(t, 10, false), p, false)
	ref, err := openImage(img)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ref.Close()
	// One worker streams row 1 as one segment, bufEdges records a slot.
	opt := core.StreamOptions{Workers: 1, MemoryBudget: int64(core.MinPrefetchDepth * bufEdges * pairBytes)}
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
						at := ref.dataOff + rec*int64(pairBytes)
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
						passErr := s.StreamCells(opt, func(int, []graph.Pair, []graph.Weight) {})
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

// TestCheckPairsIsExact: the range check accepts a slice exactly when every
// endpoint lies below the vertex count, at every count from none to 2^32,
// for ids on both sides of the count, of 2^31 and of the largest id, and
// names the first offending record when it rejects.
func TestCheckPairsIsExact(t *testing.T) {
	for _, nv := range []int{0, 1, 2, 1000, 1<<31 - 1, 1 << 31, 1<<31 + 1, 1 << 32} {
		ids := []uint32{0, 1, 1<<31 - 1, 1 << 31, 1<<32 - 1}
		for _, d := range []int{-1, 0, 1} {
			if v := nv + d; v >= 0 && v < 1<<32 {
				ids = append(ids, uint32(v))
			}
		}
		for _, a := range ids {
			for _, b := range ids {
				for _, at := range []int{0, 2} {
					pairs := []graph.Pair{{Src: 0, Dst: 0}, {Src: 0, Dst: 0}, {Src: 0, Dst: 0}}
					if nv == 0 {
						pairs = pairs[:0]
					}
					if at < len(pairs) {
						pairs[at] = graph.Pair{Src: a, Dst: b}
					} else {
						pairs = append(pairs, graph.Pair{Src: a, Dst: b})
						at = len(pairs) - 1
					}
					err := checkPairs(pairs, nv, 10)
					if valid := uint64(a) < uint64(nv) && uint64(b) < uint64(nv); valid != (err == nil) {
						t.Fatalf("%d vertices, record %d->%d at %d: checkPairs returned %v", nv, a, b, at, err)
					}
					if want := fmt.Sprintf("edge record %d (", 10+at); err != nil && !strings.Contains(err.Error(), want) {
						t.Fatalf("%d vertices, record %d->%d at %d: %v does not name record %d", nv, a, b, at, err, 10+at)
					}
				}
			}
		}
	}
}
