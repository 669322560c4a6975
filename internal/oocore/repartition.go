package oocore

import (
	"fmt"

	"github.com/epfl-repro/everythinggraph/internal/graph"
)

// Repartition rewrites an open store at one of its virtual coarsening
// levels, optionally switching formats (v1 fixed records <-> v3 compressed
// segments). A coarser level has wider ranges, so a v3 output may store
// wider offsets than its source. It is the offline counterpart of streamed virtual coarsening:
// once measured costs show a store is over-partitioned, repacking it at the
// winning level makes the coarse layout physical — the cellIndex shrinks,
// every read is a whole coarse cell, and no merge bookkeeping remains.
//
// The output is bit-identical in results to the source at any level: the
// coarse RangeSize is pinned to fineRangeSize*Factor, so destination
// ownership nests exactly (src/(range*f) == (src/range)/f), and the source
// is replayed fine-cell row-major, which preserves each destination's
// (fine row ascending, stored order) visit order inside every coarse cell.
//
// Memory stays bounded regardless of store size: one reusable cell buffer
// (at most the source's largest cell) plus BuildStore's scatter budget
// (32 MiB). The output's metadata and, for v3, per-cell payloads are
// CRC-summed by the builder and re-verified here by reopening the store.
func Repartition(src *Store, outPath string, targetP int, compressed bool) (Header, error) {
	lv, ok := src.levelAligned(targetP)
	if !ok {
		ps := make([]int, 0, len(src.levels))
		for _, l := range src.levels {
			ps = append(ps, l.P)
		}
		return Header{}, fmt.Errorf("oocore: target P=%d is not a rung of the store's ladder %v", targetP, ps)
	}

	// Replay the store fine-cell row-major. The builder runs the stream
	// twice (histogram, scatter); ReadCell reuses buf across cells and
	// passes, so the replay allocates once per run at the largest cell.
	p := src.GridP()
	var buf []graph.Edge
	stream := Stream(func(yield func([]graph.Edge) error) error {
		var err error
		for row := 0; row < p; row++ {
			for col := 0; col < p; col++ {
				if buf, err = src.ReadCell(row, col, buf); err != nil {
					return err
				}
				if len(buf) == 0 {
					continue
				}
				if err = yield(buf); err != nil {
					return err
				}
			}
		}
		return nil
	})

	h, err := BuildStore(outPath, BuildOptions{
		NumVertices: src.NumVertices(),
		GridP:       lv.P,
		RangeSize:   lv.RangeSize,
		Compressed:  compressed,
		// An undirected source already stores both directions of every
		// mirrored edge; record the flag without mirroring again.
		Undirected:    src.Undirected(),
		MirroredInput: true,
	}, stream)
	if err != nil {
		return h, err
	}
	if h.NumEdges != src.NumEdges() {
		return h, fmt.Errorf("oocore: repartition wrote %d edges, source has %d", h.NumEdges, src.NumEdges())
	}

	// Reopen to verify what landed on disk: opening checks the metadata
	// CRC and every structural invariant (cell index monotonicity, edge
	// accounting, file size) against the bytes just written.
	chk, err := Open(outPath)
	if err != nil {
		return h, fmt.Errorf("oocore: repartitioned store failed verification: %w", err)
	}
	return h, chk.Close()
}
