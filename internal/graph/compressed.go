package graph

import (
	"fmt"
)

// This file implements the cell codec of compressed (version-2) grid
// stores: each cell's edges are stored as destination deltas plus row-local
// source offsets in a variable-length (varint) byte stream; weights travel
// in a parallel plane the store keeps, so unweighted kernels never touch
// them. Within a cell both endpoints span only one vertex range, so the
// values being encoded are small: on the paper's 256-range grids a typical
// edge costs 2-4 bytes against the raw layout's 12, trading decode CPU for
// fewer bytes read — worth it only against real I/O cost.
//
// The encoding deliberately preserves the cell's existing edge order (the
// stable-scatter input order): destination deltas are SIGNED (zigzag), so no
// sort is needed, and the per-destination visit order — hence the
// floating-point accumulation order and the result bits — is identical to
// the raw grid's.

// MaxEncodedEdgeBytes bounds the encoded size of one edge: two varints of at
// most five bytes each (a delta of +/-2^32 zigzags into 33 bits). Sizing a
// buffer at MaxEncodedEdgeBytes per edge therefore always fits a cell's
// payload.
const MaxEncodedEdgeBytes = 10

// CellEncoder encodes one cell's edges incrementally. Reset starts a cell;
// Append encodes one edge. The same sequence of Append calls always produces
// the same bytes, which is what lets a two-pass store builder size and
// checksum payloads in its first pass and write identical bytes in its
// second.
type CellEncoder struct {
	rowLo VertexID
	prev  VertexID
}

// Reset arms the encoder for a cell whose sources start at rowLo and whose
// destinations start at colLo (the first destination delta is taken against
// colLo).
func (e *CellEncoder) Reset(rowLo, colLo VertexID) {
	e.rowLo = rowLo
	e.prev = colLo
}

// Append encodes one edge onto buf and returns the extended slice. The edge
// must belong to the encoder's cell (src >= rowLo, dst >= colLo).
func (e *CellEncoder) Append(buf []byte, src, dst VertexID) []byte {
	buf = appendUvarint(buf, zigzag(int64(dst)-int64(e.prev)))
	e.prev = dst
	return appendUvarint(buf, uint64(src-e.rowLo))
}

// appendUvarint appends the unsigned LEB128 encoding of v.
func appendUvarint(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

// zigzag folds a signed delta into an unsigned value with small magnitudes
// staying small in either direction.
func zigzag(d int64) uint64 {
	return uint64(d<<1) ^ uint64(d>>63)
}

// DecodeCell decodes exactly count edges of one cell from data into
// dst[:count], reversing CellEncoder's encoding for the cell at (rowLo,
// colLo) with the given range size. It validates everything a corrupt or
// adversarial payload could violate — truncation mid-varint, overlong
// varints, endpoints outside the cell's ranges, trailing bytes, a count that
// overflows the scratch — and returns an error without touching anything
// beyond dst. Decoded edges carry a zero weight; weighted layouts restore W
// from their parallel plane afterwards.
func DecodeCell(data []byte, count int, rowLo, colLo VertexID, rangeSize int, dst []Edge) error {
	if count < 0 || count > len(dst) {
		return fmt.Errorf("graph: compressed cell count %d overflows scratch of %d edges", count, len(dst))
	}
	if rangeSize <= 0 {
		return fmt.Errorf("graph: compressed cell range size %d must be positive", rangeSize)
	}
	prev := int64(colLo)
	colEnd := int64(colLo) + int64(rangeSize)
	rowRange := uint64(rangeSize)
	pos := 0
	for i := 0; i < count; i++ {
		zz, next, err := uvarint(data, pos)
		if err != nil {
			return fmt.Errorf("graph: compressed cell edge %d destination: %w", i, err)
		}
		pos = next
		d := prev + (int64(zz>>1) ^ -int64(zz&1))
		// The upper bound is the cell's range end AND the vertex-id space: a
		// range that straddles 2^32 (the last row/column of a maximal graph)
		// must not let a corrupt delta wrap the 32-bit id.
		if d < int64(colLo) || d >= colEnd || d > int64(^VertexID(0)) {
			return fmt.Errorf("graph: compressed cell edge %d destination %d outside range [%d,%d)", i, d, colLo, colEnd)
		}
		prev = d
		s, next, err := uvarint(data, pos)
		if err != nil {
			return fmt.Errorf("graph: compressed cell edge %d source: %w", i, err)
		}
		pos = next
		if s >= rowRange || uint64(rowLo)+s > uint64(^VertexID(0)) {
			return fmt.Errorf("graph: compressed cell edge %d source offset %d outside range of %d", i, s, rangeSize)
		}
		dst[i] = Edge{Src: rowLo + VertexID(s), Dst: VertexID(d)}
	}
	if pos != len(data) {
		return fmt.Errorf("graph: compressed cell has %d trailing bytes after %d edges", len(data)-pos, count)
	}
	return nil
}

// uvarint decodes one unsigned LEB128 value at data[pos:], rejecting
// truncated, overlong (>64-bit) and non-minimal encodings. Rejecting
// non-minimal forms makes the encoding canonical — every value has exactly
// one accepted byte sequence — so re-encoding a decoded cell reproduces its
// payload bit for bit (the fuzz target's round-trip check) and a corrupted
// payload cannot alias a valid one of the same length.
func uvarint(data []byte, pos int) (uint64, int, error) {
	var v uint64
	var s uint
	for {
		if pos >= len(data) {
			return 0, pos, fmt.Errorf("varint truncated")
		}
		b := data[pos]
		pos++
		if s == 63 && b > 1 {
			return 0, pos, fmt.Errorf("varint overflows 64 bits")
		}
		v |= uint64(b&0x7f) << s
		if b < 0x80 {
			if b == 0 && s > 0 {
				return 0, pos, fmt.Errorf("non-minimal varint")
			}
			return v, pos, nil
		}
		s += 7
		if s > 63 {
			return 0, pos, fmt.Errorf("varint overflows 64 bits")
		}
	}
}
