package graph

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// This file implements the cell codec of compressed grid stores. Within a
// grid cell both endpoints lie in one RangeSize-wide vertex range, so each
// edge is stored as its source offset then its destination offset inside
// the cell, each CellOffsetWidth(RangeSize) bytes, little-endian. On the
// paper's 256-range grids that is 2 bytes per edge against the raw layout's
// 12, on 1,024-wide ranges 4. Weights travel in a parallel plane the store
// keeps (4 bytes per edge, float32 bits little-endian) and reads in place,
// beside the pairs the decoder writes.
//
// Fixed-width, byte-aligned offsets decode with one load per endpoint and no
// data-dependent branching, which is what makes the trade of CPU for bytes
// pay on a streamed pass. A cell's payload is exactly 2w bytes per edge, so
// its byte offset follows from its edge offset and no per-cell offset table
// is needed. The encoding keeps the cell's existing edge order (the
// stable-scatter input order), so the per-destination visit order — hence
// the floating-point accumulation order and the result bits — is identical
// to the raw grid's.

// CellOffsetWidth returns the bytes one endpoint offset takes in a cell of
// the given range size: the fewest bytes that hold rangeSize-1, from 1 to 4.
func CellOffsetWidth(rangeSize int) int {
	if rangeSize <= 1 {
		return 1
	}
	return min((bits.Len64(uint64(rangeSize-1))+7)/8, 4)
}

// AppendCellEdge appends one edge's encoding — source offset, then
// destination offset, each w bytes little-endian — to buf. The offsets are
// the endpoints minus the cell's range starts and must fit in w bytes.
func AppendCellEdge(buf []byte, srcOff, dstOff uint32, w int) []byte {
	switch w {
	case 1:
		return append(buf, byte(srcOff), byte(dstOff))
	case 2:
		return append(buf, byte(srcOff), byte(srcOff>>8), byte(dstOff), byte(dstOff>>8))
	case 3:
		return append(buf, byte(srcOff), byte(srcOff>>8), byte(srcOff>>16),
			byte(dstOff), byte(dstOff>>8), byte(dstOff>>16))
	default:
		buf = binary.LittleEndian.AppendUint32(buf, srcOff)
		return binary.LittleEndian.AppendUint32(buf, dstOff)
	}
}

// cellLimit is the number of valid offsets in a range starting at lo: the
// range size, clipped to the vertex count (the last range of a grid may
// extend past it) and to the 32-bit id space.
func cellLimit(lo VertexID, rangeSize, numVertices int) uint64 {
	end := min(uint64(lo)+uint64(rangeSize), uint64(numVertices), 1<<32)
	if end <= uint64(lo) {
		return 0
	}
	return end - uint64(lo)
}

// DecodeCell decodes exactly count pairs of the cell whose ranges start at
// rowLo (sources) and colLo (destinations) from data into dst[:count]. It
// rejects a payload that is not exactly 2·CellOffsetWidth(rangeSize) bytes
// per edge, a count that overflows dst, and any endpoint outside its cell's
// range or at or beyond numVertices, returning an error without touching
// anything beyond dst.
func DecodeCell(data []byte, count int, rowLo, colLo VertexID, rangeSize, numVertices int, dst []Pair) error {
	if count < 0 || count > len(dst) {
		return fmt.Errorf("graph: compressed cell count %d overflows scratch of %d edges", count, len(dst))
	}
	if rangeSize <= 0 {
		return fmt.Errorf("graph: compressed cell range size %d must be positive", rangeSize)
	}
	w := CellOffsetWidth(rangeSize)
	if len(data) != 2*w*count {
		return fmt.Errorf("graph: compressed cell holds %d bytes, want %d for %d edges of %d-byte offsets",
			len(data), 2*w*count, count, w)
	}
	srcLim := cellLimit(rowLo, rangeSize, numVertices)
	dstLim := cellLimit(colLo, rangeSize, numVertices)
	out := dst[:count]
	// One loop per width, chosen once per cell: each endpoint is one load.
	switch w {
	case 1:
		for i := range out {
			rec := data[2*i : 2*i+2]
			s, d := uint64(rec[0]), uint64(rec[1])
			if s >= srcLim || d >= dstLim {
				return cellRangeError(i, s, d, srcLim, dstLim)
			}
			out[i] = Pair{Src: rowLo + VertexID(s), Dst: colLo + VertexID(d)}
		}
	case 2:
		for i := range out {
			rec := data[4*i : 4*i+4]
			s := uint64(binary.LittleEndian.Uint16(rec[0:2]))
			d := uint64(binary.LittleEndian.Uint16(rec[2:4]))
			if s >= srcLim || d >= dstLim {
				return cellRangeError(i, s, d, srcLim, dstLim)
			}
			out[i] = Pair{Src: rowLo + VertexID(s), Dst: colLo + VertexID(d)}
		}
	case 3:
		for i := range out {
			rec := data[6*i : 6*i+6]
			s := uint64(rec[0]) | uint64(rec[1])<<8 | uint64(rec[2])<<16
			d := uint64(rec[3]) | uint64(rec[4])<<8 | uint64(rec[5])<<16
			if s >= srcLim || d >= dstLim {
				return cellRangeError(i, s, d, srcLim, dstLim)
			}
			out[i] = Pair{Src: rowLo + VertexID(s), Dst: colLo + VertexID(d)}
		}
	default:
		for i := range out {
			rec := data[8*i : 8*i+8]
			s := uint64(binary.LittleEndian.Uint32(rec[0:4]))
			d := uint64(binary.LittleEndian.Uint32(rec[4:8]))
			if s >= srcLim || d >= dstLim {
				return cellRangeError(i, s, d, srcLim, dstLim)
			}
			out[i] = Pair{Src: rowLo + VertexID(s), Dst: colLo + VertexID(d)}
		}
	}
	return nil
}

// cellRangeError reports the first endpoint of edge i outside its range.
func cellRangeError(i int, s, d, srcLim, dstLim uint64) error {
	if s >= srcLim {
		return fmt.Errorf("graph: compressed cell edge %d source offset %d outside range of %d", i, s, srcLim)
	}
	return fmt.Errorf("graph: compressed cell edge %d destination offset %d outside range of %d", i, d, dstLim)
}
