package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// widthCases are the range sizes at and around every offset-width boundary,
// with the width each must select.
var widthCases = []struct {
	rangeSize, width int
}{
	{1, 1},
	{256, 1},
	{257, 2},
	{1 << 16, 2},
	{1<<16 + 1, 3},
	{1<<24 + 1, 4},
	{1 << 31, 4},
}

// randomCellEdges produces n pairs confined to the cell at (rowLo, colLo),
// the first two at the range's extremes.
func randomCellEdges(rng *rand.Rand, n int, rowLo, colLo VertexID, rangeSize int) []Pair {
	edges := make([]Pair, n)
	for i := range edges {
		s, d := rng.Intn(rangeSize), rng.Intn(rangeSize)
		switch i {
		case 0:
			s, d = 0, rangeSize-1
		case 1:
			s, d = rangeSize-1, 0
		}
		edges[i] = Pair{Src: rowLo + VertexID(s), Dst: colLo + VertexID(d)}
	}
	return edges
}

func encodeCell(edges []Pair, rowLo, colLo VertexID, rangeSize int) []byte {
	w := CellOffsetWidth(rangeSize)
	var buf []byte
	for _, e := range edges {
		buf = AppendCellEdge(buf, e.Src-rowLo, e.Dst-colLo, w)
	}
	return buf
}

func TestCellOffsetWidth(t *testing.T) {
	for _, tc := range widthCases {
		if got := CellOffsetWidth(tc.rangeSize); got != tc.width {
			t.Errorf("CellOffsetWidth(%d) = %d, want %d", tc.rangeSize, got, tc.width)
		}
	}
}

func TestCellCodecRoundTripPreservesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range widthCases {
		t.Run(fmt.Sprintf("range%d", tc.rangeSize), func(t *testing.T) {
			// The cell sits in the second row and column; for 2^31-wide ranges
			// its last id is the last 32-bit id.
			rowLo, colLo := VertexID(tc.rangeSize), VertexID(tc.rangeSize)
			numVertices := 2 * tc.rangeSize
			for _, n := range []int{0, 2, 17, 1024} {
				edges := randomCellEdges(rng, n, rowLo, colLo, tc.rangeSize)
				buf := encodeCell(edges, rowLo, colLo, tc.rangeSize)
				if len(buf) != 2*tc.width*n {
					t.Fatalf("n=%d: %d payload bytes, want %d", n, len(buf), 2*tc.width*n)
				}
				got := make([]Pair, n)
				if err := DecodeCell(buf, n, rowLo, colLo, tc.rangeSize, numVertices, got); err != nil {
					t.Fatalf("n=%d: decode: %v", n, err)
				}
				for i := range edges {
					if got[i] != edges[i] {
						t.Fatalf("n=%d: edge %d decoded as %v, want %v (order must be preserved)", n, i, got[i], edges[i])
					}
				}
			}
		})
	}
}

// TestCellCodecWorstCaseBound: the widest offsets — a 2^31-wide range —
// cost exactly 8 bytes per edge, the most any cell payload can take.
func TestCellCodecWorstCaseBound(t *testing.T) {
	const rangeSize = 1 << 31
	edges := []Pair{
		{Src: rangeSize - 1, Dst: rangeSize - 1},
		{Src: 0, Dst: 0},
		{Src: rangeSize - 1, Dst: 0},
	}
	buf := encodeCell(edges, 0, 0, rangeSize)
	if len(buf) != 8*len(edges) {
		t.Fatalf("encoded %d edges into %d bytes, want %d", len(edges), len(buf), 8*len(edges))
	}
	got := make([]Pair, len(edges))
	if err := DecodeCell(buf, len(edges), 0, 0, rangeSize, rangeSize, got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range edges {
		if got[i] != edges[i] {
			t.Fatalf("edge %d decoded as %v, want %v", i, got[i], edges[i])
		}
	}
}

func TestDecodeCellRejectsCorruptPayloads(t *testing.T) {
	for _, tc := range widthCases {
		t.Run(fmt.Sprintf("range%d", tc.rangeSize), func(t *testing.T) {
			rs, w := tc.rangeSize, tc.width
			rowLo, colLo := VertexID(0), VertexID(rs)
			numVertices := 2 * rs
			edges := []Pair{{Src: VertexID(rs - 1), Dst: colLo}, {Src: 0, Dst: colLo + VertexID(rs-1)}}
			buf := encodeCell(edges, rowLo, colLo, rs)
			scratch := make([]Pair, 8)
			decode := func(data []byte, count, numVertices int) error {
				return DecodeCell(data, count, rowLo, colLo, rs, numVertices, scratch)
			}
			if err := decode(buf, len(edges), numVertices); err != nil {
				t.Fatalf("valid payload rejected: %v", err)
			}
			if decode(buf[:len(buf)-1], len(edges), numVertices) == nil {
				t.Error("payload one byte short decoded without error")
			}
			if decode(append(append([]byte{}, buf...), 0), len(edges), numVertices) == nil {
				t.Error("payload with a trailing byte decoded without error")
			}
			if decode(buf, len(edges)+1, numVertices) == nil {
				t.Error("inflated count decoded without error")
			}
			if decode(buf, len(scratch)+1, numVertices) == nil {
				t.Error("count beyond scratch decoded without error")
			}
			// An offset equal to the range size, wherever w bytes can hold it.
			if uint64(rs) < 1<<(8*w) {
				for side := 0; side < 2; side++ {
					bad := append([]byte{}, buf...)
					off := side * w
					copy(bad[off:off+w], AppendCellEdge(nil, uint32(rs), uint32(rs), w)[:w])
					if decode(bad, len(edges), numVertices) == nil {
						t.Errorf("offset %d on side %d decoded without error", rs, side)
					}
				}
			}
			// The last range extends past the vertex count: the cell's top id on
			// either side is then outside the graph.
			if decode(buf, len(edges), numVertices-1) == nil {
				t.Error("destination at the vertex count decoded without error")
			}
			if decode(buf, len(edges), rs-1) == nil {
				t.Error("cell past the vertex count decoded without error")
			}
		})
	}
}

// TestDecodeCellLastRangePastNumVertices: a 1,000-vertex graph on 256-wide
// ranges ends mid-range; ids up to 999 decode, 1,000 and beyond do not.
func TestDecodeCellLastRangePastNumVertices(t *testing.T) {
	const rs, n = 256, 1000
	lo := VertexID(768)
	scratch := make([]Pair, 1)
	ok := encodeCell([]Pair{{Src: n - 1, Dst: n - 1}}, lo, lo, rs)
	if err := DecodeCell(ok, 1, lo, lo, rs, n, scratch); err != nil || scratch[0] != (Pair{Src: n - 1, Dst: n - 1}) {
		t.Fatalf("last vertex decoded as %v, err %v", scratch[0], err)
	}
	for _, e := range []Pair{{Src: n, Dst: lo}, {Src: lo, Dst: n}, {Src: lo + rs - 1, Dst: lo}} {
		if DecodeCell(encodeCell([]Pair{e}, lo, lo, rs), 1, lo, lo, rs, n, scratch) == nil {
			t.Errorf("edge %v past %d vertices decoded without error", e, n)
		}
	}
}

func FuzzDecodeCell(f *testing.F) {
	rowLo, colLo := VertexID(64), VertexID(128)
	f.Add(encodeCell([]Pair{{Src: 70, Dst: 130}, {Src: 64, Dst: 128}}, rowLo, colLo, 64), uint16(2), uint32(rowLo), uint32(colLo), uint32(64), uint64(256))
	f.Add(encodeCell([]Pair{{Src: 0, Dst: 70000}}, 0, 65537, 65537), uint16(1), uint32(0), uint32(65537), uint32(65537), uint64(1<<17))
	f.Add([]byte{}, uint16(0), uint32(0), uint32(0), uint32(16), uint64(16))
	f.Add(encodeCell([]Pair{{Src: 1 << 30, Dst: 0}}, 0, 0, 1<<31), uint16(1), uint32(0), uint32(0), uint32(1<<31), uint64(1<<31))
	f.Add([]byte{0x40, 0x00}, uint16(1), uint32(0), uint32(0), uint32(64), uint64(256))
	f.Fuzz(func(t *testing.T, data []byte, count uint16, rowLo, colLo, rangeSize uint32, numVertices uint64) {
		scratch := make([]Pair, count)
		nv := int(min(numVertices, 1<<32))
		if err := DecodeCell(data, int(count), rowLo, colLo, int(rangeSize), nv, scratch); err != nil {
			return
		}
		// A payload the checked decoder accepts must round-trip exactly: the
		// fixed-width form has one encoding per edge, so re-encoding the
		// decoded edges has to reproduce the input bytes.
		w := CellOffsetWidth(int(rangeSize))
		var buf []byte
		for _, e := range scratch[:count] {
			for _, side := range []struct{ v, lo VertexID }{{e.Src, rowLo}, {e.Dst, colLo}} {
				if side.v < side.lo || uint64(side.v) >= uint64(side.lo)+uint64(rangeSize) || uint64(side.v) >= numVertices {
					t.Fatalf("decoded endpoint %d outside [%d,%d) or past %d vertices",
						side.v, side.lo, uint64(side.lo)+uint64(rangeSize), numVertices)
				}
			}
			buf = AppendCellEdge(buf, e.Src-rowLo, e.Dst-colLo, w)
		}
		if !bytes.Equal(buf, data) {
			t.Fatalf("accepted payload does not round-trip: %x decoded then re-encoded to %x", data, buf)
		}
	})
}

// BenchmarkCellEncode measures the per-edge cost of the encoder on a dense
// cell of 1,024-wide ranges (2-byte offsets).
func BenchmarkCellEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const rangeSize = 1 << 10
	edges := randomCellEdges(rng, 1<<14, 0, 0, rangeSize)
	w := CellOffsetWidth(rangeSize)
	buf := make([]byte, 0, len(edges)*2*w)
	b.SetBytes(int64(len(edges)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for _, e := range edges {
			buf = AppendCellEdge(buf, e.Src, e.Dst, w)
		}
	}
}

// BenchmarkDecodeCell measures the per-edge cost of the checked decoder —
// the work a compressed store puts on every streamed pass — at each offset
// width, reported as ns/edge.
func BenchmarkDecodeCell(b *testing.B) {
	for _, rangeSize := range []int{1 << 8, 1 << 16, 1 << 24, 1 << 31} {
		w := CellOffsetWidth(rangeSize)
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			edges := randomCellEdges(rng, 1<<14, 0, 0, rangeSize)
			payload := encodeCell(edges, 0, 0, rangeSize)
			scratch := make([]Pair, len(edges))
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := DecodeCell(payload, len(edges), 0, 0, rangeSize, rangeSize, scratch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(edges)), "ns/edge")
		})
	}
}
