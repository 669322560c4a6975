package graph

import (
	"bytes"
	"math/rand"
	"testing"
)

// randomCellEdges produces n edges confined to the cell at (rowLo, colLo).
func randomCellEdges(rng *rand.Rand, n int, rowLo, colLo VertexID, rangeSize int) []Edge {
	edges := make([]Edge, n)
	for i := range edges {
		edges[i] = Edge{
			Src: rowLo + VertexID(rng.Intn(rangeSize)),
			Dst: colLo + VertexID(rng.Intn(rangeSize)),
		}
	}
	return edges
}

func encodeCell(edges []Edge, rowLo, colLo VertexID) []byte {
	var enc CellEncoder
	enc.Reset(rowLo, colLo)
	var buf []byte
	for _, e := range edges {
		buf = enc.Append(buf, e.Src, e.Dst)
	}
	return buf
}

func TestCellCodecRoundTripPreservesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 17, 1024} {
		rowLo, colLo := VertexID(512), VertexID(2560)
		edges := randomCellEdges(rng, n, rowLo, colLo, 256)
		buf := encodeCell(edges, rowLo, colLo)
		got := make([]Edge, n)
		if err := DecodeCell(buf, n, rowLo, colLo, 256, got); err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		for i := range edges {
			if got[i] != edges[i] {
				t.Fatalf("n=%d: edge %d decoded as %v, want %v (order must be preserved)", n, i, got[i], edges[i])
			}
		}
	}
}

func TestCellCodecWorstCaseBound(t *testing.T) {
	// Extremes of a maximal range: alternating far deltas force the widest
	// varints the codec can emit.
	rangeSize := 1 << 31
	edges := []Edge{
		{Src: VertexID(rangeSize - 1), Dst: VertexID(rangeSize - 1)},
		{Src: 0, Dst: 0},
		{Src: VertexID(rangeSize - 1), Dst: VertexID(rangeSize - 1)},
	}
	buf := encodeCell(edges, 0, 0)
	if len(buf) > len(edges)*MaxEncodedEdgeBytes {
		t.Fatalf("encoded %d edges into %d bytes, bound is %d", len(edges), len(buf), len(edges)*MaxEncodedEdgeBytes)
	}
	got := make([]Edge, len(edges))
	if err := DecodeCell(buf, len(edges), 0, 0, rangeSize, got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range edges {
		if got[i] != edges[i] {
			t.Fatalf("edge %d decoded as %v, want %v", i, got[i], edges[i])
		}
	}
}

func TestDecodeCellRejectsCorruptPayloads(t *testing.T) {
	rowLo, colLo := VertexID(0), VertexID(256)
	edges := []Edge{{Src: 3, Dst: 300}, {Src: 200, Dst: 257}, {Src: 7, Dst: 511}}
	buf := encodeCell(edges, rowLo, colLo)
	scratch := make([]Edge, 8)

	if err := DecodeCell(buf, len(edges), rowLo, colLo, 256, scratch); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	// Truncated mid-varint.
	if err := DecodeCell(buf[:len(buf)-1], len(edges), rowLo, colLo, 256, scratch); err == nil {
		t.Fatal("truncated payload decoded without error")
	}
	// Trailing bytes after the promised count.
	if err := DecodeCell(append(append([]byte{}, buf...), 0), len(edges), rowLo, colLo, 256, scratch); err == nil {
		t.Fatal("payload with trailing bytes decoded without error")
	}
	// Count larger than the payload holds.
	if err := DecodeCell(buf, len(edges)+1, rowLo, colLo, 256, scratch); err == nil {
		t.Fatal("inflated count decoded without error")
	}
	// Count overflowing the scratch must fail before any decode.
	if err := DecodeCell(buf, len(scratch)+1, rowLo, colLo, 256, scratch); err == nil {
		t.Fatal("count beyond scratch decoded without error")
	}
	// A source offset outside the range.
	bad := encodeCell([]Edge{{Src: 300, Dst: 300}}, rowLo, colLo)
	if err := DecodeCell(bad, 1, rowLo, colLo, 256, scratch); err == nil {
		t.Fatal("out-of-range source decoded without error")
	}
	// An overlong varint (non-minimal zero continuation).
	if err := DecodeCell([]byte{0x80, 0x00, 0x00}, 1, rowLo, colLo, 256, scratch); err == nil {
		t.Fatal("non-minimal varint decoded without error")
	}
}

func FuzzDecodeCell(f *testing.F) {
	rowLo, colLo := VertexID(64), VertexID(128)
	f.Add(encodeCell([]Edge{{Src: 70, Dst: 130}, {Src: 64, Dst: 128}}, rowLo, colLo), uint16(2), uint32(rowLo), uint32(colLo), uint16(64))
	f.Add(encodeCell([]Edge{{Src: 0, Dst: 0}}, 0, 0), uint16(1), uint32(0), uint32(0), uint16(1))
	f.Add([]byte{}, uint16(0), uint32(0), uint32(0), uint16(16))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x07, 0x00}, uint16(1), uint32(0), uint32(0), uint16(0xffff))
	f.Add([]byte{0x80}, uint16(1), uint32(0), uint32(0), uint16(8))
	f.Fuzz(func(t *testing.T, data []byte, count uint16, rowLo, colLo uint32, rangeSize uint16) {
		scratch := make([]Edge, count)
		err := DecodeCell(data, int(count), rowLo, colLo, int(rangeSize), scratch)
		if err != nil {
			return
		}
		// A payload the checked decoder accepts must round-trip exactly: the
		// varint form is canonical, so re-encoding the decoded edges has to
		// reproduce the input bytes.
		var enc CellEncoder
		enc.Reset(rowLo, colLo)
		var buf []byte
		for _, e := range scratch[:count] {
			if e.Src < rowLo || uint64(e.Src) >= uint64(rowLo)+uint64(rangeSize) {
				t.Fatalf("decoded source %d outside [%d,%d)", e.Src, rowLo, uint64(rowLo)+uint64(rangeSize))
			}
			if e.Dst < colLo || uint64(e.Dst) >= uint64(colLo)+uint64(rangeSize) {
				t.Fatalf("decoded destination %d outside [%d,%d)", e.Dst, colLo, uint64(colLo)+uint64(rangeSize))
			}
			buf = enc.Append(buf, e.Src, e.Dst)
		}
		if !bytes.Equal(buf, data) {
			t.Fatalf("accepted payload does not round-trip: %x decoded then re-encoded to %x", data, buf)
		}
	})
}

// BenchmarkCellEncode measures the per-edge cost of the delta+varint
// encoder on a realistic dense cell.
func BenchmarkCellEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const rangeSize = 1 << 10
	edges := randomCellEdges(rng, 1<<14, 0, 0, rangeSize)
	buf := make([]byte, 0, len(edges)*MaxEncodedEdgeBytes)
	b.SetBytes(int64(len(edges)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var enc CellEncoder
		enc.Reset(0, 0)
		buf = buf[:0]
		for _, e := range edges {
			buf = enc.Append(buf, e.Src, e.Dst)
		}
	}
}

// BenchmarkDecodeCell measures the per-edge cost of the checked streaming
// decoder — the work a compressed store puts on every streamed pass.
func BenchmarkDecodeCell(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const rangeSize = 1 << 10
	edges := randomCellEdges(rng, 1<<14, 0, 0, rangeSize)
	payload := encodeCell(edges, 0, 0)
	scratch := make([]Edge, len(edges))
	b.SetBytes(int64(len(edges)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeCell(payload, len(edges), 0, 0, rangeSize, scratch); err != nil {
			b.Fatal(err)
		}
	}
}
