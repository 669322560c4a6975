package storage

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"

	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
)

func randomEdges(n, m int, seed int64) []graph.Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{
			Src: graph.VertexID(rng.Intn(n)),
			Dst: graph.VertexID(rng.Intn(n)),
			W:   graph.Weight(rng.Intn(100)) / 4,
		}
	}
	return edges
}

func TestBinaryRoundTrip(t *testing.T) {
	edges := randomEdges(1000, 5000, 1)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, edges); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	if buf.Len() != len(edges)*EdgeBytes {
		t.Fatalf("encoded size %d, want %d", buf.Len(), len(edges)*EdgeBytes)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if len(got) != len(edges) {
		t.Fatalf("decoded %d edges, want %d", len(got), len(edges))
	}
	for i := range edges {
		if got[i] != edges[i] {
			t.Fatalf("edge %d: got %+v, want %+v", i, got[i], edges[i])
		}
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		edges := randomEdges(64, int(uint(seed)%200), seed)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, edges); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(edges) {
			return false
		}
		for i := range edges {
			if got[i] != edges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReadBinaryTruncated(t *testing.T) {
	edges := randomEdges(10, 3, 2)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, edges); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadBinary(bytes.NewReader(truncated)); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestTextRoundTrip(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1, W: 1.5}, {Src: 7, Dst: 3, W: 2}}
	var buf bytes.Buffer
	if err := WriteText(&buf, edges); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if len(got) != 2 || got[0] != edges[0] || got[1] != edges[1] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestReadTextFormats(t *testing.T) {
	input := strings.Join([]string{
		"# comment line",
		"% matrix market comment",
		"",
		"0 1",          // unweighted -> weight 1
		"2 3 4.5",      // weighted
		"  5   6   7 ", // extra whitespace
	}, "\n")
	got, err := ReadText(strings.NewReader(input))
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	want := []graph.Edge{{Src: 0, Dst: 1, W: 1}, {Src: 2, Dst: 3, W: 4.5}, {Src: 5, Dst: 6, W: 7}}
	if len(got) != len(want) {
		t.Fatalf("decoded %d edges, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"1",          // too few fields
		"a b",        // bad source
		"1 b",        // bad destination
		"1 2 weight", // bad weight
	}
	for _, c := range cases {
		if _, err := ReadText(strings.NewReader(c)); err == nil {
			t.Errorf("input %q: expected error", c)
		}
	}
}

// FuzzReadText: the text loader never panics, names the line of every
// error, and any input it accepts writes back through WriteText to text that
// reads as the same edges (weights compared as bits: NaN is a legal weight).
func FuzzReadText(f *testing.F) {
	var rmat bytes.Buffer
	g := gen.RMAT(gen.RMATOptions{Scale: 5, EdgeFactor: 4, Seed: 1, Weighted: true, Workers: 1})
	if err := WriteText(&rmat, g.EdgeArray.Edges); err != nil {
		f.Fatal(err)
	}
	f.Add(rmat.Bytes())
	for _, s := range []string{
		"# comment\n% comment\n\n0 1\n2 3 4.5\n",
		"  5\t6  \r\n7 8 -0\n9 10 NaN\n11 12 -Inf\n",
		"1\n", "a b\n", "1 b\n", "1 2 weight\n", "1 2 1e39\n", "4294967296 1\n",
		"",
	} {
		f.Add([]byte(s))
	}
	lineErr := regexp.MustCompile(`^storage: line [1-9][0-9]*: `)
	f.Fuzz(func(t *testing.T, data []byte) {
		edges, err := ReadText(bytes.NewReader(data))
		if err != nil {
			if !lineErr.MatchString(err.Error()) {
				t.Fatalf("error names no line: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, edges); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		again, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("written text does not read back: %v", err)
		}
		if len(again) != len(edges) {
			t.Fatalf("read back %d edges, want %d", len(again), len(edges))
		}
		for i, e := range edges {
			a := again[i]
			if a.Src != e.Src || a.Dst != e.Dst || math.Float32bits(a.W) != math.Float32bits(e.W) {
				t.Fatalf("edge %d: read back %+v, want %+v", i, a, e)
			}
		}
	})
}

// oddWeights are the float32 bit patterns a decode through float values
// could alter: NaNs with payloads (quiet and signalling), -0, subnormals
// and the infinities.
var oddWeights = []uint32{0x7fc00001, 0xffc12345, 0x7f800001, 0x80000000, 0x00000001, 0x807fffff, 0x7f800000, 0xff800000}

// TestRecordsBitExact: every weight bit pattern survives WriteBinary then
// ReadBinary, seekable and not, and the bytes written are exactly the
// little-endian fields of each edge.
func TestRecordsBitExact(t *testing.T) {
	edges := make([]graph.Edge, len(oddWeights))
	var want []byte
	for i, b := range oddWeights {
		edges[i] = graph.Edge{Src: uint32(i), Dst: 1 << 31, W: math.Float32frombits(b)}
		want = binary.LittleEndian.AppendUint32(want, edges[i].Src)
		want = binary.LittleEndian.AppendUint32(want, edges[i].Dst)
		want = binary.LittleEndian.AppendUint32(want, b)
	}
	data := encoded(t, edges)
	if !bytes.Equal(data, want) {
		t.Fatalf("WriteBinary wrote % x, want % x", data, want)
	}
	for name, r := range map[string]io.Reader{
		"seekable":     bytes.NewReader(data),
		"not seekable": iotest.HalfReader(bytes.NewReader(data)),
	} {
		got, err := ReadBinary(r)
		if err != nil || len(got) != len(edges) {
			t.Fatalf("%s: ReadBinary = %d edges, %v", name, len(got), err)
		}
		for i, e := range got {
			if e.Src != edges[i].Src || e.Dst != edges[i].Dst || math.Float32bits(e.W) != oddWeights[i] {
				t.Fatalf("%s: edge %d read back as %+v (weight bits %#x), want weight bits %#x",
					name, i, e, math.Float32bits(e.W), oddWeights[i])
			}
		}
	}
}
