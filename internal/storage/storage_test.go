package storage

import (
	"bytes"
	"math"
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/prep"
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

func TestDeviceLoadTime(t *testing.T) {
	if Memory.LoadTime(1<<30) != 0 {
		t.Fatal("memory device must load instantly")
	}
	// 380 MB at 380 MB/s is one second.
	if got := SSD.LoadTime(380e6); got != time.Second {
		t.Fatalf("SSD load time = %v, want 1s", got)
	}
	// HDD is 3.8x slower than SSD for the same bytes.
	ratio := float64(HDD.LoadTime(1e9)) / float64(SSD.LoadTime(1e9))
	if ratio < 3.7 || ratio > 3.9 {
		t.Fatalf("HDD/SSD ratio = %.2f, want 3.8", ratio)
	}
	if SSD.EdgeLoadTime(1000) != SSD.LoadTime(1000*EdgeBytes) {
		t.Fatal("EdgeLoadTime inconsistent with LoadTime")
	}
	if SSD.LoadTime(-5) != 0 {
		t.Fatal("negative byte counts must not produce negative durations")
	}
}

func TestOverlapFraction(t *testing.T) {
	if OverlapFraction(prep.Dynamic, 1<<20) != 1.0 {
		t.Fatal("dynamic building must fully overlap with loading")
	}
	if OverlapFraction(prep.CountSort, 1<<20) != 0.5 {
		t.Fatal("count sort must overlap only its first pass")
	}
	radix := OverlapFraction(prep.RadixSort, 1<<20)
	if radix <= 0 || radix > 0.5 {
		t.Fatalf("radix overlap fraction %v out of range", radix)
	}
	// More vertices means more radix passes and therefore a smaller
	// overlappable fraction.
	if OverlapFraction(prep.RadixSort, 1<<24+1) >= OverlapFraction(prep.RadixSort, 1<<8) {
		t.Fatal("radix overlap fraction should shrink with pass count")
	}
	if OverlapFraction(prep.Method(99), 1024) != 0 {
		t.Fatal("unknown method must not overlap")
	}
}

func TestEndToEndPrepModel(t *testing.T) {
	load := 10 * time.Second
	prepTime := 4 * time.Second

	// Dynamic: fully hidden behind a slow load.
	if got := EndToEndPrep(load, prepTime, prep.Dynamic, 1<<20); got != load {
		t.Fatalf("dynamic end-to-end = %v, want %v", got, load)
	}
	// Radix: almost nothing overlaps, so the total is close to load+prep.
	got := EndToEndPrep(load, prepTime, prep.RadixSort, 1<<20)
	if got <= load || got > load+prepTime {
		t.Fatalf("radix end-to-end = %v, want in (%v, %v]", got, load, load+prepTime)
	}
	// With an instant load, every method costs its compute time.
	for _, m := range []prep.Method{prep.Dynamic, prep.CountSort, prep.RadixSort} {
		if got := EndToEndPrep(0, prepTime, m, 1<<20); got != prepTime {
			t.Fatalf("%v with instant load = %v, want %v", m, got, prepTime)
		}
	}
}

// TestEndToEndPrepDynamicWinsOnSlowDisk reproduces the qualitative claim of
// Table 3: when the device is slow, the dynamic approach (fully overlapped)
// beats radix sort even if its compute time is larger.
func TestEndToEndPrepDynamicWinsOnSlowDisk(t *testing.T) {
	load := HDD.EdgeLoadTime(50_000_000) // a large input on the slow disk
	dynCompute := 5 * time.Second
	radixCompute := 2 * time.Second
	dyn := EndToEndPrep(load, dynCompute, prep.Dynamic, 1<<26)
	radix := EndToEndPrep(load, radixCompute, prep.RadixSort, 1<<26)
	if dyn >= radix {
		t.Fatalf("dynamic (%v) should beat radix (%v) on the slow disk", dyn, radix)
	}
	// On an instant (in-memory) "device" the ordering flips.
	dynMem := EndToEndPrep(0, dynCompute, prep.Dynamic, 1<<26)
	radixMem := EndToEndPrep(0, radixCompute, prep.RadixSort, 1<<26)
	if radixMem >= dynMem {
		t.Fatalf("radix (%v) should beat dynamic (%v) when the graph is in memory", radixMem, dynMem)
	}
}

func TestWeightBitsRoundTrip(t *testing.T) {
	for _, w := range []graph.Weight{0, 1, 2.5, -3.75, 1e6} {
		if got := weightFromBits(weightBits(w)); got != w {
			t.Fatalf("weight %v round-tripped to %v", w, got)
		}
	}
}
