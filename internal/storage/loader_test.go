package storage

import (
	"bytes"
	"testing"
	"time"

	"github.com/epfl-repro/everythinggraph/internal/graph"
)

func encodeEdges(t *testing.T, edges []graph.Edge) *bytes.Reader {
	t.Helper()
	return bytes.NewReader(encoded(t, edges))
}

func TestLoadOverlappedDeliversAllEdges(t *testing.T) {
	edges := randomEdges(100, 777, 1)
	res, err := LoadOverlapped(encodeEdges(t, edges), Memory, 100, nil)
	if err != nil {
		t.Fatalf("LoadOverlapped: %v", err)
	}
	if len(res.Edges) != len(edges) {
		t.Fatalf("loaded %d edges, want %d", len(res.Edges), len(edges))
	}
	for i := range edges {
		if res.Edges[i] != edges[i] {
			t.Fatalf("edge %d mismatch", i)
		}
	}
	if res.Chunks != 8 { // 777 edges in chunks of 100
		t.Fatalf("chunks = %d, want 8", res.Chunks)
	}
	if res.LoadTime != 0 {
		t.Fatalf("memory device must have zero load time, got %v", res.LoadTime)
	}
}

func TestLoadOverlappedConsumerSeesEveryEdgeOnce(t *testing.T) {
	edges := randomEdges(50, 333, 2)
	var seen []graph.Edge
	res, err := LoadOverlapped(encodeEdges(t, edges), SSD, 64, func(chunk []graph.Edge) {
		seen = append(seen, chunk...)
	})
	if err != nil {
		t.Fatalf("LoadOverlapped: %v", err)
	}
	if len(seen) != len(edges) {
		t.Fatalf("consumer saw %d edges, want %d", len(seen), len(edges))
	}
	if res.ConsumeTime < 0 {
		t.Fatal("negative consume time")
	}
	if res.EndToEnd < res.LoadTime {
		t.Fatalf("end-to-end %v must cover the load time %v", res.EndToEnd, res.LoadTime)
	}
}

// TestLoadOverlappedHidesFastConsumer: a consumer much faster than the
// device adds (almost) nothing to the end-to-end time — the overlap
// argument behind the dynamic builder's win on slow devices (Table 3).
func TestLoadOverlappedHidesFastConsumer(t *testing.T) {
	edges := randomEdges(64, 5000, 3)
	res, err := LoadOverlapped(encodeEdges(t, edges), HDD, 512, func([]graph.Edge) {})
	if err != nil {
		t.Fatalf("LoadOverlapped: %v", err)
	}
	// The no-op consumer costs microseconds; the simulated HDD load of
	// 5000 edges (60 KB at 100 MB/s) is ~600µs. End-to-end must stay within
	// a small factor of the pure load time.
	if res.EndToEnd > res.LoadTime*3/2 {
		t.Fatalf("fast consumer not hidden: end-to-end %v vs load %v", res.EndToEnd, res.LoadTime)
	}
}

// TestLoadOverlappedSlowConsumerDominates: when the consumer is slower than
// the device, the end-to-end time tracks the consumer, not the device.
func TestLoadOverlappedSlowConsumerDominates(t *testing.T) {
	edges := randomEdges(64, 200, 4)
	perChunk := 2 * time.Millisecond
	res, err := LoadOverlapped(encodeEdges(t, edges), SSD, 50, func([]graph.Edge) {
		time.Sleep(perChunk)
	})
	if err != nil {
		t.Fatalf("LoadOverlapped: %v", err)
	}
	if res.EndToEnd < 4*perChunk {
		t.Fatalf("end-to-end %v should be dominated by 4 chunks x %v of consumer work", res.EndToEnd, perChunk)
	}
	if res.ConsumeTime < 4*perChunk {
		t.Fatalf("consume time %v too small", res.ConsumeTime)
	}
}

func TestLoadOverlappedTruncatedInput(t *testing.T) {
	edges := randomEdges(10, 5, 5)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, edges); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-3]
	if _, err := LoadOverlapped(bytes.NewReader(data), Memory, 2, nil); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestLoadOverlappedEmptyInput(t *testing.T) {
	res, err := LoadOverlapped(bytes.NewReader(nil), SSD, 0, nil)
	if err != nil {
		t.Fatalf("LoadOverlapped: %v", err)
	}
	if len(res.Edges) != 0 || res.Chunks != 0 || res.EndToEnd != 0 {
		t.Fatalf("empty input result = %+v", res)
	}
}
