package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/iotest"

	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
)

func encoded(t testing.TB, edges []graph.Edge) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, edges); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	return buf.Bytes()
}

// checkBinaryLoaders feeds the bytes r yields to ReadBinary and requires it
// to return exactly want, or an error with exactly the text wantErr.
func checkBinaryLoaders(t *testing.T, name string, r func() io.Reader, want []graph.Edge, wantErr string) {
	t.Helper()
	got, err := ReadBinary(r())
	if (err == nil) != (wantErr == "") || (err != nil && err.Error() != wantErr) {
		t.Errorf("%s: error %v, want %q", name, err, wantErr)
		return
	}
	if wantErr == "" && !slices.Equal(got, want) {
		t.Errorf("%s: ReadBinary returned %d edges, want the %d written", name, len(got), len(want))
	}
}

// TestReadBinaryReaderKinds: what is loaded depends on the bytes only, not
// on whether the reader can seek, where it stands, how it splits its reads
// or how it reports the end. 300,000 edges outgrow the first capacity a
// reader that cannot seek gets several times over.
func TestReadBinaryReaderKinds(t *testing.T) {
	edges := randomEdges(1<<20, 300_000, 11)
	data := encoded(t, edges)
	path := filepath.Join(t.TempDir(), "edges.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	file := func(offset int64) io.Reader {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		if _, err := f.Seek(offset, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		return f
	}
	small := data[:100*EdgeBytes]
	broken := errors.New("device failed")
	const truncated = "storage: truncated edge record after %d edges"
	for _, c := range []struct {
		name    string
		r       func() io.Reader
		want    []graph.Edge
		wantErr string
	}{
		{"bytes.Reader", func() io.Reader { return bytes.NewReader(data) }, edges, ""},
		{"file", func() io.Reader { return file(0) }, edges, ""},
		{"file past offset 0", func() io.Reader { return file(1000 * EdgeBytes) }, edges[1000:], ""},
		{"file at its end", func() io.Reader { return file(int64(len(data))) }, nil, ""},
		{"empty bytes.Reader", func() io.Reader { return bytes.NewReader(nil) }, nil, ""},
		{"empty, not seekable", func() io.Reader { return iotest.DataErrReader(bytes.NewReader(nil)) }, nil, ""},
		{"file at a record's middle", func() io.Reader { return file(5) }, nil, fmt.Sprintf(truncated, len(edges)-1)},
		{"bytes.Reader past offset 0", func() io.Reader {
			r := bytes.NewReader(data)
			r.Seek(7*EdgeBytes, io.SeekStart)
			return r
		}, edges[7:], ""},
		{"SectionReader longer than its data, past offset 0", func() io.Reader {
			r := io.NewSectionReader(bytes.NewReader(data), 3*EdgeBytes, int64(len(data)))
			r.Seek(2*EdgeBytes, io.SeekStart)
			return r
		}, edges[5:], ""},
		{"MultiReader", func() io.Reader {
			return io.MultiReader(bytes.NewReader(data[:17]), bytes.NewReader(data[17:]))
		}, edges, ""},
		{"OneByteReader", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(small)) }, edges[:100], ""},
		{"DataErrReader", func() io.Reader { return iotest.DataErrReader(bytes.NewReader(data)) }, edges, ""},
		{"truncated, not seekable", func() io.Reader {
			return iotest.HalfReader(bytes.NewReader(data[:len(data)-1]))
		}, nil, fmt.Sprintf(truncated, len(edges)-1)},
		{"TimeoutReader", func() io.Reader {
			return iotest.TimeoutReader(iotest.HalfReader(bytes.NewReader(data)))
		}, nil, "storage: read edge: timeout"},
		{"ErrReader after whole records", func() io.Reader {
			return io.MultiReader(bytes.NewReader(small), iotest.ErrReader(broken))
		}, nil, "storage: read edge: device failed"},
	} {
		checkBinaryLoaders(t, c.name, c.r, c.want, c.wantErr)
	}
	if _, err := ReadBinary(io.MultiReader(bytes.NewReader(small), iotest.ErrReader(broken))); !errors.Is(err, broken) {
		t.Errorf("read error not wrapped: %v", err)
	}
}

// FuzzReadBinary: 12k bytes decode to k edges that encode back to the same
// bytes; any other length is the truncation error naming the whole records
// before it. A seekable and a streamed (not seekable, EOF with the last
// data) read agree, and neither panics.
func FuzzReadBinary(f *testing.F) {
	data := encoded(f, randomEdges(1000, 64, 12))
	for _, n := range []int{len(data), len(data) - 1, len(data) - 11, 13, 12, 1, 0} {
		f.Add(data[:n])
	}
	// Past the first capacity a reader that cannot seek gets, whole and cut.
	grown := encoded(f, randomEdges(1000, minReadEdges+1, 13))
	f.Add(grown)
	f.Add(grown[:len(grown)-5])
	f.Fuzz(func(t *testing.T, data []byte) {
		edges, err := ReadBinary(bytes.NewReader(data))
		streamed, errS := ReadBinary(iotest.DataErrReader(bytes.NewReader(data)))
		if (err == nil) != (errS == nil) || (err != nil && err.Error() != errS.Error()) {
			t.Fatalf("ReadBinary: %v, streamed: %v", err, errS)
		}
		if len(data)%EdgeBytes != 0 {
			want := fmt.Sprintf("storage: truncated edge record after %d edges", len(data)/EdgeBytes)
			if err == nil || err.Error() != want {
				t.Fatalf("%d bytes: error %v, want %s", len(data), err, want)
			}
			return
		}
		if err != nil {
			t.Fatalf("%d bytes: %v", len(data), err)
		}
		// Weights are compared as bits: a NaN weight is a legal record.
		if again := encoded(t, edges); !bytes.Equal(again, data) {
			t.Fatalf("%d edges do not encode back to the %d bytes read", len(edges), len(data))
		}
		if again := encoded(t, streamed); !bytes.Equal(again, data) {
			t.Fatalf("streamed: %d edges do not encode back to the %d bytes read", len(streamed), len(data))
		}
	})
}

// BenchmarkReadBinary loads an RMAT-16 edge file (1M edges, 12 MB) out of
// memory; -bench prints MB/s.
func BenchmarkReadBinary(b *testing.B) {
	data := encoded(b, gen.RMAT(gen.RMATOptions{Scale: 16, Seed: 1}).EdgeArray.Edges)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteBinary is the encoder's side of the same file.
func BenchmarkWriteBinary(b *testing.B) {
	edges := gen.RMAT(gen.RMATOptions{Scale: 16, Seed: 1}).EdgeArray.Edges
	b.SetBytes(int64(len(edges)) * EdgeBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteBinary(io.Discard, edges); err != nil {
			b.Fatal(err)
		}
	}
}
