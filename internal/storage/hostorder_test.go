package storage_test

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/oocore"
	"github.com/epfl-repro/everythinggraph/internal/storage"
)

// TestBigEndianHostRefused: on a host whose byte order is not the records',
// a []graph.Edge is not its own on-disk form, so every reader and writer of
// binary records — ReadBinary, BinaryWriter, the store builder and
// oocore.NewStore — refuses with one error instead of misreading.
func TestBigEndianHostRefused(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1, W: 1}}
	var data bytes.Buffer
	if err := storage.WriteBinary(&data, edges); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	path := filepath.Join(t.TempDir(), "graph.egs")
	if _, err := oocore.BuildStore(path, oocore.BuildOptions{NumVertices: 2}, oocore.SliceStream(edges, 0)); err != nil {
		t.Fatalf("BuildStore: %v", err)
	}

	storage.SetLittleEndian(t, false)
	want := storage.HostOrder()
	if want == nil || want.Error() != "storage: binary edge records need a little-endian host" {
		t.Fatalf("HostOrder on a big-endian host = %v", want)
	}
	_, errRead := storage.ReadBinary(bytes.NewReader(data.Bytes()))
	errWrite := storage.NewBinaryWriter(&bytes.Buffer{}).Write(edges)
	_, errOpen := oocore.Open(path)
	_, errBuild := oocore.BuildStore(filepath.Join(t.TempDir(), "again.egs"), oocore.BuildOptions{NumVertices: 2}, oocore.SliceStream(edges, 0))
	for name, err := range map[string]error{"ReadBinary": errRead, "BinaryWriter": errWrite, "NewStore": errOpen, "BuildStore": errBuild} {
		if !errors.Is(err, want) {
			t.Errorf("%s on a big-endian host returned %v, want %v", name, err, want)
		}
	}
}
