//go:build linux && (amd64 || arm64)

package oocore

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/core"
	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
)

// coldStore is a Store whose every streamed pass starts with the store
// file's pages dropped from the page cache, so each pass reads from the
// device, as it would for a graph larger than memory.
type coldStore struct {
	*Store
	fd uintptr
}

func (s *coldStore) StreamCells(opt core.StreamOptions, visit func(worker int, edges []graph.Edge)) error {
	if err := dropPageCache(s.fd); err != nil {
		return err
	}
	return s.Store.StreamCells(opt, visit)
}

// dropPageCache advises the kernel to drop a file's cached pages
// (posix_fadvise POSIX_FADV_DONTNEED over the whole file). The raw syscall
// passes offset and length in one register each, which holds on the 64-bit
// targets this file builds for.
func dropPageCache(fd uintptr) error {
	const fadvDontNeed = 4
	if _, _, errno := syscall.Syscall6(syscall.SYS_FADVISE64, fd, 0, 0, fadvDontNeed, 0, 0); errno != 0 {
		return fmt.Errorf("fadvise: %w", errno)
	}
	return nil
}

// BenchmarkStreamedPageRankCold is BenchmarkStreamedPageRank with the page
// cache dropped before every pass, over a v1 and a compressed store of the
// same RMAT-16 graph: the sample that decides whether fewer bytes read pay
// for the decode when the bytes come from the device. It reports the bytes
// read and the reads issued per op.
func BenchmarkStreamedPageRankCold(b *testing.B) {
	g := gen.RMAT(gen.RMATOptions{Scale: 16, EdgeFactor: 16, Seed: 42})
	for _, tc := range []struct {
		name       string
		compressed bool
	}{{"v1", false}, {"v3", true}} {
		b.Run(tc.name, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "cold.egs")
			if _, err := BuildStore(path, BuildOptions{NumVertices: g.NumVertices(), Compressed: tc.compressed},
				SliceStream(g.EdgeArray.Edges, 0)); err != nil {
				b.Fatalf("BuildStore: %v", err)
			}
			s, err := Open(path)
			if err != nil {
				b.Fatalf("Open: %v", err)
			}
			defer s.Close()
			cold := &coldStore{Store: s, fd: s.closer.(*os.File).Fd()}
			cfg := core.Config{
				Layout: graph.LayoutGrid, Flow: core.Pull, Sync: core.SyncPartitionFree,
				MemoryBudget: 32 << 20,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunStreamed(cold, algorithms.NewPageRank(), cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.Stats().BytesRead)/float64(b.N)/1e6, "MB/op")
			b.ReportMetric(float64(s.Stats().Reads)/float64(b.N), "reads/op")
		})
	}
}
