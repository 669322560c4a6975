package oocore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/core"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/sched"
)

// Test backends: a slow device and a device that fails one read on cue.
// Both sit under the store at the Backend seam, so the streamer, the
// fetchers and the slot rings see them exactly as they would a real file.

// storeImage builds a store for g (compressed selects the version-3 format)
// and returns the file's bytes.
func storeImage(t testing.TB, g *graph.Graph, gridP int, compressed bool) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "graph.egs")
	if _, err := buildFormat(compressed)(path, g, gridP, false); err != nil {
		t.Fatalf("build store: %v", err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// slowBackend is a device of fixed bandwidth: every ReadAt sleeps for
// len(p) bytes at bytesPerSec before it returns the data.
type slowBackend struct {
	data        []byte
	bytesPerSec float64
}

func (b slowBackend) ReadAt(p []byte, off int64) (int, error) {
	time.Sleep(time.Duration(float64(len(p)) / b.bytesPerSec * float64(time.Second)))
	return bytes.NewReader(b.data).ReadAt(p, off)
}

// openSlowStore opens a store image behind a slowBackend of mbps MB/s.
func openSlowStore(t *testing.T, img []byte, mbps float64) *Store {
	t.Helper()
	s, err := NewStore(slowBackend{data: img, bytesPerSec: mbps * 1e6}, int64(len(img)))
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// faultKind is how faultBackend fails its armed read.
type faultKind int

const (
	faultEIO   faultKind = iota // an error from the device
	faultShort                  // half the bytes and a nil error
	faultEOF                    // half the bytes and io.EOF, mid-file
)

func (k faultKind) String() string { return [...]string{"eio", "short", "eof"}[k] }

// faultBackend serves a store image and, once armed, fails the k-th read
// after arming (1-based) in the armed way; every other read succeeds.
// reads counts every ReadAt since the last arm or disarm.
type faultBackend struct {
	data  []byte
	armed atomic.Bool
	kind  faultKind
	k     int64
	reads atomic.Int64
}

// errInjectedEIO is the device error faultEIO returns; it wraps EIO as a
// real failing disk would.
var errInjectedEIO = fmt.Errorf("injected: %w", syscall.EIO)

func (b *faultBackend) arm(kind faultKind, k int64) {
	b.kind, b.k = kind, k
	b.reads.Store(0)
	b.armed.Store(true)
}

func (b *faultBackend) disarm() {
	b.armed.Store(false)
	b.reads.Store(0)
}

func (b *faultBackend) ReadAt(p []byte, off int64) (int, error) {
	n := b.reads.Add(1)
	if b.armed.Load() && n == b.k {
		switch b.kind {
		case faultEIO:
			return 0, errInjectedEIO
		case faultShort:
			return copy(p[:len(p)/2], b.data[off:]), nil
		case faultEOF:
			return copy(p[:len(p)/2], b.data[off:]), io.EOF
		}
	}
	return bytes.NewReader(b.data).ReadAt(p, off)
}

// TestStreamedRunSurvivesStorageFaults puts a failing device under a
// streamed PageRank. Each fault — EIO, a short read, io.EOF mid-file — on
// the first, a middle and the last data read of a pass, solo and on a
// 2-worker lease, must come back from core.RunStreamed as an error. With
// the fault disarmed, the same store then reruns bit-identical to the
// in-memory grid, and Close returns every goroutine the store started.
func TestStreamedRunSurvivesStorageFaults(t *testing.T) {
	g := testGraph(t, 10, false)
	const p = 8
	img := storeImage(t, g, p, false)
	g.Grid = memGrid(t, g, p, false)
	want := algorithms.NewPageRank()
	want.Iterations = 3
	if _, err := core.Run(g, want, gridConfig(core.Push)); err != nil {
		t.Fatalf("in-memory run: %v", err)
	}
	cfg := streamConfig(core.Push, 64<<10)
	cfg.Workers = 2

	// Data reads in one healthy pass, counted on a store of its own.
	s, err := openImage(img)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := s.StreamCells(core.StreamOptions{Workers: cfg.Workers, MemoryBudget: cfg.MemoryBudget}, func(int, []graph.Pair, []graph.Weight) {}); err != nil {
		t.Fatalf("probe pass: %v", err)
	}
	perPass := s.Stats().Reads
	s.Close()
	if perPass < 3 {
		t.Fatalf("a pass issued %d data reads; the cases need at least 3", perPass)
	}

	for _, leased := range []bool{false, true} {
		for _, kind := range []faultKind{faultEIO, faultShort, faultEOF} {
			for _, k := range []int64{1, perPass / 2, perPass} {
				name := fmt.Sprintf("%v/read=%d/%d", kind, k, perPass)
				if leased {
					name = "leased/" + name
				}
				t.Run(name, func(t *testing.T) {
					before := runtime.NumGoroutine()
					b := &faultBackend{data: img}
					s, err := NewStore(b, int64(len(img)))
					if err != nil {
						t.Fatalf("NewStore: %v", err)
					}
					cfg := cfg
					if leased {
						lease := sched.DefaultPool().Lease(2)
						defer lease.Release()
						cfg.Lease = lease
					}

					b.arm(kind, k)
					pr := algorithms.NewPageRank()
					pr.Iterations = 3
					_, err = core.RunStreamed(s, pr, cfg)
					wantErr := io.ErrUnexpectedEOF
					if kind == faultEIO {
						wantErr = errInjectedEIO
					}
					if !errors.Is(err, wantErr) {
						t.Fatalf("run with a failing read returned %v, want %v", err, wantErr)
					}

					b.disarm()
					pr = algorithms.NewPageRank()
					pr.Iterations = 3
					if _, err := core.RunStreamed(s, pr, cfg); err != nil {
						t.Fatalf("rerun after the fault: %v", err)
					}
					for v := range want.Rank {
						if pr.Rank[v] != want.Rank[v] {
							t.Fatalf("rank[%d] = %v after the fault, %v in-memory", v, pr.Rank[v], want.Rank[v])
						}
					}

					if err := s.Close(); err != nil {
						t.Fatalf("Close: %v", err)
					}
					deadline := time.Now().Add(time.Second)
					for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
						time.Sleep(5 * time.Millisecond)
					}
					if n := runtime.NumGoroutine(); n > before {
						t.Fatalf("%d goroutines after Close, %d before open", n, before)
					}
				})
			}
		}
	}
}

// TestNewStoreSurfacesStorageFaults: a fault on the header read (read 1) or
// the metadata read (read 2) fails NewStore with an error that names the
// cause, and opens nothing.
func TestNewStoreSurfacesStorageFaults(t *testing.T) {
	img := storeImage(t, testGraph(t, 8, false), 4, false)
	for _, kind := range []faultKind{faultEIO, faultShort, faultEOF} {
		for _, k := range []int64{1, 2} {
			b := &faultBackend{data: img}
			b.arm(kind, k)
			s, err := NewStore(b, int64(len(img)))
			wantErr := io.ErrUnexpectedEOF
			if kind == faultEIO {
				wantErr = errInjectedEIO
			}
			if s != nil || !errors.Is(err, wantErr) {
				t.Errorf("%v on read %d: NewStore returned (%v, %v), want (nil, %v)", kind, k, s, err, wantErr)
			}
		}
	}
}
