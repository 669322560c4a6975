package oocore

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/core"
	"github.com/epfl-repro/everythinggraph/internal/sched"
)

// openFDs counts the process's open file descriptors, skipping t where the
// system lists none in /proc/self/fd.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open file descriptors: %v", err)
	}
	return len(fds)
}

// TestFailingStreamedRunGivesBackFDs: on a real store file, a store that
// fails to open leaves no descriptor behind, and a streamed run over a store
// truncated after it opened returns an error — no panic, no hang — after
// which Close gives back every descriptor and goroutine the store took.
func TestFailingStreamedRunGivesBackFDs(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 10, false)
	good := filepath.Join(dir, "good.egs")
	if _, err := BuildStore(good, BuildOptions{NumVertices: g.NumVertices(), GridP: 8}, SliceStream(g.EdgeArray.Edges, 0)); err != nil {
		t.Fatalf("BuildStore: %v", err)
	}
	img, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	sched.DefaultPool() // the process-wide workers are not the store's

	t.Run("corrupt-metadata", func(t *testing.T) {
		bad := filepath.Join(dir, "corrupt.egs")
		flipped := append([]byte(nil), img...)
		flipped[headerSize] ^= 0xff
		if err := os.WriteFile(bad, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		fds := openFDs(t)
		if s, err := Open(bad); err == nil {
			s.Close()
			t.Fatal("Open accepted a store with a flipped metadata byte")
		}
		if n := openFDs(t); n != fds {
			t.Fatalf("%d descriptors open after the failed Open, %d before", n, fds)
		}
	})

	t.Run("truncated-mid-run", func(t *testing.T) {
		path := filepath.Join(dir, "truncated.egs")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		goroutines, fds := runtime.NumGoroutine(), openFDs(t)
		s, err := Open(path)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if err := os.Truncate(path, int64(len(img)/2)); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			pr := algorithms.NewPageRank()
			pr.Iterations = 3
			cfg := streamConfig(core.Push, 64<<10)
			cfg.Workers = 2
			_, err := core.RunStreamed(s, pr, cfg)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("a run over the truncated store returned %v, want %v", err, io.ErrUnexpectedEOF)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a run over the truncated store did not return")
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if n := openFDs(t); n != fds {
			t.Fatalf("%d descriptors open after Close, %d before Open", n, fds)
		}
		waitGoroutines(t, goroutines, "after Close")
	})
}
