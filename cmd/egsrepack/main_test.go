package main

import (
	"path/filepath"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/oocore"
)

// TestRunRepacksAtTheRequestedRung: -p picks a rung of the source's ladder,
// 0 keeps the source's resolution, and a P off the ladder is refused.
func TestRunRepacksAtTheRequestedRung(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "small.egs")
	g := gen.RMAT(gen.RMATOptions{Scale: 8, EdgeFactor: 4, Seed: 1})
	if _, err := oocore.BuildStoreFromGraph(in, g, 4, false); err != nil {
		t.Fatalf("BuildStoreFromGraph: %v", err)
	}
	for _, c := range []struct{ p, want int }{{2, 2}, {0, 4}} {
		out := filepath.Join(dir, "out.egs")
		if err := run(in, out, c.p, "keep"); err != nil {
			t.Fatalf("run -p %d: %v", c.p, err)
		}
		st, err := oocore.Open(out)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if got := st.GridP(); got != c.want {
			t.Errorf("-p %d repacked at P=%d, want %d", c.p, got, c.want)
		}
		st.Close()
	}
	if err := run(in, filepath.Join(dir, "bad.egs"), 3, "keep"); err == nil {
		t.Error("-p 3 is not a rung of a P=4 store's ladder, but run succeeded")
	}
}
