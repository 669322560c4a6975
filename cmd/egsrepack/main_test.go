package main

import (
	"path/filepath"
	"strings"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/costcache"
	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/oocore"
)

// TestRunNamesARunnableMeasuringCommand: with a cost cache that holds no
// streamed measurements for the store, run refuses and names the egraph
// command that would record them. That command must parse: the store goes
// in -store (egraph's -source is a vertex id) and an algorithm is named.
func TestRunNamesARunnableMeasuringCommand(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "small.egs")
	g := gen.RMAT(gen.RMATOptions{Scale: 8, EdgeFactor: 4, Seed: 1})
	if _, err := oocore.BuildStoreFromGraph(in, g, 4, false); err != nil {
		t.Fatalf("BuildStoreFromGraph: %v", err)
	}
	cache := filepath.Join(dir, "costs.json")
	if err := (&costcache.File{Version: costcache.Version}).Save(cache); err != nil {
		t.Fatalf("Save: %v", err)
	}
	err := run(in, filepath.Join(dir, "out.egs"), 0, "keep", cache)
	if err == nil {
		t.Fatal("run with an empty cost cache succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, "-store "+in) || !strings.Contains(msg, "-algorithm ") {
		t.Errorf("error %q does not name `-algorithm ... -store %s`", msg, in)
	}
	if strings.Contains(msg, "-source") {
		t.Errorf("error %q suggests -source, which is egraph's vertex flag", msg)
	}
}
