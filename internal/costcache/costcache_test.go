package costcache

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestLoadMissingFileIsEmpty(t *testing.T) {
	f, err := Load(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil {
		t.Fatalf("Load missing: %v", err)
	}
	if len(f.Graphs) != 0 {
		t.Fatalf("missing file produced %d entries", len(f.Graphs))
	}
	if f.Priors("rmat-s16") != nil {
		t.Fatal("empty cache returned priors")
	}
}

func TestRecordSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "costs.json")
	f, _ := Load(path)
	f.Record("rmat-s16", map[string]float64{
		"adjacency/pull/no-lock": 1.25,
		"grid/push/no-lock":      2.5,
		"bogus/zero":             0, // dropped: non-positive means unmeasured
	})
	if err := f.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}

	g, err := Load(path)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	priors := g.Priors("rmat-s16")
	if priors["adjacency/pull/no-lock"] != 1.25 || priors["grid/push/no-lock"] != 2.5 {
		t.Fatalf("round trip lost values: %v", priors)
	}
	if _, ok := priors["bogus/zero"]; ok {
		t.Fatal("non-positive cost was persisted")
	}

	// Latest-wins merge on an existing entry.
	g.Record("rmat-s16", map[string]float64{"grid/push/no-lock": 2.0})
	if g.Priors("rmat-s16")["grid/push/no-lock"] != 2.0 {
		t.Fatal("Record did not overwrite with the latest measurement")
	}
}

func TestLoadRejectsGarbageAndWrongVersion(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.json")
	os.WriteFile(garbage, []byte("not json"), 0o644)
	if _, err := Load(garbage); err == nil {
		t.Fatal("garbage cache loaded without error")
	}
	wrongVer := filepath.Join(dir, "v9.json")
	os.WriteFile(wrongVer, []byte(`{"version":9,"graphs":{}}`), 0o644)
	if _, err := Load(wrongVer); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong version not rejected: %v", err)
	}
}

func TestKey(t *testing.T) {
	if k := Key("pagerank", "", "rmat", 20); k != "pagerank@rmat-s20" {
		t.Fatalf("generated key = %q", k)
	}
	// Nonexistent file: base name alone (no size qualifier to add).
	if k := Key("bfs", "/data/stores/tw.egs", "rmat", 20); k != "bfs@tw.egs" {
		t.Fatalf("file key = %q", k)
	}
	// Different algorithms on the same dataset must never share an entry:
	// per-edge cost is a property of the kernel, and a dense algorithm
	// frozen on another kernel's measurements would never re-choose.
	if Key("bfs", "g.egs", "", 0) == Key("pagerank", "g.egs", "", 0) {
		t.Fatal("algorithms share a cache key")
	}
	// Same base name, different graphs (sizes): distinct keys.
	dir := t.TempDir()
	small, big := filepath.Join(dir, "a", "g.egs"), filepath.Join(dir, "b", "g.egs")
	os.MkdirAll(filepath.Dir(small), 0o755)
	os.MkdirAll(filepath.Dir(big), 0o755)
	os.WriteFile(small, make([]byte, 100), 0o644)
	os.WriteFile(big, make([]byte, 200), 0o644)
	if Key("pagerank", small, "", 0) == Key("pagerank", big, "", 0) {
		t.Fatal("different graphs under the same file name share a cache key")
	}
}

// FuzzCostcacheDecode: Decode never panics, and any file it accepts survives
// Save and Load unchanged.
func FuzzCostcacheDecode(f *testing.F) {
	seedPath := filepath.Join(f.TempDir(), "costs.json")
	seed := &File{Version: Version, Graphs: map[string]map[string]float64{}}
	seed.Record("bfs@rmat-s12", map[string]float64{"adjacency/push/atomics": 1.25, "adjacency/pull/no-lock×64": 0.5})
	seed.Record("pagerank@g.egs#4096", map[string]float64{"grid/16@s1/pull/no-lock": 3e-7})
	if err := seed.Save(seedPath); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"version":4,"graphs":null}`))
	f.Add([]byte(`{"version":4,"graphs":{"a":null,"b":{"x":-0}}}`))
	f.Add([]byte(`{"version":3,"graphs":{}}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Decode(data)
		if err != nil {
			return
		}
		path := filepath.Join(t.TempDir(), "costs.json")
		if err := file.Save(path); err != nil {
			t.Fatalf("Save: %v", err)
		}
		again, err := Load(path)
		if err != nil {
			t.Fatalf("Load of a saved cache: %v", err)
		}
		if !reflect.DeepEqual(again, file) {
			t.Fatalf("Save/Load changed the cache: %+v, want %+v", again, file)
		}
	})
}
