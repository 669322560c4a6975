// Package costcache persists the adaptive planner's measured per-edge plan
// costs across processes. The planner's cost model starts from hand-ordered
// priors (internal/core, plan.go); a run that measured real iterations
// exports its per-plan ns/edge figures (core.Result.PlanCosts), and feeding
// them back on the next run (core.Config.CostPriors) makes the planner's
// very first layout/direction comparison use measurements instead of
// guesses. The cache is a small JSON file keyed by algorithm and dataset
// (graph name and scale, or a store's file name; see Key) — per-edge cost
// is a property of the kernel as much as of the plan, so runs of different
// algorithms never seed each other — and one file serves a whole benchmark
// campaign.
package costcache

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// Version is bumped on incompatible format changes. Version 2: grid plan
// labels carry their resolution ("grid/256/push/no-lock"), so version-1
// caches' grid entries would silently never match a candidate again —
// rejecting the old file loudly beats a warm start that quietly degrades
// to cold priors. Version 3: streamed plan labels carry the store format
// version and virtual level ("grid/256@s1/...", "compressed/64@s2/...") —
// before the provenance, a v1 and a v2 store of the same graph shared a
// label and silently cross-seeded each other's measured byte costs.
// Version 4: node-pinned plan labels carried their NUMA placement
// ("grid/128/pull/no-lock@n0") so that pinned and interleaved measurements
// of one kernel never cross-seeded. Pinning has since been removed; the
// version stays, because an "@n<K>" entry left in a version-4 file matches
// no candidate and is ignored like any unknown key. The same holds for the
// "×<k>" entries that bit-parallel multi-source sweeps once recorded.
const Version = 4

// File is the decoded cache: per run label (see Key), the measured ns per
// scanned edge of every plan the adaptive planner exercised (keyed by the
// plan label, e.g. "adjacency/pull/no-lock").
type File struct {
	Version int                           `json:"version"`
	Graphs  map[string]map[string]float64 `json:"graphs"`
}

// Load reads the cache at path. A missing file is an empty cache, not an
// error; a malformed or incompatible file is an error (better to surface it
// than to silently overwrite someone's data with an empty cache on Save).
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return &File{Version: Version, Graphs: map[string]map[string]float64{}}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("costcache: read %s: %w", path, err)
	}
	f, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("costcache: %s: %w", path, err)
	}
	return f, nil
}

// Decode parses a cache from its JSON bytes — the Load path without the
// filesystem, for caches committed into a binary via go:embed (the
// benchmark suite's warm-start seed).
func Decode(data []byte) (*File, error) {
	f := &File{Version: Version, Graphs: map[string]map[string]float64{}}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	if f.Version != Version {
		return nil, fmt.Errorf("version %d, want %d", f.Version, Version)
	}
	if f.Graphs == nil {
		f.Graphs = map[string]map[string]float64{}
	}
	return f, nil
}

// Priors returns the cached measurements for a run label (nil when that
// algorithm/dataset pair has never been measured) in the exact shape
// Config.CostPriors takes.
func (f *File) Priors(graphKey string) map[string]float64 {
	return f.Graphs[graphKey]
}

// Record merges a run's measured costs into the dataset's entry,
// latest-wins per plan. Non-positive values are dropped — they mean "not
// measured", never "free".
func (f *File) Record(graphKey string, costs map[string]float64) {
	if len(costs) == 0 {
		return
	}
	m := f.Graphs[graphKey]
	if m == nil {
		m = make(map[string]float64, len(costs))
		f.Graphs[graphKey] = m
	}
	for plan, per := range costs {
		if per > 0 {
			m[plan] = per
		}
	}
}

// Save writes the cache atomically (unique temp file + rename), so a run
// killed mid-save never truncates the cache the next run would load and
// two concurrent savers never trip over each other's temp file. The write
// itself is last-writer-wins whole-file replacement: concurrent runs
// against one cache keep the file valid, but the later saver's view of the
// earlier one's additions depends on load order — serialize campaign runs
// that share a cache if every measurement must stick.
func (f *File) Save(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("costcache: encode: %w", err)
	}
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("costcache: temp file: %w", err)
	}
	_, werr := tmp.Write(append(data, '\n'))
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("costcache: write %s: %w", tmp.Name(), werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("costcache: rename: %w", err)
	}
	return nil
}

// Key derives the label a CLI should cache a run under:
// "<algorithm>@<dataset>", where the dataset part is "<generator>-s<scale>"
// for generated graphs and, for file-backed inputs (edge lists, grid
// stores), the base name qualified by the file's size — two different
// graphs stored under the same file name in different directories must not
// seed each other, and the size is a scale proxy the CLI can read before
// paying to open the dataset. The algorithm is part of the key because
// per-edge cost is a property of the algorithm's kernel as much as of the
// plan — BFS's near-empty edge function and PageRank's accumulation
// measure very differently on the same layout, and seeding one from the
// other would freeze a dense run on an ordering that held for a different
// kernel.
func Key(algorithm, inputPath, generator string, scale int) string {
	dataset := fmt.Sprintf("%s-s%d", generator, scale)
	if inputPath != "" {
		dataset = filepath.Base(inputPath)
		if info, err := os.Stat(inputPath); err == nil {
			dataset = fmt.Sprintf("%s#%d", dataset, info.Size())
		}
	}
	return fmt.Sprintf("%s@%s", algorithm, dataset)
}
