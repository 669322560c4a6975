package costcache_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/core"
	"github.com/epfl-repro/everythinggraph/internal/costcache"
	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/prep"
)

// costKeys returns the sorted key set of a cost map.
func costKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestPlanCostsRoundTripThroughCache drives the full warm-start loop the
// cost cache exists for: an adaptive run's measured plan costs, recorded
// into a cache file, saved, reloaded and fed back as the next run's priors,
// must preserve the cost-key set exactly at every hop — the planner can
// only warm-start from keys that bit-match what it exports. Dense PageRank
// is used because the adaptive planner freezes it on one candidate
// deterministically, so the measured key set is stable across runs.
func TestPlanCostsRoundTripThroughCache(t *testing.T) {
	g := gen.RMAT(gen.RMATOptions{Scale: 10, EdgeFactor: 8, Seed: 3})
	if err := prep.BuildAdjacency(g, prep.InOut, prep.Options{Method: prep.RadixSort}); err != nil {
		t.Fatal(err)
	}
	graphKey := costcache.Key("pagerank", "", "rmat", 10)
	path := filepath.Join(t.TempDir(), "costs.json")

	// Cold run: no priors, planner measures.
	res, err := core.Run(g, algorithms.NewPageRank(), core.Config{Flow: core.Auto})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PlanCosts) == 0 {
		t.Fatal("adaptive run exported no measured plan costs")
	}
	wantKeys := costKeys(res.PlanCosts)

	// Seed: record into a fresh cache, save, reload.
	cache, err := costcache.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	cache.Record(graphKey, res.PlanCosts)
	if err := cache.Save(path); err != nil {
		t.Fatal(err)
	}
	reloaded, err := costcache.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	priors := reloaded.Priors(graphKey)
	if got := costKeys(priors); !reflect.DeepEqual(got, wantKeys) {
		t.Fatalf("reloaded prior keys %v != measured cost keys %v", got, wantKeys)
	}

	// Warm run: seeded with the reloaded priors, the run must export the
	// same key set it was seeded from.
	warm, err := core.Run(g, algorithms.NewPageRank(), core.Config{Flow: core.Auto, CostPriors: priors})
	if err != nil {
		t.Fatal(err)
	}
	if got := costKeys(warm.PlanCosts); !reflect.DeepEqual(got, wantKeys) {
		t.Fatalf("warm run cost keys %v != seed keys %v", got, wantKeys)
	}

	// Append: recording the warm measurements into the reloaded cache and
	// cycling through disk again must leave the key set unchanged.
	reloaded.Record(graphKey, warm.PlanCosts)
	if err := reloaded.Save(path); err != nil {
		t.Fatal(err)
	}
	final, err := costcache.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := costKeys(final.Priors(graphKey)); !reflect.DeepEqual(got, wantKeys) {
		t.Fatalf("appended cache keys %v != original keys %v", got, wantKeys)
	}
}

// TestStalePinnedEntrySeedsNothingAndSurvives: version-4 caches written
// while node-pinned plans or the in-memory compressed grid existed may hold
// "@n<K>" or "compressed/<P>/…" labels. No resident candidate carries
// either label any more, so such an entry seeds nothing — the warm run
// measures exactly what a cold one does — and recording into the cache
// leaves it in the file untouched.
func TestStalePinnedEntrySeedsNothingAndSurvives(t *testing.T) {
	g := gen.RMAT(gen.RMATOptions{Scale: 10, EdgeFactor: 8, Seed: 3})
	if err := prep.BuildAdjacency(g, prep.InOut, prep.Options{Method: prep.RadixSort}); err != nil {
		t.Fatal(err)
	}
	graphKey := costcache.Key("pagerank", "", "rmat", 10)
	const staleCost = 0.001 // cheaper than anything real
	for _, stale := range []string{"adjacency/pull/no-lock@n0", "compressed/32/pull/no-lock"} {
		t.Run(stale, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "costs.json")
			doc := fmt.Sprintf(`{"version": %d, "graphs": {%q: {%q: %v}}}`, costcache.Version, graphKey, stale, staleCost)
			if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
				t.Fatal(err)
			}
			cache, err := costcache.Load(path)
			if err != nil {
				t.Fatalf("a version-%d cache with an %q entry must load: %v", costcache.Version, stale, err)
			}

			cold, err := core.Run(g, algorithms.NewPageRank(), core.Config{Flow: core.Auto})
			if err != nil {
				t.Fatal(err)
			}
			warm, err := core.Run(g, algorithms.NewPageRank(), core.Config{Flow: core.Auto, CostPriors: cache.Priors(graphKey)})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := costKeys(warm.PlanCosts), costKeys(cold.PlanCosts); !reflect.DeepEqual(got, want) {
				t.Fatalf("seeded with only a stale entry, the run measured %v; a cold run measures %v", got, want)
			}
			if got, want := warm.PlanTrace(), cold.PlanTrace(); !reflect.DeepEqual(got, want) {
				t.Fatalf("stale entry changed the plan: %v, cold %v", got, want)
			}

			cache.Record(graphKey, warm.PlanCosts)
			if err := cache.Save(path); err != nil {
				t.Fatal(err)
			}
			reloaded, err := costcache.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			priors := reloaded.Priors(graphKey)
			if priors[stale] != staleCost {
				t.Fatalf("stale entry after Record/Save/Load = %v, want %v untouched", priors[stale], staleCost)
			}
			if len(priors) != len(warm.PlanCosts)+1 {
				t.Fatalf("reloaded entry holds %v, want the stale label plus %v", costKeys(priors), costKeys(warm.PlanCosts))
			}
		})
	}
}
