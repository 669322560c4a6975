package core_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/core"
	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/metrics"
	"github.com/epfl-repro/everythinggraph/internal/oocore"
	"github.com/epfl-repro/everythinggraph/internal/prep"
)

// frozenPlan runs dense PageRank under Flow: Auto on two workers and
// returns its compressed plan trace. A dense run freezes the plan its
// priors pick, so the label is a pure function of the planner's cost model.
func frozenPlan(t *testing.T, run func(core.Algorithm, core.Config) (*core.Result, error)) string {
	t.Helper()
	res, err := run(algorithms.NewPageRank(), core.Config{Flow: core.Auto, Workers: 2})
	if err != nil {
		t.Fatalf("auto run: %v", err)
	}
	return metrics.CompressPlanTrace(res.PlanTrace())
}

// TestAutoDensePlanLabelsFrozen pins the plan the priors choose for dense
// PageRank where the grid is the cheapest layout Auto has: on grid-only RMAT
// graphs built at P=256, and on a store built at P=256 (over-partitioned at
// this scale). Every one runs grid push at the P it was built with.
func TestAutoDensePlanLabelsFrozen(t *testing.T) {
	for _, tc := range []struct {
		scale int
		want  string
	}{
		{12, "grid/push/no-lock x10"},
		{16, "grid/push/no-lock x10"},
	} {
		t.Run(fmt.Sprintf("grid-only RMAT-%d", tc.scale), func(t *testing.T) {
			g := gen.RMAT(gen.RMATOptions{Scale: tc.scale, EdgeFactor: 16, Seed: 42})
			if err := prep.BuildGrid(g, 256, prep.Options{Method: prep.RadixSort}); err != nil {
				t.Fatalf("BuildGrid: %v", err)
			}
			got := frozenPlan(t, func(alg core.Algorithm, cfg core.Config) (*core.Result, error) {
				return core.Run(g, alg, cfg)
			})
			if got != tc.want {
				t.Fatalf("plan %q, want %q", got, tc.want)
			}
		})
	}

	t.Run("RMAT-12 store", func(t *testing.T) {
		g := gen.RMAT(gen.RMATOptions{Scale: 12, EdgeFactor: 16, Seed: 42})
		path := filepath.Join(t.TempDir(), "rmat12.egs")
		if _, err := oocore.BuildStoreFromGraph(path, g, 256, false); err != nil {
			t.Fatalf("BuildStoreFromGraph: %v", err)
		}
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := oocore.NewStore(bytes.NewReader(img), int64(len(img)))
		if err != nil {
			t.Fatalf("NewStore: %v", err)
		}
		got := frozenPlan(t, func(alg core.Algorithm, cfg core.Config) (*core.Result, error) {
			return core.RunStreamed(s, alg, cfg)
		})
		if want := "grid/push/no-lock x10"; got != want {
			t.Fatalf("plan %q, want %q", got, want)
		}
	})
}
