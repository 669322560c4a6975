package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestRegistryComplete checks that every figure and table of the paper's
// evaluation has a registered experiment, except the three that are not
// reproduced because they need hardware this reproduction does not model:
// Section 7 (a multi-node NUMA host), Table 3 (loading from an SSD and an
// HDD) and Table 4 (LLC miss ratios read from hardware counters).
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig3", "fig5", "fig6", "fig7", "fig8",
		"table1", "table2", "table5", "table6",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	// Ablation experiments beyond the paper's figures are allowed; the
	// registry must contain at least the paper's results.
	if len(All()) < len(want) {
		t.Errorf("registry has %d experiments, want at least %d", len(All()), len(want))
	}
	ablations := []string{"ablation-grid", "ablation-alpha", "ablation-prep", "ablation-workers"}
	for _, id := range ablations {
		if _, ok := ByID(id); !ok {
			t.Errorf("ablation experiment %q not registered", id)
		}
	}
}

// TestAllExperimentsRunAtQuickScale executes every experiment at the Quick
// scale and checks that each produces a non-empty report mentioning its
// configurations.
func TestAllExperimentsRunAtQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers are slow in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(Quick, &buf); err != nil {
				t.Fatalf("experiment %s failed: %v", e.ID, err)
			}
			out := buf.String()
			if len(strings.TrimSpace(out)) == 0 {
				t.Fatalf("experiment %s produced no output", e.ID)
			}
			if !strings.Contains(out, "==") {
				t.Fatalf("experiment %s output missing table header:\n%s", e.ID, out)
			}
		})
	}
}

// TestByIDUnknown checks the negative lookup path.
func TestByIDUnknown(t *testing.T) {
	if _, ok := ByID("fig999"); ok {
		t.Fatal("expected lookup of unknown experiment to fail")
	}
}

// TestIDsSorted checks that IDs returns a sorted, duplicate-free list.
func TestIDsSorted(t *testing.T) {
	ids := IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("IDs not strictly sorted: %q >= %q", ids[i-1], ids[i])
		}
	}
}
