package core

import (
	"fmt"
	"strings"
	"sync"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/sched"
)

// BatchKind names the algorithm a batched query set runs. Only the
// traversal algorithms batch: their per-vertex state is one bit (BFS) or
// one distance (SSSP) per source, which is what the bit-parallel masks
// exploit. Dense whole-graph algorithms gain nothing from batching — their
// sweeps already touch every edge for one "query".
type BatchKind int

const (
	// BatchBFS batches breadth-first traversals (algorithms.MultiBFS).
	BatchBFS BatchKind = iota
	// BatchSSSP batches shortest-path computations (algorithms.MultiSSSP).
	BatchSSSP
)

// BatchSourceResult is one query's share of a batched run, fanned back out
// of the group sweep it rode in.
type BatchSourceResult struct {
	// Source is the query's root.
	Source graph.VertexID
	// Parent and Level are the per-vertex BFS tree and depths (BatchBFS
	// only; nil for BatchSSSP).
	Parent []int32
	Level  []int32
	// Dist is the per-vertex distance array (BatchSSSP only; nil for
	// BatchBFS).
	Dist []float32
	// Run is the engine result of the group sweep; queries of the same
	// group share it.
	Run *Result
}

// Batch answers many same-algorithm queries with as few engine runs as
// possible: sources are merged into bit-parallel groups of up to
// graph.MaxMultiWidth (one MultiBFS/MultiSSSP sweep each — 64 traversals
// for the per-edge price of a handful of word operations), and when more
// than one group is needed the groups execute CONCURRENTLY, each on its own
// pool lease. The planner extends across the queries: every group's sweep
// is planned per iteration as usual, and the lease widths split the
// configured workers in proportion to each group's predicted scan volume
// under the cost model (cfg.CostPriors, the persisted cost cache) so a
// narrower remainder group does not hold a full-width worker share idle.
//
// cfg applies to every group sweep, with two adjustments: cfg.Trace (a
// single-run recorder) attaches to the first group only, and
// cfg.CostPriors is forwarded to the runs only under Flow == Auto (static
// flows reject priors; Batch still reads them for the worker split). If the
// caller already holds cfg.Lease, the groups run sequentially on it — the
// lease is the unit of concurrency, and nesting leases inside leases is not
// supported.
func Batch(g *graph.Graph, kind BatchKind, sources []graph.VertexID, cfg Config) ([]BatchSourceResult, error) {
	if kind != BatchBFS && kind != BatchSSSP {
		return nil, fmt.Errorf("core: unknown batch kind %d", int(kind))
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("core: batch needs at least one source")
	}
	n := g.NumVertices()
	for _, s := range sources {
		if int(s) >= n {
			return nil, fmt.Errorf("core: batch source %d out of range (graph has %d vertices)", s, n)
		}
	}

	var groups [][]graph.VertexID
	for lo := 0; lo < len(sources); lo += graph.MaxMultiWidth {
		hi := lo + graph.MaxMultiWidth
		if hi > len(sources) {
			hi = len(sources)
		}
		groups = append(groups, sources[lo:hi])
	}

	kernels := make([]Algorithm, len(groups))
	for i, grp := range groups {
		switch kind {
		case BatchBFS:
			kernels[i] = algorithms.NewMultiBFS(grp)
		case BatchSSSP:
			kernels[i] = algorithms.NewMultiSSSP(grp)
		}
	}

	runs := make([]*Result, len(groups))
	if len(groups) == 1 || cfg.Lease != nil {
		// One sweep, or a caller-held lease: nothing to split, and the groups
		// run sequentially — so each completed sweep's measured per-plan costs
		// seed the next group's cost model, which therefore starts from this
		// run's measurements instead of hand priors (the serving-side re-plan
		// from measured costs; labels carry the batch width, so only matching
		// populations seed).
		priors := cfg.CostPriors
		for i, alg := range kernels {
			cfgG := groupConfig(cfg, i)
			if cfgG.Flow == Auto {
				cfgG.CostPriors = priors
			}
			res, err := Run(g, alg, cfgG)
			if err != nil {
				return nil, err
			}
			runs[i] = res
			if cfg.Flow == Auto && len(res.PlanCosts) > 0 {
				priors = mergeCosts(priors, res.PlanCosts)
			}
		}
	} else if err := runGroupsLeased(g, kernels, groups, cfg, runs); err != nil {
		return nil, err
	}

	out := make([]BatchSourceResult, 0, len(sources))
	for i, grp := range groups {
		for s, src := range grp {
			r := BatchSourceResult{Source: src, Run: runs[i]}
			switch kern := kernels[i].(type) {
			case *algorithms.MultiBFS:
				r.Parent = kern.Parents(s)
				r.Level = kern.Levels(s)
			case *algorithms.MultiSSSP:
				r.Dist = kern.Distances(s)
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// runGroupsLeased executes one engine run per group concurrently, each on a
// lease sized from the group's predicted scan volume.
func runGroupsLeased(g *graph.Graph, kernels []Algorithm, groups [][]graph.VertexID, cfg Config, runs []*Result) error {
	total := resolveWorkers(cfg)
	shares := batchWorkerShares(groups, cfg.CostPriors, total)

	pool := sched.DefaultPool()
	var wg sync.WaitGroup
	errs := make([]error, len(groups))
	for i := range groups {
		cfgG := groupConfig(cfg, i)
		lease := pool.Lease(shares[i])
		cfgG.Lease = lease
		cfgG.Workers = shares[i]
		wg.Add(1)
		go func(i int, alg Algorithm, cfgG Config, lease *sched.Lease) {
			defer wg.Done()
			defer lease.Release()
			runs[i], errs[i] = Run(g, alg, cfgG)
		}(i, kernels[i], cfgG, lease)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// mergeCosts overlays measured per-plan costs onto a base prior map without
// mutating either (the base may be the caller's CostPriors).
func mergeCosts(base, measured map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(base)+len(measured))
	for k, v := range base {
		out[k] = v
	}
	for k, v := range measured {
		if v > 0 {
			out[k] = v
		}
	}
	return out
}

// groupConfig adapts the caller's Config to group i: the (single-run) trace
// recorder stays with the first group only, and cost priors are forwarded
// only to flows that accept them.
func groupConfig(cfg Config, i int) Config {
	out := cfg
	if i > 0 {
		out.Trace = nil
	}
	if out.Flow != Auto {
		out.CostPriors = nil
	}
	return out
}

// batchWorkerShares splits total workers over the groups in proportion to
// their predicted scan volumes: group width × the cost cache's cheapest
// measured ns/edge for that batch width (the "×k"-labelled entries written
// by previous batched runs). With no usable cache the volumes reduce to the
// widths, which still sizes a narrow remainder group below the full ones.
// Every group gets at least one worker (a width-1 lease runs serially on
// its own goroutine, still concurrent with the other groups).
func batchWorkerShares(groups [][]graph.VertexID, priors map[string]float64, total int) []int {
	vols := make([]float64, len(groups))
	var volSum float64
	for i, grp := range groups {
		vols[i] = float64(len(grp)) * predictedScanCost(priors, len(grp))
		volSum += vols[i]
	}
	shares := make([]int, len(groups))
	remaining := total
	for i := range groups {
		share := int(float64(total)*vols[i]/volSum + 0.5)
		if share < 1 {
			share = 1
		}
		if max := remaining - (len(groups) - 1 - i); share > max && max >= 1 {
			share = max
		}
		shares[i] = share
		remaining -= share
	}
	return shares
}

// predictedScanCost returns the cost cache's cheapest positive ns/edge
// entry for batch width k — the labels a previous ×k run measured, which end
// in exactly "×k" (so ×6 never reads a ×64 entry) — or 1 when the cache has
// no matching entry (leaving the split proportional to the widths alone).
func predictedScanCost(priors map[string]float64, k int) float64 {
	suffix := fmt.Sprintf("×%d", k)
	best := 0.0
	for label, c := range priors {
		if c <= 0 {
			continue
		}
		if k > 1 {
			if !strings.HasSuffix(label, suffix) {
				continue
			}
		} else if strings.Contains(label, "×") {
			continue
		}
		if best == 0 || c < best {
			best = c
		}
	}
	if best == 0 {
		return 1
	}
	return best
}
