// Command egsrepack rewrites a partitioned grid store (.egs) at a different
// resolution and/or format — the offline answer to a store the planner keeps
// streaming at a coarser virtual level. Virtual coarsening makes an
// over-partitioned store cheap to read without touching the file; repacking
// makes the fix permanent: the winning level becomes the store's physical P,
// every pass reads whole cells with no merge bookkeeping, and the metadata
// (cell index, per-cell CRCs) shrinks by the squared factor.
//
// The target level can be given explicitly (-p, which must be a rung of the
// store's virtual ladder) or chosen from measured costs (-cost-cache): the
// cache written by `egraph -cost-cache` keys each streamed plan by its
// resolution ("grid/64@s1/push/no-lock"), so the level real runs measured
// cheapest is picked, not a modeled guess. With neither, the store is
// re-encoded at its own resolution (a format-only repack).
//
// Output is always CRC-verified by reopening, and results are bit-identical
// to the source at any ladder level (see oocore.Repartition).
//
// Examples:
//
//	egsrepack -in rmat20.egs -out rmat20.p64.egs -p 64
//	egsrepack -in rmat20.egs -out rmat20.best.egs -cost-cache costs.json
//	egsrepack -in rmat20.egs -out rmat20c.egs -format v3
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/epfl-repro/everythinggraph/internal/costcache"
	"github.com/epfl-repro/everythinggraph/internal/oocore"
)

func main() {
	var (
		in        = flag.String("in", "", "source store (.egs) to repack (required)")
		out       = flag.String("out", "", "output store path (required)")
		targetP   = flag.Int("p", 0, "target grid dimension; must be a rung of the source's virtual ladder (0 = choose via -cost-cache, else keep)")
		format    = flag.String("format", "keep", "output format: keep | v1 | v3 (v3 = compressed segments)")
		cachePath = flag.String("cost-cache", "", "pick the target level with the lowest measured streamed cost for this store")
	)
	flag.Parse()
	if err := run(*in, *out, *targetP, *format, *cachePath); err != nil {
		fmt.Fprintf(os.Stderr, "egsrepack: %v\n", err)
		os.Exit(1)
	}
}

func run(in, out string, targetP int, format, cachePath string) error {
	if in == "" || out == "" {
		return fmt.Errorf("both -in and -out are required")
	}
	src, err := oocore.Open(in)
	if err != nil {
		return err
	}
	defer src.Close()

	compressed := src.Compressed()
	switch format {
	case "keep":
	case "v1":
		compressed = false
	case "v3":
		compressed = true
	default:
		return fmt.Errorf("unknown -format %q (keep | v1 | v3)", format)
	}

	how := "keeping source resolution"
	if targetP == 0 && cachePath != "" {
		best, cost, err := bestMeasuredLevel(cachePath, in)
		if err != nil {
			return err
		}
		if best == 0 {
			return fmt.Errorf("cost cache %s has no streamed measurements for %s — run `egraph -algorithm pagerank -store %s -flow auto -cost-cache %s` first", cachePath, in, in, cachePath)
		}
		targetP, how = best, fmt.Sprintf("measured cheapest at %.1f ns/edge", cost)
	} else if targetP != 0 {
		how = "requested"
	}
	if targetP == 0 {
		targetP = src.GridP()
	}

	h, err := oocore.Repartition(src, out, targetP, compressed)
	if err != nil {
		return err
	}
	fmtName := "v1 records"
	if compressed {
		fmtName = "v3 compressed"
	}
	fmt.Printf("repacked %s (P=%d) -> %s (P=%d, %s): %d vertices, %d edges (%s)\n",
		in, src.GridP(), out, h.P, fmtName, h.NumVertices, h.NumEdges, how)
	return nil
}

// bestMeasuredLevel scans the cost cache for streamed plan measurements of
// this store — entries whose dataset part matches the file (base name
// qualified by size, as costcache.Key writes it) and whose plan label
// carries the "@s" stream provenance — and returns the resolution with the
// lowest measured ns/edge across algorithms and flows. Zero means the cache
// holds nothing for this store.
func bestMeasuredLevel(cachePath, storePath string) (bestP int, bestCost float64, err error) {
	f, err := costcache.Load(cachePath)
	if err != nil {
		return 0, 0, err
	}
	dataset := filepath.Base(storePath)
	if info, err := os.Stat(storePath); err == nil {
		dataset = fmt.Sprintf("%s#%d", dataset, info.Size())
	}
	for graphKey, plans := range f.Graphs {
		if _, ds, ok := strings.Cut(graphKey, "@"); !ok || ds != dataset {
			continue
		}
		for label, cost := range plans {
			p, ok := streamedLabelP(label)
			if !ok || cost <= 0 {
				continue
			}
			if bestP == 0 || cost < bestCost {
				bestP, bestCost = p, cost
			}
		}
	}
	return bestP, bestCost, nil
}

// streamedLabelP extracts the resolution from a streamed plan label such as
// "grid/64@s1/push/no-lock" or "compressed/256@s3/pull/no-lock". Labels
// without the "@s" provenance (in-memory plans, pre-stream cache entries)
// report false.
func streamedLabelP(label string) (int, bool) {
	parts := strings.Split(label, "/")
	if len(parts) < 2 || !strings.Contains(parts[1], "@s") {
		return 0, false
	}
	var p, format int
	if n, err := fmt.Sscanf(parts[1], "%d@s%d", &p, &format); err != nil || n != 2 || p <= 0 {
		return 0, false
	}
	return p, true
}
