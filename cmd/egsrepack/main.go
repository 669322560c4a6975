// Command egsrepack rewrites a partitioned grid store (.egs) at a different
// resolution and/or format — the offline answer to a store the planner keeps
// streaming at a coarser virtual level. Virtual coarsening makes an
// over-partitioned store cheap to read without touching the file; repacking
// makes the fix permanent: the winning level becomes the store's physical P,
// every pass reads whole cells with no merge bookkeeping, and the metadata
// (cell index, per-cell CRCs) shrinks by the squared factor.
//
// The target level is given with -p and must be a rung of the store's
// virtual ladder: read it off the plan trace of an adaptive run over the
// store (`egraph -store s.egs -flow auto` prints "grid/<P>/…" with the level
// it streamed at). Without -p the store is re-encoded at its own resolution
// (a format-only repack).
//
// Output is always CRC-verified by reopening, and results are bit-identical
// to the source at any ladder level (see oocore.Repartition).
//
// Examples:
//
//	egsrepack -in rmat20.egs -out rmat20.p64.egs -p 64
//	egsrepack -in rmat20.egs -out rmat20c.egs -format v3
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/epfl-repro/everythinggraph/internal/oocore"
)

func main() {
	var (
		in      = flag.String("in", "", "source store (.egs) to repack (required)")
		out     = flag.String("out", "", "output store path (required)")
		targetP = flag.Int("p", 0, "target grid dimension; must be a rung of the source's virtual ladder, e.g. the <P> an `egraph -store <in> -flow auto` plan trace shows (0 = keep)")
		format  = flag.String("format", "keep", "output format: keep | v1 | v3 (v3 = compressed segments)")
	)
	flag.Parse()
	if err := run(*in, *out, *targetP, *format); err != nil {
		fmt.Fprintf(os.Stderr, "egsrepack: %v\n", err)
		os.Exit(1)
	}
}

func run(in, out string, targetP int, format string) error {
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

	how := "requested"
	if targetP == 0 {
		targetP, how = src.GridP(), "keeping source resolution"
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
