// Command graphstats prints the structural profile of a graph (degree
// distribution, skew, estimated diameter, connectivity) for either a
// generated dataset or an edge-list file. It documents that the generated
// stand-ins used by the benchmarks have the structural properties the paper
// relies on: power-law skew for RMAT/Twitter, high diameter and low degree
// for the road graph, popularity skew for the rating graph.
//
// With -store it instead profiles an on-disk partitioned grid store
// (gengraph -format store): the decoded header, the per-cell segment-size
// histogram, and — for compressed (version-3) stores — the offset width and
// the compression ratio against the 12-byte raw edge record.
//
// Examples:
//
//	graphstats -generate rmat -scale 20
//	graphstats -generate road -side 1024
//	graphstats -input edges.txt
//	graphstats -store rmat20c.egs
package main

import (
	"flag"
	"fmt"
	"math/bits"
	"os"

	everythinggraph "github.com/epfl-repro/everythinggraph"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/oocore"
	"github.com/epfl-repro/everythinggraph/internal/stats"
)

func main() {
	var (
		generate  = flag.String("generate", "rmat", "rmat | twitter | road | bipartite (ignored when -input is given)")
		input     = flag.String("input", "", "edge-list file to analyze instead of generating")
		format    = flag.String("format", "text", "input format: text | binary")
		directed  = flag.Bool("directed", true, "treat the input file as directed")
		scale     = flag.Int("scale", 18, "log2 of the vertex count for generated graphs")
		side      = flag.Int("side", 512, "lattice side for the road generator")
		users     = flag.Int("users", 60000, "user count for the bipartite generator")
		items     = flag.Int("items", 4000, "item count for the bipartite generator")
		seed      = flag.Int64("seed", 42, "generator seed")
		histogram = flag.Bool("histogram", false, "also print the log2 out-degree histogram")
		storePath = flag.String("store", "", "profile this partitioned grid store (.egs) instead of a graph")
	)
	flag.Parse()

	if *storePath != "" {
		if err := storeStats(*storePath); err != nil {
			fmt.Fprintf(os.Stderr, "graphstats: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var g *everythinggraph.Graph
	var err error
	if *input != "" {
		var f *os.File
		f, err = os.Open(*input)
		if err == nil {
			defer f.Close()
			if *format == "binary" {
				g, err = everythinggraph.LoadBinary(f, *directed)
			} else {
				g, err = everythinggraph.LoadText(f, *directed)
			}
		}
	} else {
		switch *generate {
		case "rmat":
			g = everythinggraph.GenerateRMAT(*scale, 16, *seed)
		case "twitter":
			g = everythinggraph.GenerateTwitterProfile(*scale, *seed)
		case "road":
			g = everythinggraph.GenerateRoad(*side, *side, *seed)
		case "bipartite":
			g = everythinggraph.GenerateBipartite(*users, *items, 32, *seed)
		default:
			err = fmt.Errorf("unknown generator %q", *generate)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphstats: %v\n", err)
		os.Exit(1)
	}

	summary := stats.Summarize(g.Internal())
	fmt.Print(summary.String())
	if *histogram {
		fmt.Println("out-degree histogram (log2 buckets):")
		for b, c := range stats.DegreeHistogram(g.Internal().EdgeArray.OutDegrees()) {
			if c == 0 {
				continue
			}
			fmt.Printf("  2^%-2d %d\n", b, c)
		}
	}
}

// storeStats prints the profile of an on-disk partitioned grid store: the
// decoded header, the per-cell stored-size histogram, and the compression
// accounting of version-3 stores.
func storeStats(path string) error {
	s, err := oocore.Open(path)
	if err != nil {
		return err
	}
	defer s.Close()

	h := s.Header()
	kind := "8-byte (src, dst) records"
	if s.Compressed() {
		w := graph.CellOffsetWidth(h.RangeSize)
		kind = fmt.Sprintf("fixed-width cells: %d-byte range offsets, %d B/edge before weights", w, 2*w)
	}
	fmt.Printf("store: %s\n", path)
	fmt.Printf("format: version %d (%s)\n", h.Version, kind)
	fmt.Printf("graph: %d vertices, %d stored edges, %dx%d grid (range %d)\n",
		h.NumVertices, h.NumEdges, h.P, h.P, h.RangeSize)
	fmt.Printf("edges: undirected(mirrored)=%v weight-plane=%v\n", h.Undirected, h.Weighted)

	// Per-cell stored-size histogram in log2-byte buckets.
	numCells := h.P * h.P
	var sizeBuckets [64]int64
	empty := int64(0)
	var stored int64
	for cell := 0; cell < numCells; cell++ {
		b := s.CellStoredBytes(cell)
		stored += b
		if b == 0 {
			empty++
			continue
		}
		sizeBuckets[bits.Len64(uint64(b))-1]++
	}
	fmt.Printf("cells: %d total, %d empty\n", numCells, empty)
	fmt.Println("cell stored-size histogram (log2-byte buckets):")
	for b, c := range sizeBuckets {
		if c == 0 {
			continue
		}
		fmt.Printf("  2^%-2d %d\n", b, c)
	}

	if !s.Compressed() || stored == 0 {
		return nil
	}
	// Raw footprint is the binary edge file's record: 12 bytes per stored
	// edge. Every compressed edge takes the same bytes, so one ratio holds
	// for the whole store and for every row of it.
	raw := h.NumEdges * 12
	fmt.Printf("compression: %.2fx (%.1f MiB raw -> %.1f MiB stored, %.1f B/edge)\n",
		float64(raw)/float64(stored), float64(raw)/(1<<20), float64(stored)/(1<<20),
		float64(stored)/float64(h.NumEdges))
	return nil
}
