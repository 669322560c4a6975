// Command gengraph generates the synthetic datasets used by the benchmarks
// (RMAT, Twitter-profile, road lattice, bipartite rating graph) and writes
// them as text or binary edge lists — or as an out-of-core partitioned grid
// store — so that the same inputs can be fed to other graph systems for
// external comparison or streamed by egraph -store.
//
// RMAT and Twitter-profile graphs are generated in bounded chunks and
// written as they are produced, so a scale-24+ dataset streams to disk
// without ever materializing its edge slice in memory. The lattice and
// bipartite generators build in memory (their practical sizes are small).
//
// Examples:
//
//	gengraph -kind rmat -scale 22 -o rmat22.bin -format binary
//	gengraph -kind rmat -scale 20 -o rmat20.egs -format store -p 256
//	gengraph -kind rmat -scale 20 -o rmat20u.egs -format store -undirected
//	gengraph -kind rmat -scale 20 -o rmat20c.egs -format store -compress
//	gengraph -kind road -side 1024 -o road.txt
//	gengraph -kind bipartite -users 100000 -items 5000 -o ratings.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
	"github.com/epfl-repro/everythinggraph/internal/oocore"
	"github.com/epfl-repro/everythinggraph/internal/storage"
)

func main() {
	var (
		kind       = flag.String("kind", "rmat", "rmat | twitter | road | bipartite")
		scale      = flag.Int("scale", 20, "log2 of the vertex count (rmat, twitter)")
		factor     = flag.Int("edge-factor", 16, "edges per vertex (rmat)")
		side       = flag.Int("side", 512, "lattice side length (road)")
		users      = flag.Int("users", 60000, "user count (bipartite)")
		items      = flag.Int("items", 4000, "item count (bipartite)")
		ratings    = flag.Int("ratings", 32, "average ratings per user (bipartite)")
		seed       = flag.Int64("seed", 42, "generator seed")
		out        = flag.String("o", "", "output file (default stdout; required for -format store)")
		format     = flag.String("format", "text", "text | binary | store (partitioned grid store)")
		gridP      = flag.Int("p", 0, "grid dimension for -format store (0 = paper's 256, clamped)")
		undirected = flag.Bool("undirected", false, "mirror each edge into the store (store format only; required by WCC)")
		compress   = flag.Bool("compress", false, "write a version-3 store whose cells hold fixed-width range offsets (store format only)")
	)
	flag.Parse()

	stream, numVertices, err := makeStream(*kind, *scale, *factor, *side, *users, *items, *ratings, *seed)
	if err != nil {
		fatal(err)
	}

	switch *format {
	case "store":
		if *out == "" {
			fatal(fmt.Errorf("-format store requires -o (stores are random-access files)"))
		}
		h, err := oocore.BuildStore(*out, oocore.BuildOptions{
			NumVertices: numVertices,
			GridP:       *gridP,
			Undirected:  *undirected,
			Compressed:  *compress,
		}, stream)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "gengraph: wrote %d vertices, %d stored edges (%s, %dx%d grid store, format v%d)\n",
			h.NumVertices, h.NumEdges, *kind, h.P, h.P, h.Version)
	case "text", "binary":
		if *undirected {
			fatal(fmt.Errorf("-undirected applies only to -format store (edge lists record each edge once)"))
		}
		if *compress {
			fatal(fmt.Errorf("-compress applies only to -format store (see graphstats -store for ratios)"))
		}
		w := io.Writer(os.Stdout)
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		numEdges, err := writeStreamed(w, *format, stream)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "gengraph: wrote %d vertices, %d edges (%s, %s)\n",
			numVertices, numEdges, *kind, *format)
	default:
		fatal(fmt.Errorf("unknown format %q (text | binary | store)", *format))
	}
}

// makeStream returns a restartable edge stream for the dataset plus its
// vertex count. RMAT-family graphs stream chunk by chunk; the small
// lattice/bipartite generators materialize once and stream the slice.
func makeStream(kind string, scale, factor, side, users, items, ratings int, seed int64) (oocore.Stream, int, error) {
	switch kind {
	case "rmat":
		opt := gen.RMATOptions{Scale: scale, EdgeFactor: factor, Seed: seed}
		return func(yield func([]graph.Edge) error) error {
			return gen.StreamRMAT(opt, yield)
		}, 1 << scale, nil
	case "twitter":
		opt := gen.TwitterProfileOptions{Scale: scale, Seed: seed}
		return func(yield func([]graph.Edge) error) error {
			return gen.StreamTwitterProfile(opt, yield)
		}, 1 << scale, nil
	case "road":
		g := gen.Road(gen.RoadOptions{Width: side, Height: side, ShortcutFraction: 0.05, Seed: seed, Weighted: true})
		return oocore.SliceStream(g.EdgeArray.Edges, 0), g.NumVertices(), nil
	case "bipartite":
		g := gen.Bipartite(gen.BipartiteOptions{Users: users, Items: items, RatingsPerUser: ratings, Seed: seed})
		return oocore.SliceStream(g.EdgeArray.Edges, 0), g.NumVertices(), nil
	default:
		return nil, 0, fmt.Errorf("unknown kind %q", kind)
	}
}

// edgeWriter is the incremental encoder shared by the text and binary
// streaming paths.
type edgeWriter interface {
	Write(edges []graph.Edge) error
	Flush() error
}

// writeStreamed writes the stream as a text or binary edge list, one
// bounded chunk at a time through a single reused buffer, and returns the
// edge count.
func writeStreamed(w io.Writer, format string, stream oocore.Stream) (int64, error) {
	var ew edgeWriter
	if format == "text" {
		ew = storage.NewTextWriter(w)
	} else {
		ew = storage.NewBinaryWriter(w)
	}
	var n int64
	err := stream(func(chunk []graph.Edge) error {
		n += int64(len(chunk))
		return ew.Write(chunk)
	})
	if err != nil {
		return n, err
	}
	return n, ew.Flush()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "gengraph: %v\n", err)
	os.Exit(1)
}
