// Loading: measures the two costs the paper charges before the first
// iteration (Sections 3.2-3.5) — reading the edge array from a file and
// building adjacency lists from it — for dynamic building and for radix
// sort. The paper's Table 3 also loads from a 380 MB/s SSD and a 100 MB/s
// HDD, where dynamic building can hide behind the device; this host has no
// such device, so the example reports what it measures here and nothing
// modelled.
//
// It writes an RMAT-17 edge file to a temporary directory, loads it back
// once per method with LoadBinary (timed), and prints the measured load and
// the pre-processing time of each method.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	everythinggraph "github.com/epfl-repro/everythinggraph"
)

func main() {
	g := everythinggraph.GenerateRMAT(17, 16, 5)
	dir, err := os.MkdirTemp("", "loading")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "rmat17.bin")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := g.WriteBinary(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d vertices, %d edges (%.1f MB edge file)\n\n",
		g.NumVertices(), g.NumEdges(), float64(g.NumEdges())*12/1e6)

	for _, m := range []everythinggraph.PrepMethod{everythinggraph.PrepDynamic, everythinggraph.PrepRadixSort} {
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		loaded, err := everythinggraph.LoadBinary(f, true)
		load := time.Since(start)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		bd, err := loaded.Prepare(everythinggraph.Config{Layout: everythinggraph.LayoutAdjacency, Prep: m})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10v load %8v  pre-process %8v  total %8v\n", m,
			load.Round(time.Microsecond), bd.Preprocess.Round(time.Microsecond),
			(load + bd.Preprocess).Round(time.Microsecond))
	}
}
