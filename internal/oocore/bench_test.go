package oocore

import (
	"path/filepath"
	"testing"

	"github.com/epfl-repro/everythinggraph/internal/algorithms"
	"github.com/epfl-repro/everythinggraph/internal/core"
	"github.com/epfl-repro/everythinggraph/internal/gen"
	"github.com/epfl-repro/everythinggraph/internal/graph"
)

// benchStore builds an RMAT-16 store once per benchmark run.
func benchStore(b *testing.B, budgetScale int) *Store {
	b.Helper()
	g := gen.RMAT(gen.RMATOptions{Scale: budgetScale, EdgeFactor: 16, Seed: 42})
	path := filepath.Join(b.TempDir(), "bench.egs")
	if _, err := BuildStoreFromGraph(path, g, 0, false); err != nil {
		b.Fatalf("BuildStoreFromGraph: %v", err)
	}
	s, err := Open(path)
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

// BenchmarkStreamedPageRank measures out-of-core PageRank on an RMAT-16
// grid store under a 32 MiB resident budget: ten streamed passes per op,
// each overlapping its segment reads with the per-cell compute.
func BenchmarkStreamedPageRank(b *testing.B) {
	s := benchStore(b, 16)
	cfg := core.Config{
		Layout: graph.LayoutGrid, Flow: core.Push, Sync: core.SyncPartitionFree,
		MemoryBudget: 32 << 20,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunStreamed(s, algorithms.NewPageRank(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamedPageRankIter measures one steady-state streamed
// iteration: with the slot rings and fetchers recycled by the store's pool,
// every pass after warmup must be allocation-free.
func BenchmarkStreamedPageRankIter(b *testing.B) {
	s := benchStore(b, 16)
	cfg := core.Config{
		Layout: graph.LayoutGrid, Flow: core.Push, Sync: core.SyncPartitionFree,
		MemoryBudget: 32 << 20,
	}
	pr := algorithms.NewPageRank()
	pr.Iterations = b.N
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := core.RunStreamed(s, pr, cfg); err != nil {
		b.Fatal(err)
	}
}

// benchStoreV2 builds a compressed RMAT store once per benchmark run.
func benchStoreV2(b *testing.B, scale int) *Store {
	b.Helper()
	g := gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: 16, Seed: 42})
	path := filepath.Join(b.TempDir(), "bench.egs2")
	if _, err := BuildCompressedStoreFromGraph(path, g, 0, false); err != nil {
		b.Fatalf("BuildCompressedStoreFromGraph: %v", err)
	}
	s, err := Open(path)
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

// BenchmarkStreamedV2PageRankIter is BenchmarkStreamedPageRankIter over a
// compressed (version-3) store: the same steady-state zero-allocation
// contract, with per-cell decode running inside the fetch pipeline.
func BenchmarkStreamedV2PageRankIter(b *testing.B) {
	s := benchStoreV2(b, 16)
	cfg := core.Config{
		Layout: graph.LayoutGrid, Flow: core.Push, Sync: core.SyncPartitionFree,
		MemoryBudget: 32 << 20,
	}
	pr := algorithms.NewPageRank()
	pr.Iterations = b.N
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := core.RunStreamed(s, pr, cfg); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStreamV2Pass measures one raw compressed pass: read plus decode,
// the bandwidth-for-CPU trade in isolation.
func BenchmarkStreamV2Pass(b *testing.B) {
	s := benchStoreV2(b, 16)
	opt := core.StreamOptions{MemoryBudget: 32 << 20}
	var sink int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.StreamCells(opt, func(_ int, edges []graph.Edge) {
			sink += len(edges)
		}); err != nil {
			b.Fatal(err)
		}
	}
	_ = sink
}

// BenchmarkStreamPass measures one raw streamed pass (no algorithm): the
// ceiling set by the prefetch pipeline itself.
func BenchmarkStreamPass(b *testing.B) {
	s := benchStore(b, 16)
	opt := core.StreamOptions{MemoryBudget: 32 << 20}
	var sink int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.StreamCells(opt, func(_ int, edges []graph.Edge) {
			sink += len(edges)
		}); err != nil {
			b.Fatal(err)
		}
	}
	_ = sink
}

// BenchmarkBuildStore measures the bounded-memory two-pass store build from
// a streamed RMAT-14 generator.
func BenchmarkBuildStore(b *testing.B) {
	opt := gen.RMATOptions{Scale: 14, EdgeFactor: 16, Seed: 42}
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := filepath.Join(dir, "build.egs")
		_, err := BuildStore(path, BuildOptions{NumVertices: 1 << 14}, func(yield func([]graph.Edge) error) error {
			return gen.StreamRMAT(opt, yield)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
