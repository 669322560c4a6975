package graph

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

// sortedIDs returns a sorted copy of a frontier's sparse list.
func sortedIDs(f *Frontier) []VertexID {
	src := f.Sparse()
	out := make([]VertexID, len(src))
	copy(out, src)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestCollectAttachesBitmap is the regression test for the Collect contract:
// the returned frontier must reuse the builder's bitmap as its dense form so
// the engine's next ToDense/Bitmap call is free instead of re-allocating and
// re-populating |V|/64 words.
func TestCollectAttachesBitmap(t *testing.T) {
	b := NewFrontierBuilder(1000, 2)
	for _, v := range []VertexID{3, 64, 501, 999} {
		b.Add(0, v)
	}
	f := b.Collect()
	if f.Count() != 4 {
		t.Fatalf("count = %d, want 4", f.Count())
	}
	bm := f.Bitmap()
	if &bm[0] != &b.bits[0] {
		t.Fatal("Collect did not attach the builder's bitmap: Bitmap() re-allocated")
	}
	for _, v := range []VertexID{3, 64, 501, 999} {
		if !f.Contains(v) {
			t.Fatalf("vertex %d missing after ToDense", v)
		}
	}
	if f.Contains(4) || f.Contains(0) {
		t.Fatal("spurious vertex in attached bitmap")
	}
}

func TestBuilderResetClearsOnlyAddedBits(t *testing.T) {
	b := NewFrontierBuilder(256, 4)
	first := []VertexID{0, 1, 63, 64, 255}
	for i, v := range first {
		b.Add(i%4, v)
	}
	b.Reset()
	for v := VertexID(0); v < 256; v++ {
		if b.Contains(v) {
			t.Fatalf("vertex %d still set after Reset", v)
		}
	}
	// The builder must be fully usable again.
	second := []VertexID{2, 64, 200}
	for i, v := range second {
		if !b.Add(i%4, v) {
			t.Fatalf("Add(%d) after Reset reported already-present", v)
		}
	}
	f := b.Collect()
	got := sortedIDs(f)
	if len(got) != len(second) {
		t.Fatalf("collected %v, want %v", got, second)
	}
	for i, v := range second {
		if got[i] != v {
			t.Fatalf("collected %v, want %v", got, second)
		}
	}
}

func TestCollectIntoReusesFrontierBuffers(t *testing.T) {
	b := NewFrontierBuilder(128, 2)
	var f Frontier
	b.Add(0, 7)
	b.Add(1, 99)
	b.CollectInto(&f)
	if f.Count() != 2 || !f.Contains(7) || !f.Contains(99) {
		t.Fatalf("first collect wrong: count=%d", f.Count())
	}
	// Second build cycle into the same frontier object.
	b.Reset()
	b.Add(0, 13)
	b.CollectInto(&f)
	if f.Count() != 1 || !f.Contains(13) {
		t.Fatalf("second collect wrong: count=%d", f.Count())
	}
	if f.Contains(7) || f.Contains(99) {
		t.Fatal("stale vertices survived Reset+CollectInto")
	}
	if f.OutEdges() != -1 {
		t.Fatal("OutEdges not reset")
	}
}

// TestBuilderConcurrentAddAfterReset drives the builder through several
// Reset/build cycles with concurrent atomic Adds; run with -race.
func TestBuilderConcurrentAddAfterReset(t *testing.T) {
	const n = 1 << 14
	const workers = 4
	b := NewFrontierBuilder(n, workers)
	for round := 0; round < 5; round++ {
		b.Reset()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Overlapping ranges: every vertex is attempted by two
				// workers, so exactly one Add per vertex must win.
				lo := w * n / workers
				hi := lo + n/workers*2
				for v := lo; v < hi; v++ {
					b.Add(w, VertexID(v%n))
				}
			}(w)
		}
		wg.Wait()
		f := b.Collect()
		if f.Count() != n {
			t.Fatalf("round %d: count = %d, want %d (duplicate or lost Adds)", round, f.Count(), n)
		}
	}
}

// TestBuilderConcurrentSetWordAfterReset exercises SetWord under its
// documented contract: two workers set disjoint words at the same time (the
// pull-mode ownership pattern, here interleaved word by word so neighbouring
// words belong to different workers), over several Reset/build cycles; -race
// verifies the contract suffices, and each cycle collects exactly the union.
func TestBuilderConcurrentSetWordAfterReset(t *testing.T) {
	const n = 1<<14 + 37 // a partial last word
	const workers = 2
	words := (n + 63) / 64
	b := NewFrontierBuilder(n, workers)
	var f Frontier
	for round := 0; round < 5; round++ {
		b.Reset()
		// Every third vertex, shifted by the round so stale bits would show.
		want := 0
		for v := round; v < n; v += 3 {
			want++
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for word := w; word < words; word += workers {
					var mask uint64
					for v := word * 64; v < min(word*64+64, n); v++ {
						if v >= round && (v-round)%3 == 0 {
							mask |= 1 << (v & 63)
						}
					}
					b.SetWord(w, word, mask)
				}
			}(w)
		}
		wg.Wait()
		b.CollectInto(&f)
		if f.Count() != want || len(f.Sparse()) != want {
			t.Fatalf("round %d: Count %d, %d listed, want %d", round, f.Count(), len(f.Sparse()), want)
		}
		for i, v := range f.Sparse() {
			if int(v) != round+3*i {
				t.Fatalf("round %d: listed[%d] = %d, want %d", round, i, v, round+3*i)
			}
		}
	}
}

// TestSparseMemoizedOnDenseFrontier checks that converting a dense frontier
// to a sparse list caches the result: PageRank calls Sparse() on its full
// frontier every iteration, and the memoization is what makes that free.
func TestSparseMemoizedOnDenseFrontier(t *testing.T) {
	f := FullFrontier(1 << 12)
	a := f.Sparse()
	bList := f.Sparse()
	if len(a) != 1<<12 || len(bList) != len(a) {
		t.Fatalf("sparse lengths %d/%d, want %d", len(a), len(bList), 1<<12)
	}
	if &a[0] != &bList[0] {
		t.Fatal("Sparse() on a dense frontier did not memoize: second call re-allocated")
	}
	for i, v := range a {
		if v != VertexID(i) {
			t.Fatalf("sparse[%d] = %d, want %d", i, v, i)
		}
	}
}

// TestBuilderWorkersYieldUnionOnce: whatever the worker count, concurrent
// Adds of disjoint and of overlapping vertex sets collect to exactly the set
// union, each vertex once; Reset leaves an all-zero bitmap; and a warm
// builder's Add → CollectInto → Reset cycle allocates nothing. Run with -race.
func TestBuilderWorkersYieldUnionOnce(t *testing.T) {
	const n = 1 << 13
	for _, workers := range []int{1, 2, 3, 8} {
		b := NewFrontierBuilder(n, workers)
		var f Frontier
		// Worker w adds the vertices of its own residue class mod workers
		// (disjoint, interleaved within every bitmap word) and, when overlap
		// is set, every multiple of 5 as well (shared by all workers).
		cycle := func(overlap bool) {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for v := 0; v < n; v++ {
						if v%3 != 0 && (v%workers == w || overlap && v%5 == 0) {
							b.Add(w, VertexID(v))
						}
					}
				}(w)
			}
			wg.Wait()
			b.CollectInto(&f)
		}
		for _, overlap := range []bool{false, true, false} {
			cycle(overlap)
			got := sortedIDs(&f)
			var want []VertexID
			for v := 0; v < n; v++ {
				if v%3 != 0 {
					want = append(want, VertexID(v))
				}
			}
			if len(got) != len(want) || f.Count() != len(want) {
				t.Fatalf("workers=%d overlap=%v: collected %d vertices (Count %d), want %d", workers, overlap, len(got), f.Count(), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d overlap=%v: vertex %d missing or duplicated (got %d at %d)", workers, overlap, want[i], got[i], i)
				}
			}
			b.Reset()
			for i, word := range b.bits {
				if word != 0 {
					t.Fatalf("workers=%d overlap=%v: bitmap word %d = %#x after Reset", workers, overlap, i, word)
				}
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			for v := 0; v < n; v += 3 {
				b.Add(v%workers, VertexID(v))
			}
			b.CollectInto(&f)
			b.Reset()
		})
		if allocs != 0 {
			t.Errorf("workers=%d: warm Add/CollectInto/Reset cycle allocates %v objects, want 0", workers, allocs)
		}
	}
}

// BenchmarkFrontierBuilderAdd measures one Add (ns/add) with 1 and with 2
// workers adding disjoint halves of the vertex range at the same time: the
// bitmap words are private to a worker, so whatever the second worker costs
// is sharing among the builder's own per-worker state. owned is one
// goroutine adding with AddOwned, the add of a push iteration the caller
// runs alone.
func BenchmarkFrontierBuilderAdd(b *testing.B) {
	const n = 1 << 16
	b.Run("owned", func(b *testing.B) {
		fb := NewFrontierBuilder(n, 1)
		round := func() {
			fb.Reset()
			for v := 0; v < n; v++ {
				fb.AddOwned(0, VertexID(v))
			}
		}
		round() // grow the list
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/add")
	})
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			fb := NewFrontierBuilder(n, workers)
			round := func() {
				fb.Reset()
				var wg sync.WaitGroup
				for w := 1; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for v := w * n / workers; v < (w+1)*n/workers; v++ {
							fb.Add(w, VertexID(v))
						}
					}(w)
				}
				for v := 0; v < n/workers; v++ {
					fb.Add(0, VertexID(v))
				}
				wg.Wait()
			}
			round() // grow the lists
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n/workers), "ns/add")
		})
	}
}

// BenchmarkFrontierBuilderSetWord measures one SetWord (ns/word, each word
// carrying 16 new vertices, Reset included) with 1 and with 2 workers
// setting disjoint halves of the bitmap at the same time, like
// BenchmarkFrontierBuilderAdd: whatever the second worker costs is sharing
// among the builder's own per-worker state.
func BenchmarkFrontierBuilderSetWord(b *testing.B) {
	const n = 1 << 20 // enough words that the second worker's start-up is amortized
	const words = n / 64
	const mask = 0x1111_1111_1111_1111
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			fb := NewFrontierBuilder(n, workers)
			set := func(w int) {
				for word := w * words / workers; word < (w+1)*words/workers; word++ {
					fb.SetWord(w, word, mask)
				}
			}
			round := func() {
				fb.Reset()
				var wg sync.WaitGroup
				for w := 1; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						set(w)
					}(w)
				}
				set(0)
				wg.Wait()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(words/workers), "ns/word")
		})
	}
}
