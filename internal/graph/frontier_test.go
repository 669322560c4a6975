package graph

import (
	"math/bits"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestFrontierSparseDenseConversions(t *testing.T) {
	vs := []VertexID{3, 17, 64, 65, 99}
	f := NewFrontierFromSparse(128, vs)
	if f.IsDense() {
		t.Fatal("expected sparse representation")
	}
	if f.Count() != len(vs) {
		t.Fatalf("Count = %d", f.Count())
	}
	for _, v := range vs {
		if !f.Contains(v) {
			t.Fatalf("Contains(%d) = false", v)
		}
	}
	if f.Contains(4) {
		t.Fatal("Contains(4) should be false")
	}

	f.ToDense()
	if !f.IsDense() {
		t.Fatal("expected dense representation")
	}
	for _, v := range vs {
		if !f.Contains(v) {
			t.Fatalf("dense Contains(%d) = false", v)
		}
	}
	got := f.Sparse()
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != len(vs) {
		t.Fatalf("Sparse() = %v", got)
	}
	for i := range vs {
		if got[i] != vs[i] {
			t.Fatalf("Sparse()[%d] = %d, want %d", i, got[i], vs[i])
		}
	}

	f.ToSparse()
	if f.IsDense() {
		t.Fatal("expected sparse after ToSparse")
	}
	if f.Count() != len(vs) {
		t.Fatalf("Count after round trip = %d", f.Count())
	}
}

func TestFullFrontier(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		f := FullFrontier(n)
		if f.Count() != n {
			t.Fatalf("FullFrontier(%d).Count() = %d", n, f.Count())
		}
		if n > 0 && !f.Contains(VertexID(n-1)) {
			t.Fatalf("FullFrontier(%d) missing last vertex", n)
		}
		if got := len(f.Sparse()); got != n {
			t.Fatalf("FullFrontier(%d).Sparse() has %d entries", n, got)
		}
	}
}

func TestNewDenseFrontier(t *testing.T) {
	f := NewDenseFrontier(70, []VertexID{0, 69})
	if !f.IsDense() || f.Count() != 2 {
		t.Fatalf("unexpected frontier state: dense=%v count=%d", f.IsDense(), f.Count())
	}
	if !f.Contains(0) || !f.Contains(69) || f.Contains(5) {
		t.Fatal("membership wrong")
	}
	// A vertex listed twice is one active vertex: Count and Density must not
	// see it twice, or the planner's direction test is steered by phantoms.
	dup := NewDenseFrontier(70, []VertexID{0, 0, 69, 69, 69})
	if dup.Count() != 2 || dup.Density() != 2.0/70 {
		t.Fatalf("duplicates: Count %d, Density %v; want 2, %v", dup.Count(), dup.Density(), 2.0/70)
	}
	if got := dup.Sparse(); len(got) != 2 || got[0] != 0 || got[1] != 69 {
		t.Fatalf("duplicates: Sparse() = %v, want [0 69]", got)
	}
}

func TestFrontierOutEdgesAnnotation(t *testing.T) {
	f := NewFrontier(10)
	if f.OutEdges() != -1 {
		t.Fatalf("default OutEdges = %d, want -1", f.OutEdges())
	}
	f.SetOutEdges(42)
	if f.OutEdges() != 42 {
		t.Fatalf("OutEdges = %d", f.OutEdges())
	}
	if !f.IsEmpty() {
		t.Fatal("new frontier should be empty")
	}
}

func TestFrontierBuilderConcurrentAdds(t *testing.T) {
	const n = 1 << 12
	b := NewFrontierBuilder(n, 4)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(worker int) {
			defer func() { done <- struct{}{} }()
			for v := 0; v < n; v++ {
				b.Add(worker, VertexID(v))
			}
		}(w)
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	f := b.Collect()
	if f.Count() != n {
		t.Fatalf("Count = %d, want %d (every vertex added exactly once)", f.Count(), n)
	}
	seen := make(map[VertexID]bool, n)
	for _, v := range f.Sparse() {
		if seen[v] {
			t.Fatalf("vertex %d collected twice", v)
		}
		seen[v] = true
	}
}

// TestFrontierBuilderSetWordRoundTrip: SetWord → CollectInto emits a dense
// frontier whose Count is the popcount of the words set (a bit set twice
// counts once), whose Sparse() lists the vertices in ascending order — the
// last, partial word of a 150-vertex universe included — and Reset leaves a
// zero bitmap; the next build, by Add, collects sparse again into the same
// frontier.
func TestFrontierBuilderSetWordRoundTrip(t *testing.T) {
	const n = 150
	b := NewFrontierBuilder(n, 2)
	var f Frontier
	b.SetWord(0, 0, 1<<5|1<<63)
	b.SetWord(0, 0, 1<<5) // already set: counted once
	b.SetWord(1, 2, 1<<0|1<<21)
	b.CollectInto(&f)
	want := []VertexID{5, 63, 128, 149}
	if !f.IsDense() || f.Count() != len(want) {
		t.Fatalf("CollectInto after SetWord: dense=%v count=%d, want dense with %d", f.IsDense(), f.Count(), len(want))
	}
	pop := 0
	for _, w := range f.Bitmap() {
		pop += bits.OnesCount64(w)
	}
	if pop != f.Count() {
		t.Fatalf("Count %d, bitmap popcount %d", f.Count(), pop)
	}
	if got := f.Sparse(); !slices.Equal(got, want) {
		t.Fatalf("Sparse() = %v, want %v (ascending)", got, want)
	}
	if !b.Contains(63) || b.Contains(64) || !f.Contains(149) || f.Contains(148) {
		t.Fatal("membership wrong after SetWord")
	}
	b.Reset()
	for i, w := range b.bits {
		if w != 0 {
			t.Fatalf("bitmap word %d = %#x after Reset", i, w)
		}
	}
	b.Add(1, 7)
	b.CollectInto(&f)
	if f.IsDense() || f.Count() != 1 || !slices.Equal(f.Sparse(), []VertexID{7}) {
		t.Fatalf("Add after a SetWord build: dense=%v count=%d list %v, want sparse [7]", f.IsDense(), f.Count(), f.Sparse())
	}
}

// TestFrontierBuilderAddOwned: AddOwned activates like Add — once per
// vertex, in call order, into a sparse frontier with the bitmap attached —
// and Reset clears what it set, so the builder's next build starts empty.
func TestFrontierBuilderAddOwned(t *testing.T) {
	const n = 150
	b := NewFrontierBuilder(n, 2)
	var f Frontier
	for round := 0; round < 2; round++ {
		for _, v := range []VertexID{9, 140, 9, 64, 140} {
			first := !b.Contains(v)
			if got := b.AddOwned(0, v); got != first {
				t.Fatalf("round %d: AddOwned(%d) = %v, want %v", round, v, got, first)
			}
		}
		b.CollectInto(&f)
		if want := []VertexID{9, 140, 64}; f.IsDense() || !slices.Equal(f.Sparse(), want) {
			t.Fatalf("round %d: dense=%v list %v, want sparse %v", round, f.IsDense(), f.Sparse(), want)
		}
		if !f.Contains(64) || f.Contains(65) {
			t.Fatalf("round %d: attached bitmap wrong", round)
		}
		b.Reset()
		for i, w := range b.bits {
			if w != 0 {
				t.Fatalf("round %d: bitmap word %d = %#x after Reset", round, i, w)
			}
		}
	}
}

// TestFrontierSetSemanticsProperty: converting between representations never
// changes the set of active vertices.
func TestFrontierSetSemanticsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 512
		uniq := map[VertexID]bool{}
		var vs []VertexID
		for _, r := range raw {
			v := VertexID(r % n)
			if !uniq[v] {
				uniq[v] = true
				vs = append(vs, v)
			}
		}
		fr := NewFrontierFromSparse(n, vs)
		fr.ToDense()
		fr.ToSparse()
		if fr.Count() != len(vs) {
			return false
		}
		for _, v := range vs {
			if !fr.Contains(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFrontierDensity(t *testing.T) {
	f := NewFrontierFromSparse(200, []VertexID{1, 2, 3, 4, 5})
	if got := f.Density(); got != 0.025 {
		t.Fatalf("Density = %v, want 0.025", got)
	}
	if got := NewFrontier(0).Density(); got != 0 {
		t.Fatalf("empty-universe Density = %v, want 0", got)
	}
	if got := FullFrontier(64).Density(); got != 1 {
		t.Fatalf("full Density = %v, want 1", got)
	}
	// The out-edge memo consulted by the planner survives representation
	// conversions and reports -1 until set.
	if f.OutEdges() != -1 {
		t.Fatalf("fresh frontier OutEdges = %d, want -1", f.OutEdges())
	}
	f.SetOutEdges(42)
	f.ToDense()
	if f.OutEdges() != 42 {
		t.Fatalf("OutEdges after ToDense = %d, want 42", f.OutEdges())
	}
}
