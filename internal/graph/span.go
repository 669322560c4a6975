package graph

// Span is the per-iteration context the engine hands to an algorithm's span
// kernels (core.Algorithm): one call covers a whole chunk of the
// iteration — a CSR row range or a flat edge slice — and the kernel runs
// the per-edge loop itself. The engine fills one Span per iteration and
// shares it, read-only, among the iteration's workers.
type Span struct {
	// Bits is the bitmap of the current frontier: an edge participates only
	// if its source is set. nil on CSR push spans, whose active list already
	// names the sources.
	Bits []uint64
	// Full reports that every vertex is in the frontier, so kernels may skip
	// the Bits test (every iteration of a dense algorithm).
	Full bool
	// Next receives the vertices activated for the next iteration — through
	// Add, or a whole owned word at a time through SetWord in pull rows; nil
	// when the algorithm is dense and no frontier is built.
	Next *FrontierBuilder
	// Atomic reports that other workers may update the same destinations
	// concurrently, so destination updates must be atomic. When false the
	// calling worker owns every destination of the span and plain stores
	// suffice: it owns a destination range (pull rows, grid columns,
	// streamed columns), or one goroutine runs the whole iteration (a push
	// iteration too small to split, every iteration of a one-worker run).
	// CSR push rows never own a destination range, so on them false always
	// means the latter, and the kernel may also activate with Next.AddOwned.
	Atomic bool
	// Mirror marks flat edge slices of an undirected dataset stored once per
	// edge (the edge-array layout): every edge with Src != Dst is also
	// applied in the Dst -> Src direction. Mirror only ever accompanies
	// synchronized updates: the engine keeps Atomic set on mirrored slices
	// even when one goroutine runs them.
	Mirror bool
}

// Active reports whether u is in the span's frontier.
func (s *Span) Active(u VertexID) bool {
	return s.Full || s.Bits[u>>6]&(1<<(u&63)) != 0
}
