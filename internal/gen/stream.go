package gen

import "github.com/epfl-repro/everythinggraph/internal/graph"

// This file provides streaming counterparts to the materializing
// generators: the same deterministic edge sequences delivered in bounded
// chunks, so scale-24+ datasets can be written to disk (or partitioned into
// a grid store) on machines whose RAM could never hold the edge slice. The
// streams are restartable — every invocation regenerates the identical
// sequence — which is exactly what the grid-store builder's two-pass
// (histogram, scatter) construction requires.

// StreamRMAT invokes yield with successive bounded chunks of the edge
// sequence RMAT would materialize — identical edges in identical order,
// because both derive each rmatChunk-aligned chunk from an independent
// seeded rng. Memory use is one chunk (rmatChunk edges, 192 KiB)
// regardless of scale. Returns the first error from yield.
func StreamRMAT(opt RMATOptions, yield func(chunk []graph.Edge) error) error {
	if opt.EdgeFactor <= 0 {
		opt.EdgeFactor = 16
	}
	if opt.Params == (RMATParams{}) {
		opt.Params = DefaultRMAT
	}
	m := (1 << opt.Scale) * opt.EdgeFactor
	cuts := newRMATCuts(opt.Params)
	buf := make([]graph.Edge, rmatChunk)
	for lo := 0; lo < m; lo += rmatChunk {
		n := rmatChunk
		if lo+n > m {
			n = m - lo
		}
		chunk := buf[:n]
		fillRMATRange(chunk, lo, opt, cuts)
		if err := yield(chunk); err != nil {
			return err
		}
	}
	return nil
}

// StreamTwitterProfile is the streaming counterpart of TwitterProfile: the
// same parameter mapping onto the RMAT model, streamed in bounded chunks.
func StreamTwitterProfile(opt TwitterProfileOptions, yield func(chunk []graph.Edge) error) error {
	ef := opt.EdgeFactor
	if ef <= 0 {
		ef = 24
	}
	return StreamRMAT(RMATOptions{
		Scale:      opt.Scale,
		EdgeFactor: ef,
		Params:     RMATParams{A: 0.6, B: 0.19, C: 0.15},
		Seed:       opt.Seed,
		Weighted:   opt.Weighted,
		Workers:    opt.Workers,
	}, yield)
}
