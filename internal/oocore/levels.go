package oocore

import "github.com/epfl-repro/everythinggraph/internal/core"

// This file is the store-side half of streamed grid-resolution planning:
// the virtual coarsening ladder of an open store. A store's partitioning P
// is frozen at build time, but its row-major cell layout means a coarse
// cell (factor x factor fine cells) is covered by per-row segments whose
// gaps — the cells between one fine row's owned columns and the next's —
// are often empty. Whenever a gap is empty the two segments are
// file-contiguous, so one coalesced read covers both: coarser level, fewer
// and larger I/Os, same bytes, same per-destination visit order,
// bit-identical results. The planner enumerates these levels as StepPlan
// candidates exactly like the in-memory pyramid's.
//
// Both formats store a fixed number of bytes per edge (a 12-byte record in
// v1, two range offsets in v3), so a cell's bytes are zero iff its edge
// count is, and "gap is empty" is a pure cellIndex comparison.

// StoreLevel is one rung of a store's virtual coarsening ladder. Factor is
// the number of fine rows/columns one coarse cell spans; RangeSize is the
// coarse vertex range (fine RangeSize x Factor), which is what makes a
// level's destination ownership identical to a store actually built at P.
type StoreLevel struct {
	P         int
	Factor    int
	RangeSize int
}

// buildStoreLevels enumerates the ladder finest first: factor doubles until
// a single cell covers the whole grid. Mirrors the in-memory pyramid's
// halving rule (ceil-divide), so plan labels line up across paths.
func buildStoreLevels(p, rangeSize int) []StoreLevel {
	levels := []StoreLevel{{P: p, Factor: 1, RangeSize: rangeSize}}
	for f := 2; levels[len(levels)-1].P > 1; f *= 2 {
		levels = append(levels, StoreLevel{
			P:         (p + f - 1) / f,
			Factor:    f,
			RangeSize: rangeSize * f,
		})
	}
	return levels
}

// Levels returns the store's virtual coarsening ladder, finest first. The
// slice is shared; callers must not modify it.
func (s *Store) Levels() []StoreLevel { return s.levels }

// levelAligned reports whether lv is a rung of this store's ladder — the
// levels Repartition can materialize bit-identically.
func (s *Store) levelAligned(p int) (StoreLevel, bool) {
	for _, lv := range s.levels {
		if lv.P == p {
			return lv, true
		}
	}
	return StoreLevel{}, false
}

// levelBounds partitions the columns for a pass at the given factor: the
// coarse columns are balanced by edge mass (like partitionColumns at the
// fine level) and the boundaries are expressed back in fine columns, so
// group ownership never splits a coarse cell and in-group reads merge
// across its full width.
func (s *Store) levelBounds(factor, workers int) []int {
	if factor <= 1 {
		return partitionColumns(s.colEdges, workers)
	}
	p := s.header.P
	coarse := make([]uint64, (p+factor-1)/factor)
	for c, e := range s.colEdges {
		coarse[c/factor] += e
	}
	bounds := partitionColumns(coarse, workers)
	for i, b := range bounds {
		if fb := b * factor; fb < p {
			bounds[i] = fb
		} else {
			bounds[i] = p
		}
	}
	return bounds
}

// levelRuns simulates the fetchers' merged-read walk at one level: for each
// group, consecutive fine-row segments merge while they stay inside one
// coarse row and the cells between them are empty — exactly the condition
// fetchPass/fetchCompressed apply. Returns the number of non-empty
// coalesced runs (the level's read count per pass, before budget slicing)
// and the largest run in edges (what a prefetch slot must hold to issue the
// merged read in one piece).
func (s *Store) levelRuns(factor int, bounds []int) (runs int64, maxRun int) {
	gp := s.header.P
	for g := 0; g+1 < len(bounds); g++ {
		lo, hi := bounds[g], bounds[g+1]
		if lo >= hi {
			continue
		}
		for row := 0; row < gp; {
			end := row
			for factor > 1 && end+1 < gp && (end+1)%factor != 0 &&
				s.cellIndex[end*gp+hi] == s.cellIndex[(end+1)*gp+lo] {
				end++
			}
			if n := s.cellIndex[end*gp+hi] - s.cellIndex[row*gp+lo]; n > 0 {
				runs++
				if int(n) > maxRun {
					maxRun = int(n)
				}
			}
			row = end + 1
		}
	}
	return runs, maxRun
}

// StreamLevels implements core.StreamLeveler: the ladder with each rung's
// effective worker count and predicted per-pass read count at that count,
// the planner's inputs for costing stream levels.
func (s *Store) StreamLevels(workers int, budget int64) []core.StreamLevelInfo {
	out := make([]core.StreamLevelInfo, 0, len(s.levels))
	for _, lv := range s.levels {
		w := core.StreamExecWorkers(lv.P, workers, budget)
		runs, maxRun := s.levelRuns(lv.Factor, s.levelBounds(lv.Factor, w))
		out = append(out, core.StreamLevelInfo{
			P:           lv.P,
			RangeSize:   lv.RangeSize,
			Workers:     w,
			Reads:       runs,
			MaxRunEdges: maxRun,
		})
	}
	return out
}

// LevelProfile is one row of the per-level coalescing profile graphstats
// prints: what streaming at this virtual level would cost in I/O terms.
type LevelProfile struct {
	StoreLevel
	Workers     int   // effective pass workers at this level
	Reads       int64 // coalesced reads per pass (unbounded buffers)
	MaxRunEdges int   // largest single coalesced read, in edges
	ReadBytes   int64 // bytes fetched per pass (level-invariant)
	DecodeBytes int64 // compressed payload bytes decoded per pass (0 for v1)
}

// LevelProfiles computes the coalescing profile for every virtual level at
// the given worker count and budget — the diagnosis `graphstats
// -store` prints so a misfit store is visible before any run.
func (s *Store) LevelProfiles(workers int, budget int64) []LevelProfile {
	readBytes := s.header.NumEdges * int64(s.rawEdgeBytes())
	var decodeBytes int64
	if s.Compressed() {
		decodeBytes = s.header.NumEdges * int64(s.edgeBytes)
	}
	out := make([]LevelProfile, 0, len(s.levels))
	for _, lv := range s.levels {
		w := core.StreamExecWorkers(lv.P, workers, budget)
		runs, maxRun := s.levelRuns(lv.Factor, s.levelBounds(lv.Factor, w))
		out = append(out, LevelProfile{
			StoreLevel:  lv,
			Workers:     w,
			Reads:       runs,
			MaxRunEdges: maxRun,
			ReadBytes:   readBytes,
			DecodeBytes: decodeBytes,
		})
	}
	return out
}
