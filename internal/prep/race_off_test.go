//go:build !race

package prep

// raceEnabled reports whether the race detector is compiled in; under it
// TestUnitWeightBuildsOmitWeights runs fewer inputs and worker counts.
const raceEnabled = false
