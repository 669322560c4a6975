// Package algorithms implements the six graph algorithms evaluated by the
// paper (Section 2): BFS, weakly connected components, single-source
// shortest paths, PageRank, sparse matrix-vector multiplication and
// alternating least squares. Every algorithm implements the engine's
// Algorithm interface with span kernels that update plainly where the span
// owns its destinations and atomically where it does not, plus one locked
// edge function for SyncLocks, so the same code runs under every layout,
// flow and synchronization combination.
package algorithms

import (
	"math"
	"sync/atomic"
)

// atomicAddFloat64 atomically adds delta to *addr (CAS loop on the bit
// pattern).
func atomicAddFloat64(addr *uint64, delta float64) {
	for {
		old := atomic.LoadUint64(addr)
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if atomic.CompareAndSwapUint64(addr, old, next) {
			return
		}
	}
}

// atomicMinFloat32 atomically lowers *addr to val if val is smaller.
// It returns true if the stored value was lowered.
func atomicMinFloat32(addr *uint32, val float32) bool {
	for {
		old := atomic.LoadUint32(addr)
		if math.Float32frombits(old) <= val {
			return false
		}
		if atomic.CompareAndSwapUint32(addr, old, math.Float32bits(val)) {
			return true
		}
	}
}

// atomicMinUint32 atomically lowers *addr to val if val is smaller.
// It returns true if the stored value was lowered.
func atomicMinUint32(addr *uint32, val uint32) bool {
	for {
		old := atomic.LoadUint32(addr)
		if old <= val {
			return false
		}
		if atomic.CompareAndSwapUint32(addr, old, val) {
			return true
		}
	}
}

// loadFloat32 reads a float stored as bits with atomic visibility.
func loadFloat32(addr *uint32) float32 {
	return math.Float32frombits(atomic.LoadUint32(addr))
}

// storeFloat32 writes a float stored as bits with atomic visibility.
func storeFloat32(addr *uint32, val float32) {
	atomic.StoreUint32(addr, math.Float32bits(val))
}

// loadFloat64 reads a float stored as bits with atomic visibility.
func loadFloat64(addr *uint64) float64 {
	return math.Float64frombits(atomic.LoadUint64(addr))
}

// storeFloat64 writes a float stored as bits with atomic visibility.
func storeFloat64(addr *uint64, val float64) {
	atomic.StoreUint64(addr, math.Float64bits(val))
}
