package storage

import "testing"

// SetLittleEndian overrides, for the rest of the test, the host byte order
// the package decided at start-up, so the big-endian refusal can be
// exercised on any host.
func SetLittleEndian(t testing.TB, v bool) {
	old := littleEndian
	littleEndian = v
	t.Cleanup(func() { littleEndian = old })
}
