// Package testutil holds small cross-package test helpers (a test-support
// package like internal/boundtest; it is only imported from _test files).
package testutil

import (
	"runtime"
	"testing"
)

// ForceParallel raises GOMAXPROCS so a concurrency stress test (batch
// workers, portfolio members) runs its goroutines truly in parallel even
// on a single-CPU test machine.
func ForceParallel(t *testing.T) {
	t.Helper()
	if old := runtime.GOMAXPROCS(0); old < 4 {
		runtime.GOMAXPROCS(4)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}
