//go:build !race

// The race detector's instrumentation allocates on its own and would blow
// any budget, so this test is built only without it.

package slab

import "testing"

// TestSteadyStateAllocFree holds a Get/Put cycle to zero allocations once
// the list has warmed up, and fresh objects to one allocation per chunk.
func TestSteadyStateAllocFree(t *testing.T) {
	var l List[obj]
	l.Put(l.Get())
	if n := testing.AllocsPerRun(100, func() { l.Put(l.Get()) }); n != 0 {
		t.Errorf("warm Get/Put: %.1f allocs, want 0", n)
	}
	var fresh List[obj]
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 4*perChunk; i++ {
			fresh.Get()
		}
	}); n > 4 {
		t.Errorf("%d fresh Gets: %.0f allocs, want at most 4 (one per chunk)", 4*perChunk, n)
	}
}
