//go:build !race

// The race detector's instrumentation allocates on its own and would blow
// any budget, so these tests are built only without it.

package cluster

import (
	"testing"

	"joinopt/internal/sim"
)

// TestSendAllocFree: once the kernel's queue and the cluster's transfer
// free list have grown, Send allocates nothing, remote or local, and every
// message is delivered.
func TestSendAllocFree(t *testing.T) {
	c := New(testConfig())
	delivered := 0
	deliver := sim.Func(func() { delivered++ })
	run := func() {
		for i := 0; i < 256; i++ {
			c.Send(NodeID(i%4), NodeID(i*3%4), int64(1+i%5)<<10, deliver)
		}
		c.K.Run()
	}
	run() // grow the queue and the free list to their high-water marks
	if n := testing.AllocsPerRun(50, run); n != 0 {
		t.Errorf("256 Sends allocate %.1f, want 0", n)
	}
	if want := 52 * 256; delivered != want { // the growing run, AllocsPerRun's warm-up and its 50
		t.Errorf("delivered %d messages, want %d", delivered, want)
	}
}
