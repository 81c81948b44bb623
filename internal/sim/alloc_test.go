//go:build !race

// The race detector's instrumentation allocates on its own and would blow
// any budget, so these tests are built only without it.

package sim

import "testing"

// The kernel's allocation contract (see the package doc), locked in so a
// change cannot silently reintroduce per-event garbage.

// TestKernelEventAllocFree: once the queue has grown, At plus the RunUntil
// that pops the event allocate nothing.
func TestKernelEventAllocFree(t *testing.T) {
	k := NewKernel()
	ts := eventTimes()
	fn := func() {}
	run := func() {
		now := k.Now()
		for _, d := range ts {
			k.At(now+d, fn)
		}
		k.RunUntil(Infinity)
	}
	run() // grow the heap to its high-water mark
	if n := testing.AllocsPerRun(50, run); n != 0 {
		t.Errorf("%d events through At+RunUntil allocate %.1f, want 0", len(ts), n)
	}
}

// TestResourceScheduleAllocFree: a reservation with a pre-built done
// allocates nothing; the handler goes onto the queue as it is.
func TestResourceScheduleAllocFree(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "cpu", 4)
	done := func() {}
	run := func() {
		for i := 0; i < 1024; i++ {
			r.Schedule(Duration(1e-6*float64(1+i%7)), done)
		}
		k.Run()
	}
	run()
	if n := testing.AllocsPerRun(50, run); n != 0 {
		t.Errorf("1024 Resource.Schedule calls allocate %.1f, want 0", n)
	}
}
