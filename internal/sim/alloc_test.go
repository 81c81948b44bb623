//go:build !race

// The race detector's instrumentation allocates on its own and would blow
// any budget, so these tests are built only without it.

package sim

import "testing"

// The kernel's allocation contract (see the package doc), locked in so a
// change cannot silently reintroduce per-event garbage.

// TestKernelEventAllocFree: once the queue has grown, At (a func through
// Func) plus the RunUntil that pops the event allocate nothing.
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

// countHandler is a long-lived model object that is its own event.
type countHandler struct{ n int }

func (c *countHandler) Fire() { c.n++ }

// TestKernelPostAllocFree: once the queue has grown, Post with a pointer
// handler plus the RunUntil that fires it allocate nothing, and the handler
// fires once per Post.
func TestKernelPostAllocFree(t *testing.T) {
	k := NewKernel()
	ts := eventTimes()
	h := &countHandler{}
	run := func() {
		now := k.Now()
		for _, d := range ts {
			k.Post(now+d, h)
		}
		k.RunUntil(Infinity)
	}
	run() // grow the heap to its high-water mark
	if n := testing.AllocsPerRun(50, run); n != 0 {
		t.Errorf("%d events through Post+RunUntil allocate %.1f, want 0", len(ts), n)
	}
	if want := 52 * len(ts); h.n != want { // the growing run, AllocsPerRun's warm-up and its 50
		t.Errorf("handler fired %d times, want %d", h.n, want)
	}
}

// TestResourceScheduleAllocFree: a reservation with a pre-built done
// allocates nothing; the handler goes onto the queue as it is.
func TestResourceScheduleAllocFree(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "cpu", 4)
	done := Func(func() {})
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
