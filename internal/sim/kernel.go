// Package sim provides a deterministic discrete-event simulation kernel used
// by the cluster model. Virtual time is a float64 number of seconds. The
// kernel is single-threaded: handlers run one at a time in timestamp order,
// with FIFO ordering among events scheduled for the same instant.
//
// Allocation contract: the kernel allocates nothing per event once its queue
// has grown to the run's high-water mark. An event fires a Handler, and
// events are stored by value in a slice-backed binary heap ordered on (time,
// sequence number). Post queues a Handler as it is: a pointer to a
// long-lived model object satisfies Handler without allocating, so a model
// that recycles its objects schedules with no garbage at all. At and After
// take a plain func() through Func, which converts to a Handler for free;
// Resource.Schedule/ScheduleAfter hand the caller's done straight to Post.
// Whatever a caller's closure captures is the caller's allocation, not the
// kernel's.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since the start of the run.
type Time float64

// Duration is a span of virtual time, in seconds.
type Duration = Time

// Infinity is a time later than any event the kernel will ever execute.
const Infinity Time = math.MaxFloat64

// Handler is what an event does when it comes due.
type Handler interface{ Fire() }

// Func adapts a plain function to a Handler. A func value is one pointer,
// so the conversion to Handler allocates nothing.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

type event struct {
	at  Time
	seq uint64 // tie-break so same-time events run FIFO
	h   Handler
}

// before is the queue order. seq is unique, so (at, seq) is a total order:
// every correct heap pops the same sequence.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Kernel is a discrete-event simulator. The zero value is not ready for use;
// create one with NewKernel.
type Kernel struct {
	now       Time
	seq       uint64
	events    []event // binary min-heap on (at, seq)
	executed  uint64
	maxEvents uint64 // safety valve against runaway simulations; 0 = unlimited
}

// NewKernel returns a kernel with virtual time 0 and an empty event queue.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Executed returns the number of events executed so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// SetMaxEvents installs a safety limit on the number of events Run will
// execute; Run panics if the limit is exceeded. Zero disables the limit.
func (k *Kernel) SetMaxEvents(n uint64) { k.maxEvents = n }

// Post schedules h to fire at absolute virtual time t. Scheduling in the
// past (or at NaN, which would corrupt the queue order) panics: it always
// indicates a modeling bug.
func (k *Kernel) Post(t Time, h Handler) {
	if !(t >= k.now) {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	k.seq++
	k.events = append(k.events, event{at: t, seq: k.seq, h: h})
	k.siftUp(len(k.events) - 1)
}

// At schedules fn to run at absolute virtual time t, like Post.
func (k *Kernel) At(t Time, fn func()) { k.Post(t, Func(fn)) }

// After schedules fn to run d seconds from now. Negative or NaN d panics.
func (k *Kernel) After(d Duration, fn func()) {
	if !(d >= 0) {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.At(k.now+d, fn)
}

// Run executes events until the queue is empty and returns the final time.
func (k *Kernel) Run() Time {
	return k.RunUntil(Infinity)
}

// RunUntil executes events with timestamps <= limit, advances the clock to
// the last executed event (not to limit), and returns the current time.
func (k *Kernel) RunUntil(limit Time) Time {
	for len(k.events) > 0 {
		if k.events[0].at > limit {
			break
		}
		next := k.pop()
		k.now = next.at
		k.executed++
		if k.maxEvents != 0 && k.executed > k.maxEvents {
			panic(fmt.Sprintf("sim: exceeded max events %d at t=%v", k.maxEvents, k.now))
		}
		next.h.Fire()
	}
	return k.now
}

// Pending reports the number of events still queued.
func (k *Kernel) Pending() int { return len(k.events) }

// siftUp restores the heap after an append at index i.
func (k *Kernel) siftUp(i int) {
	h := k.events
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// pop removes and returns the earliest event. The vacated tail slot is
// cleared so the queue does not keep a fired handler's captures alive.
func (k *Kernel) pop() event {
	h := k.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	k.events = h
	if n == 0 {
		return top
	}
	// Sift the former tail down from the root.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return top
}
