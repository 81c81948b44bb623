package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestKernelRunsInTimestampOrder(t *testing.T) {
	k := NewKernel()
	var got []Time
	times := []Time{5, 1, 3, 2, 4, 0}
	for _, tm := range times {
		tm := tm
		k.At(tm, func() { got = append(got, tm) })
	}
	k.Run()
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events out of order: %v", got)
	}
	if len(got) != len(times) {
		t.Fatalf("executed %d events, want %d", len(got), len(times))
	}
	if k.Now() != 5 {
		t.Fatalf("final time %v, want 5", k.Now())
	}
}

func TestKernelSameTimeFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(7, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestKernelAfterChains(t *testing.T) {
	k := NewKernel()
	var end Time
	k.After(1, func() {
		k.After(2, func() {
			k.After(3, func() { end = k.Now() })
		})
	})
	k.Run()
	if end != 6 {
		t.Fatalf("chained After ended at %v, want 6", end)
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 1; i <= 10; i++ {
		k.At(Time(i), func() { count++ })
	}
	k.RunUntil(5)
	if count != 5 {
		t.Fatalf("RunUntil(5) executed %d events, want 5", count)
	}
	if k.Pending() != 5 {
		t.Fatalf("pending %d, want 5", k.Pending())
	}
	k.Run()
	if count != 10 {
		t.Fatalf("Run executed %d total, want 10", count)
	}
}

func TestKernelPastSchedulingPanics(t *testing.T) {
	k := NewKernel()
	k.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(5, func() {})
	})
	k.Run()
}

func TestKernelNegativeAfterPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	k.After(-1, func() {})
}

// TestKernelNaNPanics: NaN compares false both ways, so a NaN time or
// duration would pass a "t < now" or "d < 0" guard and then corrupt the
// queue order. Every entry point refuses it before touching any state.
func TestKernelNaNPanics(t *testing.T) {
	nan := Time(math.NaN())
	k := NewKernel()
	r := NewResource(k, "cpu", 1)
	for _, c := range []struct {
		name string
		call func()
	}{
		{"At", func() { k.At(nan, func() {}) }},
		{"After", func() { k.After(nan, func() {}) }},
		{"Schedule", func() { r.Schedule(nan, nil) }},
		{"ScheduleAfter", func() { r.ScheduleAfter(1, nan, Func(func() {})) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with NaN did not panic", c.name)
				}
			}()
			c.call()
		})
	}
	if k.Pending() != 0 || r.Jobs() != 0 || r.EarliestFree() != 0 {
		t.Fatalf("a refused NaN left state behind: pending %d, jobs %d, earliest free %v",
			k.Pending(), r.Jobs(), r.EarliestFree())
	}
}

func TestKernelMaxEvents(t *testing.T) {
	k := NewKernel()
	k.SetMaxEvents(3)
	var loop func()
	loop = func() { k.After(1, loop) }
	k.After(1, loop)
	defer func() {
		if recover() == nil {
			t.Error("runaway simulation did not trip max-events valve")
		}
	}()
	k.Run()
}

func TestResourceSingleServerFCFS(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "disk", 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		r.Schedule(2, Func(func() { ends = append(ends, k.Now()) }))
	}
	k.Run()
	want := []Time{2, 4, 6}
	for i, e := range ends {
		if e != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	if r.BusyTime() != 6 {
		t.Fatalf("busy = %v, want 6", r.BusyTime())
	}
}

func TestResourceMultiServerParallelism(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "cpu", 4)
	var maxEnd Time
	for i := 0; i < 8; i++ {
		r.Schedule(3, Func(func() {
			if end := k.Now(); end > maxEnd {
				maxEnd = end
			}
		}))
	}
	k.Run()
	// 8 jobs of 3s on 4 servers: two waves -> makespan 6.
	if maxEnd != 6 {
		t.Fatalf("makespan %v, want 6", maxEnd)
	}
	if u := r.Utilization(6); u != 1.0 {
		t.Fatalf("utilization %v, want 1.0", u)
	}
}

func TestResourceScheduleAfter(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "cpu", 1)
	var end1, end2 Time
	r.ScheduleAfter(10, 1, Func(func() { end1 = k.Now() }))
	r.Schedule(2, Func(func() { end2 = k.Now() }))
	k.Run()
	if end1 != 11 {
		t.Fatalf("delayed job ended at %v, want 11", end1)
	}
	// Second job was reserved after the first reservation (FCFS reservation
	// semantics): starts at 11... actually reserved the same server after 11.
	if end2 != 13 {
		t.Fatalf("second job ended at %v, want 13", end2)
	}
}

func TestResourceZeroDuration(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "net", 1)
	fired := false
	var start Time
	start, _ = r.Schedule(0, Func(func() {
		fired = true
		if end := k.Now(); start != end {
			t.Errorf("zero-duration job start %v != end %v", start, end)
		}
	}))
	k.Run()
	if !fired {
		t.Fatal("zero-duration completion never fired")
	}
}

func TestResourceBacklog(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "cpu", 1)
	r.Schedule(5, Func(func() {}))
	r.Schedule(5, Func(func() {}))
	if got := r.Backlog(); got != 10 {
		t.Fatalf("backlog %v, want 10", got)
	}
	k.Run()
	if got := r.Backlog(); got != 0 {
		t.Fatalf("backlog after drain %v, want 0", got)
	}
}

// Property: for any set of jobs on a k-server resource, total busy time
// equals the sum of durations, and makespan >= sum/k (work conservation)
// and makespan <= sum (no idling while work is queued, single wave bound).
func TestResourceWorkConservationProperty(t *testing.T) {
	f := func(seed int64, serversRaw uint8, njobsRaw uint8) bool {
		servers := int(serversRaw%8) + 1
		njobs := int(njobsRaw%50) + 1
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		r := NewResource(k, "x", servers)
		var total Duration
		var makespan Time
		for i := 0; i < njobs; i++ {
			d := Duration(rng.Float64() * 10)
			total += d
			r.Schedule(d, Func(func() {
				if end := k.Now(); end > makespan {
					makespan = end
				}
			}))
		}
		k.Run()
		if diff := r.BusyTime() - total; diff > 1e-9 || diff < -1e-9 {
			return false
		}
		lower := Time(float64(total) / float64(servers))
		return makespan >= lower-1e-9 && makespan <= Time(total)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: events always execute in non-decreasing time order, regardless of
// insertion order.
func TestKernelOrderingProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		k := NewKernel()
		var last Time = -1
		ok := true
		for _, v := range raw {
			tm := Time(v)
			k.At(tm, func() {
				if k.Now() < last {
					ok = false
				}
				last = k.Now()
			})
		}
		k.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// orderRun records every event of one seeded run: the time each was
// scheduled for, in At order (the kernel's seq order), and the order the
// handlers ran in. Handlers schedule more events while the run is going,
// at offsets drawn from a small set, so equal timestamps are common.
type orderRun struct {
	k     *Kernel
	rng   *rand.Rand
	at    []Time // at[id], ids in scheduling order
	ran   []int  // ids in execution order
	spawn int    // events the handlers may still add
}

func newOrderRun(seed int64, initial, spawn int) *orderRun {
	o := &orderRun{k: NewKernel(), rng: rand.New(rand.NewSource(seed)), spawn: spawn}
	for i := 0; i < initial; i++ {
		o.schedule(Time(o.rng.Intn(5)))
	}
	return o
}

func (o *orderRun) schedule(t Time) {
	id := len(o.at)
	o.at = append(o.at, t)
	o.k.At(t, func() {
		o.ran = append(o.ran, id)
		for o.spawn > 0 && o.rng.Intn(3) > 0 {
			o.spawn--
			o.schedule(o.k.Now() + Time(o.rng.Intn(3)))
		}
	})
}

// want is every scheduled event stably sorted by time: the (at, seq) order.
func (o *orderRun) want() []int {
	ids := make([]int, len(o.at))
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(a, b int) bool { return o.at[ids[a]] < o.at[ids[b]] })
	return ids
}

// TestKernelHeapOrderProperty pins the guarantee every simulation's
// bit-identity rests on, on any host: the kernel executes events exactly in
// (at, seq) order — a stable sort by time of the scheduling order — also
// when handlers schedule more events mid-run; RunUntil(limit) leaves
// exactly the later events queued; and the max-events valve still trips.
func TestKernelHeapOrderProperty(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		o := newOrderRun(seed, 1+int(seed%40), int(seed*7%120))
		limit := Time(o.rng.Intn(7))
		o.k.RunUntil(limit)
		for _, id := range o.ran {
			if o.at[id] > limit {
				t.Fatalf("seed %d: RunUntil(%v) ran an event at %v", seed, limit, o.at[id])
			}
		}
		later := 0
		for _, at := range o.at {
			if at > limit {
				later++
			}
		}
		if o.k.Pending() != later || len(o.ran)+later != len(o.at) {
			t.Fatalf("seed %d: after RunUntil(%v) %d ran and %d queued of %d, want %d queued (the later ones)",
				seed, limit, len(o.ran), o.k.Pending(), len(o.at), later)
		}
		o.k.Run()
		want := o.want()
		if len(o.ran) != len(want) {
			t.Fatalf("seed %d: ran %d of %d events", seed, len(o.ran), len(want))
		}
		for i := range want {
			if o.ran[i] != want[i] {
				t.Fatalf("seed %d: event %d ran id %d (at %v), want id %d (at %v)",
					seed, i, o.ran[i], o.at[o.ran[i]], want[i], o.at[want[i]])
			}
		}
	}

	// The valve: the same seeded run capped at half its events executes
	// exactly that many handlers, then panics.
	total := len(func() *orderRun { o := newOrderRun(99, 30, 60); o.k.Run(); return o }().ran)
	o := newOrderRun(99, 30, 60)
	o.k.SetMaxEvents(uint64(total / 2))
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("max events %d of %d did not trip", total/2, total)
			}
		}()
		o.k.Run()
	}()
	if len(o.ran) != total/2 {
		t.Fatalf("max events %d ran %d handlers", total/2, len(o.ran))
	}
}

// eventTimes are the offsets the kernel benchmarks schedule at.
func eventTimes() []Time {
	rng := rand.New(rand.NewSource(1))
	ts := make([]Time, 1024)
	for i := range ts {
		ts[i] = Time(rng.Float64())
	}
	return ts
}

// BenchmarkKernelEvent is one event through the kernel: At into a queue up
// to 1024 deep, then its share of the RunUntil that pops it.
func BenchmarkKernelEvent(b *testing.B) {
	k := NewKernel()
	ts := eventTimes()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.At(k.Now()+ts[i%len(ts)], fn)
		if i%len(ts) == len(ts)-1 {
			k.Run()
		}
	}
	k.Run()
}

// BenchmarkResourceSchedule is one reservation on a 4-server resource with
// a completion handler, plus its share of running the completions.
func BenchmarkResourceSchedule(b *testing.B) {
	k := NewKernel()
	r := NewResource(k, "cpu", 4)
	done := Func(func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Schedule(Duration(1e-6*float64(1+i%7)), done)
		if i%1024 == 1023 {
			k.Run()
		}
	}
	k.Run()
}
