package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"joinopt/internal/live"
)

// repResult is what one repetition of a workload measures: a fresh set-up,
// a timed closed-loop phase, a timed open-loop phase and the output checks.
type repResult struct {
	setupS float64 // everything before the first timed op

	ops     int     // closed-loop ops completed
	closedS float64 // closed-loop wall seconds, first submission to last completion
	proc    procDelta

	open   openStats
	heapMB float64 // HeapAlloc after a forced GC, system still up

	attempted, failed int
	layer             map[string]float64 // counters read from the system after the run
	exact             map[string]float64 // outcomes that depend on the seed alone
}

// opsPerS is the repetition's closed-loop throughput.
func (r repResult) opsPerS() float64 { return float64(r.ops) / r.closedS }

// openStats summarises an open-loop phase; the per-op samples are dropped
// so that a run's later repetitions do not measure the earlier ones' heap.
type openStats struct {
	latP50, latP99, latMax float64 // ms, completion − due
	okRatio                float64 // share of ops within the latency limit
	lagP99                 float64 // ms, how late the pacer issued ops
	// valid is false when the pacer ran too late for the phase to count as
	// the fixed-rate schedule it claims; its numbers are then left out of
	// the run's medians.
	valid bool
}

// summarize reduces per-op latencies (ms; +Inf for a failed op, which so
// counts as a miss) and pacer lateness to an openStats.
func summarize(latMs, lagMs []float64, limitMs float64) openStats {
	sort.Float64s(latMs)
	ok := sort.SearchFloat64s(latMs, math.Nextafter(limitMs, math.Inf(1)))
	st := openStats{
		latP50:  percentileSorted(latMs, 50),
		latP99:  percentileSorted(latMs, 99),
		latMax:  latMs[len(latMs)-1],
		okRatio: float64(ok) / float64(len(latMs)),
		valid:   true,
	}
	if len(lagMs) > 0 {
		st.lagP99 = percentile(lagMs, 99)
		st.valid = st.lagP99 <= maxPacerLagP99Ms
	}
	return st
}

// maxPacerLagP99Ms is the pacer lateness past which an open-loop phase no
// longer measured the schedule it claims. The pacer's sleeps end up to a
// millisecond or so late on an idle runtime (lag p99 of 1.3 to 1.9 ms was
// measured on the reference host), so the line sits well above that and
// catches only the phases a host stall disturbed.
const maxPacerLagP99Ms = 5.0

// processStart is the epoch of the one clock spans and due times share.
var processStart = time.Now()

func nowNs() int64 { return int64(time.Since(processStart)) }

// procSnap is a reading of the process-wide allocation, GC and CPU meters.
type procSnap struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPauseNs      uint64
	cpuUs          int64
}

// procDelta is the difference of two readings.
type procDelta struct {
	mallocs, bytes float64
	gcCycles       float64
	gcPauseMs      float64
	cpuUs          float64
}

func readProc() procSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	cpu := ru.Utime.Sec*1e6 + ru.Utime.Usec + ru.Stime.Sec*1e6 + ru.Stime.Usec
	return procSnap{m.Mallocs, m.TotalAlloc, m.NumGC, m.PauseTotalNs, cpu}
}

func (a procSnap) since(b procSnap) procDelta {
	return procDelta{
		mallocs:   float64(a.mallocs - b.mallocs),
		bytes:     float64(a.bytes - b.bytes),
		gcCycles:  float64(a.gcCycles - b.gcCycles),
		gcPauseMs: float64(a.gcPauseNs-b.gcPauseNs) / 1e6,
		cpuUs:     float64(a.cpuUs - b.cpuUs),
	}
}

// heapMiB forces a collection and returns the live heap.
func heapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// pendingOp is an operation a system has started and not yet collected.
type pendingOp struct {
	i     int32
	fut   *live.Future // a submitted join
	done  chan error   // a write running on its own goroutine
	err   error        // a write start already waited for, when settled
	acked uint64       // the key's acknowledged write sequence at submit
	due   int64        // traced ops: process clock when the op was due (submitted, in a closed loop)
	span  int32        // the op's root span when traced

	settled bool
	fifo    bool // started by a closed loop that collects in submission order
}

// opSystem is what the load generators drive. start issues op i and must
// not wait for its result (with async false it may leave a write to finish,
// which then runs it on the collecting goroutine); due is when the schedule
// wanted the op, 0 meaning now. finish collects the result and checks it.
type opSystem interface {
	start(i int, async bool, due int64) pendingOp
	finish(p pendingOp) error
}

// errTally counts failed ops and keeps the first error for the report.
type errTally struct {
	n     atomic.Int64
	once  sync.Once
	first error
}

func (e *errTally) add(err error) {
	if err == nil {
		return
	}
	e.n.Add(1)
	e.once.Do(func() { e.first = err })
}

// closedLoop drives ops [lo, hi) from `submitters` goroutines, each keeping
// at most `window` ops outstanding and sending its next op only when its
// oldest has completed. window 1 is a synchronous caller. It returns the
// wall seconds from the first submission to the last completion.
func closedLoop(sys opSystem, lo, hi, submitters, window int, errs *errTally) float64 {
	begin := nowNs()
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ring := make([]pendingOp, window)
			head, n := 0, 0
			for i := lo + s; i < hi; i += submitters {
				if n == window {
					errs.add(sys.finish(ring[head]))
					head = (head + 1) % window
					n--
				}
				ring[(head+n)%window] = sys.start(i, window > 1, 0)
				n++
			}
			for ; n > 0; n-- {
				errs.add(sys.finish(ring[head]))
				head = (head + 1) % window
			}
		}(s)
	}
	wg.Wait()
	return float64(nowNs()-begin) / 1e9
}

// openLoop issues ops [lo, hi) on a fixed schedule of rate ops per second
// from one pacer goroutine, whatever the system's speed. The pacer sleeps
// until the next op is due and then issues every op that has become due, so
// where the runtime rounds a short sleep up (to about a millisecond while a
// thread is parked in the network poller) ops leave in small bursts; a pacer
// that spins instead starves the two-core system under test and was
// measured to be far less repeatable. Each op is collected by its own
// parked goroutine, and its latency runs from the time it was due — not
// from when the pacer got to it — so pacer lateness and stalls are charged
// to every op they delayed. Returns per-op latency (ms, +Inf when the op failed)
// and per-op pacer lateness (ms).
func openLoop(sys opSystem, lo, hi int, rate float64, errs *errTally) (latMs, lagMs []float64) {
	n := hi - lo
	latMs, lagMs = make([]float64, n), make([]float64, n)
	interval := float64(time.Second) / rate
	var wg sync.WaitGroup
	wg.Add(n)
	begin := time.Now()
	for k := 0; k < n; k++ {
		due := begin.Add(time.Duration(float64(k) * interval))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lagMs[k] = float64(time.Since(due)) / 1e6
		p := sys.start(lo+k, false, int64(due.Sub(processStart)))
		go func(k int, p pendingOp, due time.Time) {
			defer wg.Done()
			if err := sys.finish(p); err != nil {
				errs.add(err)
				latMs[k] = math.Inf(1)
				return
			}
			latMs[k] = float64(time.Since(due)) / 1e6
		}(k, p, due)
	}
	wg.Wait()
	return latMs, lagMs
}
