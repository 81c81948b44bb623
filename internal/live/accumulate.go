package live

import (
	"slices"
	"sync"
	"time"
)

// accumulator is the one pending batch of a destination: every submission
// bound for the same liveBatchKey parks here, whichever shard its key's
// optimizer state lives on, until the destination's batch limit fills or the
// max-wait timer (Section 7.2) fires — so a wire batch is limit-sized by
// construction, with nothing to merge at flush time.
//
// The interface is add / remove / drain (and retireIfIdle); a batch leaves
// through add's return value or the timer's ship. None of them settles a
// future: what leaves an accumulator is shipped or failed by the caller after
// mu is dropped, because settling locks the entry's shard and the lock order
// is shard → accumulator, never the reverse.
//
//joinopt:lockorder execShard.mu accumulator.mu
type accumulator struct {
	bk    liveBatchKey
	wait  time.Duration
	limit func() int       // the destination's current batch limit (≥ 1)
	ship  func(*liveBatch) // takes a timer-flushed batch; called with no lock held

	mu      sync.Mutex
	entries []liveEntry
	// One reusable max-wait timer, created on the first arm and armed
	// exactly while entries are parked (syncTimer). A Stop that loses to an
	// already-launched fire counts it in stale, and that fire consumes the
	// count instead of flushing an arming that was already retired.
	timer   *time.Timer
	armed   bool
	stale   int
	retired bool // drained by Close or unmapped when idle: add refuses
}

// add parks one entry. When that fills the batch limit it returns the full
// wire batch for the caller to ship; otherwise the entry waits under the
// timer. ok is false when the accumulator is retired: the entry was refused.
//
//joinopt:hotpath
func (a *accumulator) add(ent liveEntry) (full *liveBatch, ok bool) {
	a.mu.Lock()
	if a.retired {
		a.mu.Unlock()
		return nil, false
	}
	a.entries = append(a.entries, ent)
	if len(a.entries) >= a.limit() {
		full = a.takeLocked()
	} else {
		a.syncTimer()
	}
	a.mu.Unlock()
	return full, true
}

// takeLocked removes up to the current batch limit of parked entries, oldest
// first, as one wire batch; nil when nothing is parked. Entries past the
// limit (the node's adaptive target shrank while they sat here) stay parked
// under the timer. Callers hold mu.
func (a *accumulator) takeLocked() *liveBatch {
	n := min(len(a.entries), a.limit())
	if n <= 0 {
		return nil
	}
	b := getBatch()
	b.bk = a.bk
	b.entries = append(b.entries, a.entries[:n]...)
	a.entries = slices.Delete(a.entries, 0, n) // zeroes the vacated tail: it must pin nothing
	a.syncTimer()
	return b
}

// remove pulls a canceled submission's entry back out before it ships: the
// entry carrying dedup waiter w when w is non-nil, the one owned by cs
// otherwise. Reports whether it was still parked. Nil-safe.
func (a *accumulator) remove(cs *cancelState, w *waiter) bool {
	if a == nil {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	i := slices.IndexFunc(a.entries, func(ent liveEntry) bool {
		if w != nil {
			return ent.w == w
		}
		return ent.cancel == cs
	})
	if i < 0 {
		return false
	}
	a.entries = slices.Delete(a.entries, i, i+1)
	a.syncTimer()
	return true
}

// drain retires the accumulator for Close and returns every parked entry
// for the caller to fail.
func (a *accumulator) drain() []liveEntry {
	a.mu.Lock()
	a.retired = true
	parked := a.entries
	a.entries = nil
	a.syncTimer()
	a.mu.Unlock()
	return parked
}

// retireIfIdle retires the accumulator if nothing is parked in it (the
// executor unmaps the idle accumulators of one-off wire policies).
func (a *accumulator) retireIfIdle() bool {
	a.mu.Lock()
	idle := len(a.entries) == 0
	if idle {
		a.retired = true
	}
	a.mu.Unlock()
	return idle
}

// syncTimer keeps the max-wait timer armed exactly while entries are parked.
// An arming is never extended by later adds, so no entry waits longer than
// one BatchWait for its flush.
func (a *accumulator) syncTimer() {
	switch parked := len(a.entries) > 0; {
	case parked && !a.armed:
		a.armed = true
		if a.timer == nil {
			a.timer = time.AfterFunc(a.wait, a.fire)
		} else {
			a.timer.Reset(a.wait)
		}
	case !parked && a.armed:
		a.armed = false
		if !a.timer.Stop() {
			a.stale++
		}
	}
}

// fire is the max-wait flush: ship what is parked, up to the limit.
func (a *accumulator) fire() {
	a.mu.Lock()
	if a.stale > 0 {
		a.stale--
		a.mu.Unlock()
		return
	}
	a.armed = false
	b := a.takeLocked()
	a.mu.Unlock()
	if b != nil {
		a.ship(b)
	}
}
