package live

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"joinopt/internal/cluster"
)

// accumulator is the one pending batch of a destination: every submission
// bound for the same liveBatchKey parks here, whichever shard its key's
// optimizer state lives on, until one of four things ships it (flushCause):
// the destination's batch limit fills, a caller blocks waiting on a parked
// entry while the link is idle, a batch in flight returns with such a waiter
// pending, or the max-wait timer (Section 7.2) fires. The wait is therefore a
// ceiling — what an entry nobody is waiting for yet can sit out — not the price
// of every partial batch; and a wire batch is limit-sized by construction,
// with nothing to merge at flush time.
//
// The interface is add / kick / done / remove / drain; a batch leaves
// through add's return value or through ship. None of them settles a
// future: what leaves an accumulator is shipped or failed by the caller
// after mu is dropped, because settling locks the entry's shard and the
// lock order is shard → accumulator, never the reverse.
//
//joinopt:lockorder execShard.mu accumulator.mu
type accumulator struct {
	bk      liveBatchKey
	wait    time.Duration
	limit   func() int       // the destination's current batch limit (≥ 1)
	starved func() bool      // the destination advertises no admission credit
	ship    func(*liveBatch) // takes a batch that left outside add; called with no lock held

	mu      sync.Mutex
	entries []liveEntry
	// gen numbers the batch being accumulated; every take bumps it. A parked
	// entry's future carries (this accumulator, gen at add), so the bump is
	// what cuts the links of everything that just left (parkedHere). Written
	// under mu; atomic so a wait can tell a cut link without taking it.
	gen atomic.Uint32
	// inflight counts batches taken and not yet answered (done); a kick ships
	// only with none out, so waiters never put more than one partial batch of
	// a destination on the wire at a time. urgent remembers a kick that found
	// the link busy: the next done ships what is parked.
	inflight int
	urgent   bool
	// One reusable max-wait timer, created on the first arm and armed
	// exactly while entries are parked (syncTimer). A Stop that loses to an
	// already-launched fire counts it in stale, and that fire consumes the
	// count instead of flushing an arming that was already retired.
	timer   *time.Timer
	armed   bool
	stale   int
	retired bool // drained by Close: add refuses
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
	a.link(ent.waitFut())
	if len(a.entries) >= a.limit() {
		full = a.takeLocked(flushSize)
	} else {
		a.syncTimer()
	}
	a.mu.Unlock()
	return full, true
}

// flushCause says what made a batch leave its accumulator.
type flushCause uint8

const (
	flushSize       flushCause = iota // the add that reached the batch limit
	flushWaiter                       // a caller blocked on a parked entry, link idle
	flushCompletion                   // a batch in flight returned with a waiter pending
	flushTimer                        // the max wait expired
)

// link points a parked entry's future at this accumulator's current
// generation. Callers hold mu.
func (a *accumulator) link(f *Future) {
	if f != nil {
		f.gen.Store(a.gen.Load())
		f.acc.Store(a)
	}
}

// parkedHere reports whether f's entry is still parked in this accumulator:
// it was added under the current generation and not removed since. The truth
// under mu; without it a hint that can only err towards a kick that then
// finds out.
func (a *accumulator) parkedHere(f *Future) bool {
	return f.acc.Load() == a && f.gen.Load() == a.gen.Load()
}

// kick is the waiter-driven flush: f's caller is about to block on an entry
// that is parked here. With the link idle the batch ships now; with a batch of
// this destination still out — or the node advertising no credit, where one
// more frame would only deepen a full admission queue — it is marked urgent
// and the next done ships it. A kick whose own entry already left (taken,
// canceled, re-routed) does nothing: a caller collecting an old result must
// not cut short the batch its later submissions are filling.
//
//joinopt:hotpath
func (a *accumulator) kick(f *Future) {
	var b *liveBatch
	a.mu.Lock()
	if a.parkedHere(f) {
		if a.inflight > 0 || a.starved() {
			a.urgent = true
		} else {
			b = a.takeLocked(flushWaiter)
		}
	}
	a.mu.Unlock()
	if b != nil {
		a.ship(b)
	}
}

// done is called once for every batch taken, when its wire phase is over
// (answered, failed, or never sent): the link is free again, so a waiter that
// kicked meanwhile gets its batch shipped now.
//
//joinopt:hotpath
func (a *accumulator) done() {
	var b *liveBatch
	a.mu.Lock()
	a.inflight--
	if a.urgent {
		b = a.takeLocked(flushCompletion)
	}
	a.mu.Unlock()
	if b != nil {
		a.ship(b)
	}
}

// takeLocked removes up to the current batch limit of parked entries, oldest
// first, as one wire batch owed one done; nil when nothing is parked. Entries
// past the limit (the node's adaptive target shrank while they sat here) stay
// parked under the timer, re-linked to the new generation. Callers hold mu.
func (a *accumulator) takeLocked(why flushCause) *liveBatch {
	n := min(len(a.entries), a.limit())
	a.urgent = a.urgent && n < len(a.entries) // the waiter may be in what stays
	if n <= 0 {
		return nil
	}
	b := getBatch()
	b.bk, b.acc, b.why = a.bk, a, why
	b.entries = append(b.entries, a.entries[:n]...)
	a.entries = slices.Delete(a.entries, 0, n) // zeroes the vacated tail: it must pin nothing
	a.gen.Add(1)
	a.inflight++
	for i := range a.entries {
		a.link(a.entries[i].waitFut())
	}
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
	if f := a.entries[i].waitFut(); f != nil {
		f.acc.Store(nil) // a kick after the cancel must not ship the others
	}
	a.entries = slices.Delete(a.entries, i, i+1)
	a.urgent = a.urgent && len(a.entries) > 0
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
	b := a.takeLocked(flushTimer)
	a.mu.Unlock()
	if b != nil {
		a.ship(b)
	}
}

// liveBatchKey identifies one batch accumulator: destination plus the
// call's priority, so one wire batch carries exactly one admission class. A
// fetch nothing caches has prioNoCache set in prio, so it never shares a
// batch with a caching fetch: the node registers whole requests or none.
type liveBatchKey struct {
	t    *Table
	node cluster.NodeID
	op   Op
	prio Priority
}

type liveEntry struct {
	key    string
	params []byte
	fut    *Future
	w      *waiter      // OpGet cache fills: the dedup record
	cancel *cancelState // non-nil only for cancellable-context submissions
	hops   uint8        // replicas already failed over; bounded by the set size
}

// waitFut is the future whose waiter this entry's flush serves: the
// submission's own, or the first waiter's of a deduplicated fetch.
func (ent *liveEntry) waitFut() *Future {
	if ent.w != nil {
		return ent.w.fut
	}
	return ent.fut
}

// liveBatch is the pooled carrier of one wire batch, from the moment its
// accumulator hands the entries over until handleResponse has settled them:
// its keys/params slices build the Request and its entries ride to
// handleResponse, so a steady-state flush reuses every slice capacity a
// previous batch grew.
//
//joinopt:pooled
type liveBatch struct {
	bk      liveBatchKey
	acc     *accumulator // where it was taken from; owed one done()
	why     flushCause
	entries []liveEntry
	//joinopt:owns
	req Request // the wire request; its Keys/Params reuse caps
}

var batchPool = sync.Pool{New: func() any { return new(liveBatch) }}

func getBatch() *liveBatch { return batchPool.Get().(*liveBatch) }

// putBatch recycles a batch whose wire phase is over, dropping every
// future/param/key reference so a pooled batch pins nothing.
//
//joinopt:pooled
func putBatch(b *liveBatch) {
	for i := range b.entries {
		b.entries[i] = liveEntry{}
	}
	keys, params := b.req.Keys, b.req.Params
	for i := range keys {
		keys[i] = ""
	}
	for i := range params {
		params[i] = nil
	}
	b.entries = b.entries[:0]
	b.req = Request{Keys: keys[:0], Params: params[:0]}
	b.bk, b.acc = liveBatchKey{}, nil
	batchPool.Put(b)
}

// enqueue parks an entry in its destination's accumulator and returns the
// wire batch that filled, if any, for the caller to ship once it has dropped
// its shard lock (route and reroute call this mid-routing, under sh.mu; the
// lock order is shard → accumulator).
//
//joinopt:hotpath
func (e *Executor) enqueue(bk liveBatchKey, ent liveEntry) *liveBatch {
	a := (*e.accs.Load())[bk]
	if a == nil {
		a = e.newAccumulator(bk)
	}
	if a != nil {
		if full, ok := a.add(ent); ok {
			return full
		}
	}
	// Closed: Close empties the table before draining it, so a Submit that
	// raced past the entry check finds no accumulator or a drained one, and
	// cannot park an entry nobody will ever flush. The goroutine avoids
	// fail's re-lock of the caller's shard.
	go e.fail(bk, ent, &Error{Code: CodeClosed, Op: bk.op, Msg: "executor closed"})
	return nil
}

// newAccumulator is enqueue's slow path: return bk's accumulator, creating
// and publishing it on first use. nil once the executor is closed. The
// table is bounded by tables × nodes × ops × priorities, so an accumulator
// lives as long as the executor.
func (e *Executor) newAccumulator(bk liveBatchKey) *accumulator {
	e.accMu.Lock()
	defer e.accMu.Unlock()
	if e.closed.Load() {
		return nil
	}
	old := *e.accs.Load()
	if a := old[bk]; a != nil {
		return a
	}
	a := &accumulator{bk: bk, wait: e.cfg.BatchWait, ship: e.ship,
		limit:   func() int { return e.batchLimit(bk.node) },
		starved: func() bool { p := e.pool(bk.node); return p != nil && p.starved() }}
	next := maps.Clone(old)
	next[bk] = a
	e.accs.Store(&next)
	return a
}
