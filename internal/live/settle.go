package live

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"joinopt/internal/core"
)

// Future is the pending result of one submitted function invocation
// f(k, p); the preMap thread submits, the map function waits (Section 7.1).
// Every future resolves exactly once, with a value or with a typed *Error —
// a failed node or broken wire never leaves a Wait hanging, and never
// masquerades as a missing key.
//
// The resolution machinery (a one-shot buffered channel) is a pooled cell
// recycled once the first Wait consumes it. The Future header itself is cut
// from a chunk of headers (futChunk), zeroed once when the chunk is
// allocated and never reused, so the contract below — repeated and
// concurrent Waits stay safe forever — is unchanged from the pre-pooling
// lifecycle.
//
// While the submission sits in a batch accumulator the future is linked to
// it (acc, gen), so a wait that is about to block can ship the batch instead
// of sitting out BatchWait behind it: see kick.
type Future struct {
	cell   *futCell     //joinopt:owns
	cancel *cancelState // non-nil only for cancellable-context submissions
	// acc is the accumulator the submission's entry parked in and gen that
	// accumulator's generation at the time: the link holds exactly while the
	// two still match (accumulator.parkedHere), so a take cuts every link of
	// the batch by bumping one counter.
	acc   atomic.Pointer[accumulator]
	gen   atomic.Uint32
	state atomic.Uint32 // futPending (→ futWaited) → futResolved → futDone
	mu    sync.Mutex    // serializes the first Wait's cell consumption
	out   []byte
	err   error
}

const (
	futPending  uint32 = iota
	futWaited          // still pending, and a caller has blocked on it (kick)
	futResolved        // resolve or reject won the exactly-once race
	futDone            // out/err published; cell consumed and recycled
)

type futResult struct {
	v   []byte
	err error
}

// futChunk is a run of fresh Future headers handed out one at a time. The
// partly-used chunk of each P waits in futChunkPool; a Get takes it out of
// the pool, so exactly one goroutine cuts from a chunk at a time, and a
// chunk that runs out is simply dropped: its headers are never handed out
// twice. The price is retention — a held Future keeps its whole chunk, and
// with it the other futures' results, alive.
//
// The chunk is sized to fill the 4096-byte size class: Go's allocator puts
// an 8-byte header on a pointerful object over 512 B, and next takes 8 more.
// For the 80-byte Future that is 51 headers and 0.31 B of overhead each
// (TestFutChunkAllocFillsSizeClass); a chunk of 16 lands in the 1408-byte
// class and wastes 7.5 B per future.
type futChunk struct {
	next int
	futs [futChunkLen]Future
}

const (
	futChunkClass = 4096
	mallocHeader  = 8
	futChunkLen   = (futChunkClass - mallocHeader - unsafe.Sizeof(0)) / unsafe.Sizeof(Future{})
)

var futChunkPool sync.Pool

// newFuture cuts a zeroed header nobody has held before from the calling P's
// chunk: a steady-state submission allocates nothing of its own.
func newFuture() *Future {
	c, _ := futChunkPool.Get().(*futChunk)
	if c == nil {
		c = new(futChunk)
	}
	f := &c.futs[c.next]
	if c.next++; c.next < len(c.futs) {
		futChunkPool.Put(c)
	}
	f.cell = getFutCell()
	return f
}

// settle delivers the future's one resolution and reports whether this call
// won the exactly-once race. The CAS guard makes an (invariant-violating)
// second resolution a dropped no-op instead of a corruption of whatever op
// the recycled cell serves next.
func (f *Future) settle(r futResult) bool {
	if !f.state.CompareAndSwap(futPending, futResolved) && !f.state.CompareAndSwap(futWaited, futResolved) {
		return false
	}
	if f.cancel != nil {
		f.cancel.stopAfterFunc()
	}
	f.cell.ch <- r
	return true
}

func (f *Future) resolve(v []byte) bool { return f.settle(futResult{v: v}) }

// reject fails the future; err is an *Error carrying the op and code.
func (f *Future) reject(err error) bool { return f.settle(futResult{err: err}) }

// WaitErr blocks until the submission resolves and returns its value and
// error. A nil, nil return means the key has no stored row ("key absent"),
// which is distinct from a server rejection (*Error CodeServer), a wire
// failure (CodeTransport), a deadline (CodeTimeout) and shutdown
// (CodeClosed). It is safe for repeated and concurrent callers: every call
// returns the same pair. Results computed server-side may alias the network
// frame buffer their batch arrived in (the zero-copy read path): treat the
// slice as read-only, and copy it if you retain it long-term — holding a
// small result can otherwise pin its whole frame. Holding the Future itself
// pins the chunk its header was cut from, and with it the results of the
// other futures cut from that chunk: drop a Future once it is waited.
func (f *Future) WaitErr() ([]byte, error) {
	if f.isDone() {
		return f.out, f.err
	}
	f.kick()
	f.mu.Lock()
	if !f.isDone() {
		r := <-f.cell.ch //lint:allow lockcheck f.mu serializes the one blocking consume; the resolver's send is buffered and lock-free
		f.publish(r)
	}
	f.mu.Unlock()
	return f.out, f.err
}

func (f *Future) isDone() bool { return f.state.Load() == futDone }

// publish stores the consumed resolution for every later Wait and recycles
// the cell. Callers hold mu.
func (f *Future) publish(r futResult) {
	f.out, f.err = r.v, r.err
	putFutCell(f.cell)
	f.cell = nil
	f.state.Store(futDone)
}

// kick is what a wait does before it blocks: if the submission is still
// parked, its caller is now waiting on a batch nobody has sent, so the
// accumulator ships it (or, with the link busy, marks it urgent). A wait on a
// submission that already left pays a few atomic operations and no lock. It
// first records that a caller is blocked (futWaited), so a re-route that parks
// the entry somewhere else later (reroute) knows to kick there: whichever of
// the two runs second sees the other's write. Called with no lock held, mu
// included.
//
//joinopt:hotpath
func (f *Future) kick() {
	f.state.CompareAndSwap(futPending, futWaited)
	if a := f.acc.Load(); a != nil && f.state.Load() < futResolved && a.parkedHere(f) {
		a.kick(f)
	}
}

// waited reports whether a caller has blocked on the still-unresolved future.
func (f *Future) waited() bool { return f.state.Load() == futWaited }

// Err blocks until the submission resolves and returns its error (nil on
// success), leaving the value for WaitErr.
func (f *Future) Err() error {
	_, err := f.WaitErr()
	return err
}

// WaitCtx is WaitErr bounded by a context: when ctx is done first, the wait
// is abandoned with a CodeCanceled *Error. Abandoning a wait does not
// resolve the future — the submission keeps running (cancel the submission
// by passing the same ctx to Table.Submit), its result stays available to
// other waiters, and a later WaitErr still returns it. A nil or
// non-cancellable ctx is exactly WaitErr.
func (f *Future) WaitCtx(ctx context.Context) ([]byte, error) {
	if ctx == nil || ctx.Done() == nil {
		return f.WaitErr()
	}
	if f.isDone() {
		return f.out, f.err
	}
	if err := ctx.Err(); err != nil {
		return nil, &Error{Code: CodeCanceled, Op: opNone, Msg: "wait abandoned: " + err.Error()}
	}
	f.kick()
	// Uncontended (the common case): become the consumer and select the
	// resolution against the context directly — no helper goroutine. An
	// abandoned wait releases mu without consuming, leaving the cell for
	// the next waiter.
	if f.mu.TryLock() {
		if f.isDone() {
			f.mu.Unlock()
			return f.out, f.err
		}
		select {
		case r := <-f.cell.ch:
			f.publish(r)
			f.mu.Unlock()
			return f.out, f.err
		case <-ctx.Done():
			f.mu.Unlock()
			return nil, &Error{Code: CodeCanceled, Op: opNone, Msg: "wait abandoned: " + ctx.Err().Error()}
		}
	}
	// Contended: another waiter owns the cell consumption and will publish
	// done when the future resolves; shadow it from a helper so this wait
	// can still abandon on ctx. The helper exits as soon as the future
	// resolves (bounded by the request deadline, or instantly when the
	// same ctx canceled the submission itself).
	done := make(chan struct{})
	go func() {
		f.WaitErr()
		close(done)
	}()
	select {
	case <-done:
		return f.out, f.err
	case <-ctx.Done():
		return nil, &Error{Code: CodeCanceled, Op: opNone, Msg: "wait abandoned: " + ctx.Err().Error()}
	}
}

// handleResponse distributes a wire batch's results back to each entry's
// owning shard (a destination's batch spans shards). A failed or malformed
// response fails every entry with the typed error and leaves the optimizer
// state untouched: no phantom OnComputeResponse/OnValueFetched is ever fed
// from a reply that carried no real result. Entries (and piled-on waiters)
// whose context canceled while the batch was on the wire are skipped
// entirely — their futures are already rejected and counted, and for exec
// slots the server's reply carries no UDF result to feed the optimizer.
//
//joinopt:hotpath
func (e *Executor) handleResponse(bk liveBatchKey, entries []liveEntry, resp *Response, epoch, gen int64) {
	if err := respError(bk.op, resp); err != nil {
		if err.Code == CodeMoved && e.handleMoved(bk, entries, resp) {
			return
		}
		if e.tryFailover(bk, entries, err) {
			return
		}
		e.failBatch(bk, entries, err)
		return
	}
	// A short or corrupt reply must fail the batch, not index past the
	// parallel slices' ends and crash the executor.
	if len(resp.Values) != len(entries) || len(resp.Metas) != len(entries) ||
		(bk.op == OpExec && len(resp.Computed) != len(entries)) {
		e.failBatch(bk, entries, &Error{Code: CodeServer, Op: bk.op,
			Msg: fmt.Sprintf("malformed response: %d values, %d metas, %d computed flags for %d keys", //lint:allow hotpath corrupt-reply failure path
				len(resp.Values), len(resp.Metas), len(resp.Computed), len(entries))})
		return
	}
	for i, ent := range entries {
		idx := e.shardIdx(bk.t.seed, ent.key)
		sh := e.shards[idx]
		opt := bk.t.opts[idx]
		meta := resp.Metas[i]
		value := resp.Values[i]
		switch {
		case bk.op == OpExec:
			if !ent.cancel.claim() {
				continue // canceled mid-flight; the server skipped this slot
			}
			m := core.ResponseMeta{
				Key:          ent.key,
				ValueSize:    meta.ValueSize,
				ComputedSize: meta.ComputedSize,
				ComputeCost:  meta.ComputeCost,
				Version:      meta.Version,
			}
			sh.mu.Lock()
			opt.OnComputeResponse(m)
			if e.cfg.Trace != nil {
				e.cfg.Trace(TraceEvent{Kind: TraceComputeResp, Table: bk.t.name,
					Key: ent.key, Meta: m})
			}
			sh.mu.Unlock()
			if resp.Computed[i] {
				e.RemoteComputed.Add(1)
				ent.fut.resolve(value)
			} else {
				// Balancer bounced it: compute here from the raw value.
				e.RemoteRaw.Add(1)
				e.computeLocal(bk.t, idx, ent.key, ent.params, value, ent.fut)
			}
		case ent.w != nil:
			// Cache fill: install and wake every waiter. Detach the value
			// from the response frame buffer first — a cached value can
			// outlive the batch by a long time, and the alias would pin the
			// whole frame in memory. Keep nil as nil (missing key).
			if value != nil {
				value = append(make([]byte, 0, len(value)), value...)
			}
			e.Fetches.Add(1)
			sh.mu.Lock()
			// Install into the cache only if no conn of this node died
			// since the fetch went out: a disconnect in that window may
			// have taken the key's invalidation subscription with it
			// (dropNodeCache could have swept this shard before we got
			// here), and a subscription-less cache entry is stale
			// forever. The value itself is still good for the waiters —
			// same guarantee as any read racing a write. The version guard
			// keeps the cache from running backwards: the reply may come
			// from a replica that has not applied the newest write yet, or
			// carry a row read just before a put whose invalidation (pushed
			// by the node, or applied by our own Put at its ack) overtook
			// it — that invalidation spent the key's subscription, so the
			// older value must not go in after it.
			// The migration-generation guard extends the same reasoning to
			// shard migrations: a fetch in flight across a cutover may have
			// been answered by the old owner, and the version-0 invalidation
			// that swept the region has already passed — installing now would
			// cache the pre-move value with nobody left to invalidate it.
			if e.pool(bk.node).epoch.Load() == epoch &&
				e.migGen.Load() == gen &&
				opt.KnownVersion(ent.key) <= meta.Version {
				opt.OnValueFetched(ent.key, int64(len(value)), meta.Version, value, true) //lint:allow hotpath the optimizer's cache stores values as interface{}; boxing is the documented fetch cost
				if e.cfg.Trace != nil {
					e.cfg.Trace(TraceEvent{Kind: TraceFetched, Table: bk.t.name,
						Key: ent.key, Size: int64(len(value)), Version: meta.Version})
				}
			}
			followers := sh.release(ent.w)
			sh.mu.Unlock()
			for i := -1; i < len(followers); i++ {
				w := ent.w // the lead first, then whoever joined it
				if i >= 0 {
					w = followers[i]
				}
				if !w.cancel.claim() {
					continue // this waiter canceled; the fetch still served the rest
				}
				e.FetchServed.Add(1)
				e.computeLocal(bk.t, idx, ent.key, w.params, value, w.fut)
			}
		default:
			// No-cache fetch (NO/FC/FR policies).
			e.Fetches.Add(1)
			if !ent.cancel.claim() {
				continue
			}
			e.FetchServed.Add(1)
			e.computeLocal(bk.t, idx, ent.key, ent.params, value, ent.fut)
		}
	}
}

// failBatch fails every entry of a wire batch with err; callers must hold
// no shard lock (waiter cleanup locks each entry's own shard).
func (e *Executor) failBatch(bk liveBatchKey, entries []liveEntry, err *Error) {
	for _, ent := range entries {
		e.fail(bk, ent, err)
	}
}

// fail rejects one entry's future(s) with err and counts each rejected
// submission in Failed — or in Shed when the error is a CodeOverloaded
// load-shed, so overload rejections stay distinguishable from real
// failures — unless its cancellation already counted it. For a deduped
// fetch it clears the inflight record first, so every piled-on waiter
// observes the error and the NEXT Submit for the key re-issues the fetch
// instead of parking behind dead state.
func (e *Executor) fail(bk liveBatchKey, ent liveEntry, err *Error) {
	bucket := &e.Failed
	if err.Code == CodeOverloaded {
		bucket = &e.Shed
	}
	if ent.w != nil {
		sh, _ := bk.t.shard(ent.key)
		sh.mu.Lock()
		followers := sh.release(ent.w)
		sh.mu.Unlock()
		for i := -1; i < len(followers); i++ {
			w := ent.w // the lead first, then whoever joined it
			if i >= 0 {
				w = followers[i]
			}
			if w.cancel.claim() {
				bucket.Add(1)
			}
			w.fut.reject(err)
		}
		return
	}
	if ent.cancel.claim() {
		bucket.Add(1)
	}
	ent.fut.reject(err)
}

// computeLocal queues the UDF run on the executor's local workers, which feed
// the measured sojourn back into the key's shard-local optimizer (Section 3.2
// runtime measurement). idx must be the index of the shard owning (t, key).
// It never blocks: the queue grows instead.
//
//joinopt:hotpath
func (e *Executor) computeLocal(t *Table, idx int, key string, params, value []byte, fut *Future) {
	if t.udf == nil {
		panic(fmt.Sprintf("live: UDF %q for table %q not registered", t.udfName, t.name)) //lint:allow hotpath wiring-bug panic, never taken by a registered UDF
	}
	e.pendingLocal.Add(1)
	if e.local.push(localJob{t: t, idx: idx, key: key, params: params, value: value,
		fut: fut, enqueued: time.Now()}) {
		go e.localWorker(nil)
	}
}

// localJob is one local UDF run: the op's table, the index of the shard owning
// its key, the UDF's inputs, the future it resolves and when it was queued
// (the start of its sojourn).
type localJob struct {
	t             *Table
	idx           int
	key           string
	params, value []byte
	fut           *Future
	enqueued      time.Time
}

// localQueue feeds the executor's Workers long-lived UDF workers: a FIFO ring
// of jobs that doubles when full, so a push never blocks, and a LIFO stack of
// the idle workers' cap-1 channels, so the most recently idle worker takes the
// next job. A worker parks only on an empty ring, so a job that finds one
// idle is handed over through its channel and never enters the ring.
type localQueue struct {
	mu      sync.Mutex
	ring    []localJob // length a power of two (or zero)
	head, n int
	idle    []chan localJob
	live    int  // workers running
	closing bool // set by Close: a worker that finds the ring empty exits
	// exited counts the Workers that NewExecutor started down to zero; Close
	// waits for it.
	exited sync.WaitGroup
}

// push hands j to the most recently idle worker, or queues it behind the
// ring's jobs when every worker is busy. It reports true when every worker
// has already exited (Close): the caller then starts one more, which runs
// what is queued and exits in turn.
//
//joinopt:hotpath
func (q *localQueue) push(j localJob) (spawn bool) {
	q.mu.Lock()
	if k := len(q.idle) - 1; k >= 0 {
		wake := q.idle[k]
		q.idle = q.idle[:k]
		q.mu.Unlock()
		wake <- j // cap 1 and its worker's own: never blocks
		return false
	}
	if q.n == len(q.ring) {
		q.grow()
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = j
	q.n++
	spawn = q.live == 0
	if spawn {
		q.live++
	}
	q.mu.Unlock()
	return spawn
}

// grow doubles the ring, unwrapping the queued jobs to its front. Callers
// hold mu.
func (q *localQueue) grow() {
	ring := make([]localJob, max(2*len(q.ring), 16))
	for i := range q.n {
		ring[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
	}
	q.ring, q.head = ring, 0
}

// close stops the workers — the idle ones now, by closing their channels, and
// the busy ones once the ring is empty — and returns when all have exited.
func (q *localQueue) close() {
	q.mu.Lock()
	q.closing = true
	idle := q.idle
	q.idle = nil
	q.live -= len(idle)
	q.mu.Unlock()
	for _, wake := range idle {
		close(wake)
	}
	q.exited.Wait()
}

// localWorker runs jobs until the queue is closed and its ring empty: the
// ring's, oldest first, and while the ring is empty whatever push hands it
// through wake, its own cap-1 channel, which it puts on the idle stack first.
// A worker that push starts after Close passes nil: it never parks, and exits
// as soon as the ring is empty.
func (e *Executor) localWorker(wake chan localJob) {
	q := &e.local
	if wake != nil {
		defer q.exited.Done()
	}
	for {
		q.mu.Lock()
		if q.n == 0 {
			if q.closing || wake == nil {
				q.live--
				q.mu.Unlock()
				return
			}
			q.idle = append(q.idle, wake)
			q.mu.Unlock()
			j, ok := <-wake
			if !ok {
				return // close counted this worker out
			}
			e.runLocal(j)
			continue
		}
		j := q.ring[q.head]
		q.ring[q.head] = localJob{} // the ring must not pin the job's buffers
		q.head = (q.head + 1) & (len(q.ring) - 1)
		q.n--
		q.mu.Unlock()
		e.runLocal(j)
	}
}

// runLocal runs one job's UDF, observes its sojourn (queued plus service)
// and service time at the key's optimizer, and resolves the future.
func (e *Executor) runLocal(j localJob) {
	start := time.Now()
	out := j.t.udf(j.key, j.params, j.value)
	end := time.Now()
	e.pendingLocal.Add(-1)
	sojourn, service := end.Sub(j.enqueued).Seconds(), end.Sub(start).Seconds()
	sh := e.shards[j.idx]
	sh.mu.Lock()
	j.t.opts[j.idx].ObserveLocalCompute(sojourn, service)
	if e.cfg.Trace != nil {
		e.cfg.Trace(TraceEvent{Kind: TraceLocalCompute, Table: j.t.name,
			Key: j.key, Sojourn: sojourn, Service: service})
	}
	sh.mu.Unlock()
	j.fut.resolve(out)
}
