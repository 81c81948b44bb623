package live

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/loadbalance"
)

// nodeSet is one immutable snapshot of the executor's node table; see
// Executor.nodes. The map is never mutated after install; the records it
// points at are shared between snapshots.
type nodeSet map[cluster.NodeID]*nodeState

// nodeState is everything the executor keeps per data node.
type nodeState struct {
	pool     *Pool
	dropping atomic.Int64 // pending cache-drop sweeps (dropNodeCache)
	// target is the adaptive batch target: shrunk when the node advertises
	// zero credit, grown back toward cfg.BatchSize when credit is plentiful.
	// 0 = unadapted (use the configured size).
	target atomic.Int64
}

// node returns n's record, nil when the node was never dialed: it is in the
// placement map but not in ExecConfig.Addrs, or a redirect just named it.
//
//joinopt:hotpath
func (e *Executor) node(n cluster.NodeID) *nodeState { return (*e.nodes.Load())[n] }

// pool returns the node's connection pool (nil when it was never dialed).
//
//joinopt:hotpath
func (e *Executor) pool(n cluster.NodeID) *Pool {
	if s := e.node(n); s != nil {
		return s.pool
	}
	return nil
}

// ensureNode makes sure a pool for node exists, dialing addr on first
// contact (a membership redirect can name a node the executor has never
// seen) and installing the grown node table copy-on-write. When the dial of a
// redirect's node fails, the caller's op fails through the normal transport
// path and a later redirect retries the dial.
func (e *Executor) ensureNode(node cluster.NodeID, addr string) (*Pool, error) {
	if p := e.pool(node); p != nil {
		return p, nil
	}
	e.nodesMu.Lock()
	defer e.nodesMu.Unlock()
	if p := e.pool(node); p != nil {
		return p, nil
	}
	// A dead conn takes its server-side invalidation subscriptions with it:
	// any key this node homes could be updated without us hearing. The hook
	// drops those cache entries so the next access refetches instead of
	// serving an arbitrarily stale value forever; it is bound at pool
	// construction, before any read loop runs.
	pool, err := dialPool(addr, e.cfg.ConnsPerNode, e.onNotification,
		func() { e.dropNodeCache(node) })
	if err != nil {
		return nil, err
	}
	next := maps.Clone(*e.nodes.Load())
	next[node] = &nodeState{pool: pool}
	e.nodes.Store(&next)
	return pool, nil
}

// ship sends one wire batch taken out of its accumulator: filter what
// canceled while parked, build the request and hand it to a flush goroutine
// that carries it through callNode and handleResponse. Callers hold no lock.
//
//joinopt:hotpath
func (e *Executor) ship(b *liveBatch) {
	bk, entries := b.bk, b.entries
	// Drop entries whose context already canceled: their futures are
	// rejected and counted, and shipping them would only burn data-node
	// time. Canceled dedup fetches are removed at cancel time (the waiter
	// path), so only exec/no-cache entries carry a cancel here.
	cancellable := false
	kept := entries[:0]
	for _, ent := range entries {
		cancellable = cancellable || ent.cancel != nil
		if !ent.cancel.isCanceled() {
			kept = append(kept, ent)
		}
	}
	clear(entries[len(kept):]) // the dropped tail must pin nothing
	entries, b.entries = kept, kept
	acc := b.acc
	if len(entries) == 0 {
		putBatch(b)
		acc.done()
		return
	}

	// A fetch ships keys alone: the server reads no params for it, and the
	// entries keep theirs for the local UDF run.
	keys, params := b.req.Keys[:0], b.req.Params[:0]
	for i := range entries {
		keys = append(keys, entries[i].key)
		if bk.op != OpGet {
			params = append(params, entries[i].params)
		}
	}
	b.req = Request{Op: bk.op, Table: bk.t.name, Priority: bk.prio, Keys: keys, Params: params}
	if bk.op == OpExec {
		b.req.Stats = e.stats()
	}
	// Register the batch as in-flight before checking closed: Close flips
	// the flag under closeMu's write lock, so either this flush registers
	// first (Close waits for its handler) or it observes closed and fails
	// the batch itself — a future can never slip between the two.
	e.closeMu.RLock()
	if e.closed.Load() {
		e.closeMu.RUnlock()
		e.failBatch(bk, entries, &Error{Code: CodeClosed, Op: bk.op, Msg: "executor closed"})
		putBatch(b)
		acc.done()
		return
	}
	// A cancel arriving after the batch ships must chase it over the wire
	// (exec only: gets are cheap and idempotent, but an abandoned UDF is
	// real work the server can still skip).
	wireCancelable := cancellable && bk.op == OpExec
	e.flushes.Add(1)
	e.closeMu.RUnlock()
	e.countFlush(b.why)
	e.inflightReqs.Add(int64(len(entries)))
	//joinopt:xfer the flush goroutine takes ownership of b and its req; putBatch runs at its end
	go func() { //lint:allow hotpath the flush goroutine is the batch's one budgeted allocation
		defer e.flushes.Done()
		var start time.Time
		if e.tracker != nil { // only replicated tables pay for the clock read
			start = time.Now()
		}
		// Snapshot the migration generation before the send: if it moved by
		// the time the response is back, a fetched value may predate a
		// cutover whose version-0 invalidation already swept the cache, and
		// must not be installed under a dead subscription.
		gen := e.migGen.Load()
		resp, epoch := e.callNode(bk, &b.req, b.entries, wireCancelable)
		e.inflightReqs.Add(-int64(len(b.entries)))
		// The link is free again — whatever handleResponse does with the
		// answer (failover included): a waiter that found it busy ships now,
		// before this batch's results are even distributed.
		acc.done()
		if resp.Window > 0 {
			// The node signaled: steer this node's batch target
			// from its advertised credit before results are distributed.
			e.adaptBatch(bk.node)
		}
		if e.tracker != nil {
			if respError(bk.op, resp) == nil {
				// Feed replica routing its per-entry service time — the
				// server-reported figure, which excludes queue wait so an
				// overloaded-but-fast replica is not priced as
				// intrinsically slow; the measured RTT when it rounds to
				// zero. Failures are never folded in: a fast
				// transport error would make a dead node look like the
				// cheapest replica in the cluster.
				per := time.Since(start).Seconds() / float64(len(b.entries))
				if resp.ServiceMicros > 0 {
					per = float64(resp.ServiceMicros) / 1e6 / float64(len(b.entries))
				}
				e.tracker.Observe(int(bk.node), per)
			}
		}
		e.handleResponse(bk, b.entries, resp, epoch, gen)
		putResponse(resp)
		putBatch(b)
	}()
}

// countFlush counts one batch going on the wire under its flush cause.
//
//joinopt:hotpath
func (e *Executor) countFlush(why flushCause) {
	switch why {
	case flushSize:
		e.SizeFlushes.Add(1)
	case flushWaiter:
		e.WaiterFlushes.Add(1)
	case flushCompletion:
		e.CompletionFlushes.Add(1)
	case flushTimer:
		e.TimerFlushes.Add(1)
	}
}

// callNode is how every client request crosses the wire — a batch from ship, a
// Table.Put, a replication record — under the executor's deadline and retry
// policy: each attempt is paced, stamped with the routing epoch and bounded
// by ExecConfig.RequestTimeout, and transport failures of idempotent ops
// (OpGet, OpExec — re-running them changes no server state; a put gets its
// one attempt) are re-sent up to the retry budget through the pool, which
// routes around dead connections while its dialers bring them back. A
// CodeOverloaded shed spends the same budget, but only for idempotent ops and
// only after the server's retry-after hint (plus jitter, so a herd of shed
// batches cannot re-arrive in lockstep). Server rejections and timeouts return as-is. The
// returned epoch is the pool's disconnect epoch snapshotted just before the
// answered attempt went out: if it still matches at cache-install time, no
// conn of this node died in between and the fetched values' invalidation
// subscriptions are intact.
func (e *Executor) callNode(bk liveBatchKey, req *Request, entries []liveEntry, publish bool) (*Response, int64) {
	pool := e.pool(bk.node)
	if pool == nil {
		// Never contacted: a redirect resolved in another goroutine publishes
		// ownership through the shared map, so an op can route here before
		// (or without) that goroutine's own dial. The map, not the redirect
		// payload, is the durable source of the address.
		if addr := e.member.View().Addr(bk.node); addr != "" {
			pool, _ = e.ensureNode(bk.node, addr)
		}
	}
	if pool == nil {
		// No address known, or the dial failed; surface it as a transport
		// error so the normal retry/redirect machinery (a fresh redirect
		// re-attempts the dial) takes over.
		return errResponse(req.ID, CodeTransport,
			fmt.Sprintf("live: no connection to node %d", bk.node)), 0
	}
	attempts := 1
	if bk.op == OpGet || bk.op == OpExec {
		attempts += e.cfg.MaxRetries
	}
	backoff := time.Millisecond
	var resp *Response
	for a := 0; ; a++ {
		e.pace(pool)
		// Stamp the routing epoch per attempt: a retry that spans a learned
		// cutover carries the fresher stamp (a static map stamps 0, the
		// wire's "no membership", until a redirect teaches it).
		req.Epoch = e.member.Epoch()
		epoch := pool.epoch.Load()
		resp = e.callOnce(pool, req, entries, publish)
		err := respError(bk.op, resp)
		if err == nil {
			return resp, epoch
		}
		// Only idempotent ops reach attempts > 1 (see above), so an
		// overloaded retry can never double-apply a put.
		overloaded := err.Code == CodeOverloaded
		if (!err.Retryable() && !overloaded) || a+1 >= attempts || e.closed.Load() {
			return resp, epoch
		}
		putResponse(resp) // this attempt is dead; the retry brings its own
		e.Retries.Add(1)
		if overloaded {
			// The server shed the batch at admission and priced its own
			// recovery: wait at least the hint, jittered upward so the
			// retrying herd spreads instead of re-arriving as one spike.
			hint := err.RetryAfter()
			if hint <= 0 {
				hint = time.Millisecond
			}
			time.Sleep(hint + jitter(hint/2))
			continue
		}
		// A beat between attempts: an instant retry against a node that
		// just dropped all its conns would only burn the budget before
		// the pool's redial can land. Jittered for the same herd reason.
		time.Sleep(backoff + jitter(backoff/2))
		if backoff *= 4; backoff > 100*time.Millisecond {
			backoff = 100 * time.Millisecond
		}
	}
}

// jitter returns a uniformly random duration in [0, d); 0 for d <= 0. Used
// to decorrelate retry and failover timing across goroutines so load that
// was shed together does not return together.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(rand.Int64N(int64(d)))
}

// Pacing bounds: with the node's advertised credit exhausted and
// this pool's outstanding ops at or over its advertised budget, a flush
// waits in paceTick steps — but never longer than paceMaxWait (or a quarter
// of the request timeout, whichever is smaller), so pacing can delay a send
// into freed credit yet can never wedge a batch behind a silent peer.
const (
	paceTick    = 200 * time.Microsecond
	paceMaxWait = 20 * time.Millisecond
)

// pace holds a wire attempt while the node's advertised window is exhausted
// (credit 0, window > 0) and this pool already has a full window's worth of
// ops outstanding. Window 0 means the node has not signaled yet:
// pacing disengages entirely rather than guess. The wait is cooperative
// backpressure, not admission control — the server's bounded queues remain
// the enforcement point; pacing just keeps a well-behaved client from
// manufacturing sheds it would then have to retry.
func (e *Executor) pace(pool *Pool) {
	if !pool.starved() || pool.outstanding.Load() < pool.budget() {
		return
	}
	pool.paceWaits.Add(1)
	deadline := time.Now().Add(min(paceMaxWait, e.cfg.RequestTimeout/4))
	for {
		time.Sleep(paceTick)
		if e.closed.Load() || !time.Now().Before(deadline) {
			return
		}
		if pool.outstanding.Load() < pool.budget() {
			return
		}
		if !pool.starved() {
			return
		}
	}
}

// adaptBatch steers a node's target batch size from the credit its pool last
// saw advertised: starvation halves the target — smaller batches admit under a
// tight window and spread the load across flushes — while plentiful credit
// (at least half the window free) grows it back toward the configured size.
func (e *Executor) adaptBatch(node cluster.NodeID) {
	s := e.node(node)
	if s == nil {
		return
	}
	credit, window := s.pool.lastCredits()
	cur := s.target.Load()
	if cur <= 0 {
		cur = int64(e.cfg.BatchSize)
	}
	next := cur
	switch {
	case credit == 0:
		next = cur / 2
		if floor := int64(min(8, e.cfg.BatchSize)); next < floor {
			next = floor
		}
	case int(credit)*2 >= int(window):
		next = cur + cur/4 + 1
		if ceil := int64(e.cfg.BatchSize); next > ceil {
			next = ceil
		}
	}
	if next != cur {
		s.target.Store(next)
	}
}

// batchLimit is the node's current target batch size: the adaptive target
// when backpressure has set one, the configured size otherwise.
//
//joinopt:hotpath
func (e *Executor) batchLimit(node cluster.NodeID) int {
	if s := e.node(node); s != nil {
		if v := s.target.Load(); v > 0 {
			return int(v)
		}
	}
	return e.cfg.BatchSize
}

// callOnce is one wire attempt under ExecConfig.RequestTimeout (see
// sentCall.wait). With publish set, every cancellable entry learns its wire
// location right after the send, so a context cancellation can chase the op
// with a cancel frame (a cancel that fired in the gap is sent by publishWire
// itself).
func (e *Executor) callOnce(pool *Pool, req *Request, entries []liveEntry, publish bool) *Response {
	pool.outstanding.Add(1)
	defer pool.outstanding.Add(-1)
	sc := pool.send(req)
	if publish && sc.c != nil {
		for i := range entries {
			if cs := entries[i].cancel; cs != nil {
				cs.publishWire(sc.c, sc.id, i)
			}
		}
	}
	return sc.wait(e.cfg.RequestTimeout, pool)
}

// stats snapshots the Appendix C compute-side statistics. The signals are
// global atomics — shard-local pressure would mislead the data-node
// balancer, which needs the whole compute node's queue depth.
func (e *Executor) stats() loadbalance.ComputeStats {
	return loadbalance.ComputeStats{
		PendingLocal:     int(e.pendingLocal.Load()),
		OutstandingOther: int(e.inflightReqs.Load()),
		NetBw:            e.cfg.NetBw,
	}
}
