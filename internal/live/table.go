package live

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"joinopt/internal/cluster"
	"joinopt/internal/core"
)

// Table is a resolved handle on one stored relation: the UDF implementation
// and every shard-local optimizer are looked up once (at Executor
// construction) instead of per Submit, so the one map lookup between the
// caller and the routing decision is the placement map's (placement).
// Handles are immutable and safe for concurrent use; Executor.Table returns
// the same *Table for the life of the executor.
type Table struct {
	e       *Executor
	name    string
	udf     UDF // resolved implementation; nil if never registered
	udfName string
	seed    uint32            // FNV-1a of name+separator: the shard hash prefix
	opts    []*core.Optimizer // per shard, guarded by that shard's lock
}

// Name returns the table's name.
func (t *Table) Name() string { return t.name }

// RouteHint overrides the runtime join-location decision for one call,
// making the paper's FC/FD policies expressible per submission instead of
// per cluster.
type RouteHint uint8

const (
	// Auto (the zero value) lets Algorithm 1 decide per key.
	Auto RouteHint = iota
	// ForceFetch issues a data request: the value is fetched and the UDF
	// runs at the compute node (the FC shape), regardless of what the
	// optimizer would choose. The fetched value still feeds the cache
	// under its normal admission policy unless WithNoCache is also set.
	ForceFetch
	// ForceCompute issues a compute request: the UDF runs at the data
	// node (the FD shape). The server's balancer may still bounce it.
	ForceCompute
)

// Priority is the per-call admission class carried on the wire (protocol
// v3) with every request. Under overload the server's weighted-fair dequeue
// serves High-class work ahead of Normal ahead of Low (without starving
// any), and when a run queue is full, queued Low work is evicted to admit
// High — so low-priority traffic sheds first. The zero value is
// PriorityNormal, keeping the no-option path unchanged.
type Priority uint8

const (
	// PriorityNormal is the default class.
	PriorityNormal Priority = iota
	// PriorityHigh marks latency-critical work: served first under the
	// weighted-fair dequeue and shed last.
	PriorityHigh
	// PriorityLow marks bulk/background work: first to be shed when a
	// store node saturates, served with the smallest fair-share weight.
	PriorityLow
)

// prioNoCache is the priority byte's high bit, which no class uses: an OpGet
// carrying it fetches values nothing will cache, so the data node registers
// no cacher for it (handleGet) and strips the bit before choosing a lane
// (prioIdx). The executor sets it in the batch key, so such fetches ship alone.
const prioNoCache Priority = 0x80

// callOpts is the resolved option set of one submission. The priority is
// its whole wire policy: it is part of the batch and dedup keys, so calls of
// different classes never share a batch or a fetch. A call's own bound is
// its context's deadline.
type callOpts struct {
	route   RouteHint
	noCache bool
	prio    Priority
}

// CallOption tunes one submission, overriding the client-level defaults. It
// is a value: set marks which of its fields the option carries, so folding a
// call's options (resolveOpts) allocates nothing.
type CallOption struct {
	set   optSet
	route RouteHint
	prio  Priority
}

// optSet marks the fields a CallOption sets.
type optSet uint8

const (
	optRoute optSet = 1 << iota
	optPrio
	optNoCache
)

// WithPriority sets the call's admission class (see Priority). Calls with
// different priorities never share a wire batch: the priority byte is
// carried per request, so one batch has exactly one class.
func WithPriority(p Priority) CallOption {
	if p > PriorityLow {
		p = PriorityNormal
	}
	return CallOption{set: optPrio, prio: p}
}

// WithRoute forces the call's join location; see RouteHint.
func WithRoute(h RouteHint) CallOption { return CallOption{set: optRoute, route: h} }

// WithNoCache forces a wire fetch that bypasses the client cache entirely:
// no lookup, no install, no dedup pile-on (the paper's no-caching fetch).
// Ignored when combined with ForceCompute (there is nothing to cache).
func WithNoCache() CallOption { return CallOption{set: optNoCache} }

// Submit routes one invocation of f(key, params) against the table and
// returns a Future for the result; this is the prefetch entry point.
// The context carries the request scope end to end: once ctx is canceled,
// the future rejects with CodeCanceled, the submission is pulled out of the
// batch accumulators and fetch-dedup waiter lists it is parked in, and — if
// its exec batch is already on the wire — a cancel frame tells the data
// node to skip the UDF. Cancellation is a race against completion: an op
// whose result arrives first resolves normally. A background (non-
// cancellable) context adds no per-op cost.
//
//joinopt:hotpath
func (t *Table) Submit(ctx context.Context, key string, params []byte, opts ...CallOption) *Future {
	e := t.e
	fut := newFuture()
	if e.closed.Load() {
		e.Failed.Add(1)
		fut.reject(&Error{Code: CodeClosed, Op: opNone, Msg: "executor closed"})
		return fut
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		e.Canceled.Add(1)
		fut.reject(&Error{Code: CodeCanceled, Op: opNone, Msg: "canceled before routing: " + err.Error()}) //lint:allow hotpath already-canceled path; the concat prices the rejection
		return fut
	}
	co := resolveOpts(opts)
	var cs *cancelState
	if ctx.Done() != nil {
		// Only a cancellable context pays for the chase machinery; the
		// registration is dropped again the moment the future resolves.
		cs = &cancelState{e: e, fut: fut}
		fut.cancel = cs
		stop := context.AfterFunc(ctx, func() { cs.onCtxDone(ctx) }) //lint:allow hotpath only cancellable contexts pay for the chase closure
		cs.mu.Lock()
		cs.stop = stop
		cs.mu.Unlock()
	}
	e.route(t, key, params, fut, cs, co)
	return fut
}

// resolveOpts folds the options into one callOpts, the last option that sets
// a field winning.
func resolveOpts(opts []CallOption) callOpts {
	var co callOpts
	for _, o := range opts {
		if o.set&optRoute != 0 {
			co.route = o.route
		}
		if o.set&optPrio != 0 {
			co.prio = o.prio
		}
		if o.set&optNoCache != 0 {
			co.noCache = true
		}
	}
	return co
}

// Call is the synchronous submission: Submit then WaitCtx under the same
// context. A nil, nil return means the key has no stored row; every failure
// — including cancellation — is a typed *Error.
func (t *Table) Call(ctx context.Context, key string, params []byte, opts ...CallOption) ([]byte, error) {
	f := t.Submit(ctx, key, params, opts...)
	v, err := f.WaitCtx(ctx)
	if f.cancel != nil && ctx.Err() != nil {
		f.cancel.onCtxDone(ctx) // the wait can end before the context's callback runs
	}
	return v, err
}

// Put writes key=value through the live plane and returns the version the
// write committed at.
//
// The write is sequenced, then fanned out: the first member of the key's
// replica set with a live pool assigns the version (a plain OpPut), the value
// is then sent to the remaining members as versioned OpPutRepl records
// applied set-if-newer, and Put returns once a majority of the set has acked
// — the write-quorum (the sequencer counts as one ack). An unreplicated key
// is a set of one: its owner's ack is the quorum and nothing is fanned out.
// Versions stay continuous across sequencer changes because replication
// carries the assigned version explicitly.
//
// Failure semantics follow the storage contract (storage.Table.Put): an
// error does NOT mean the write was rolled back. A put that failed at its
// sequencer's wire, or that missed quorum, may already be visible on some
// replicas — it is "maybe committed", never "rolled back". A quorum miss
// returns the assigned version alongside the error so the caller can read
// back or retry (a retry assigns a fresh, newer version, so last-writer-
// wins keeps retries safe). Sequencer transport errors are deliberately
// NOT failed over to another replica: a second sequencer could assign the
// same version to a different value.
func (t *Table) Put(ctx context.Context, key string, value []byte) (int64, error) {
	e := t.e
	if e.closed.Load() {
		return 0, &Error{Code: CodeClosed, Op: OpPut, Msg: "executor closed"}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return 0, &Error{Code: CodeCanceled, Op: OpPut, Msg: "canceled before send: " + err.Error()}
	}
	var nodes []cluster.NodeID
	var seq int
	var version int64
	for hop := 0; ; hop++ {
		// The sequencer is the first member in placement order whose pool is
		// live; with every pool down the primary gets the attempt anyway and
		// the wire reports the failure.
		nodes, seq = t.placement(key), 0
		for i, n := range nodes {
			if p := e.pool(n); p != nil && p.live() {
				seq = i
				break
			}
		}
		// Once the sequencer has applied the write it may be visible, so our own
		// cached copy goes at its ack (putOnce), not at quorum.
		v, moved, err := t.putOnce(nodes[seq], key, value)
		if err == nil {
			version = v
			break
		}
		// A CodeMoved answer did zero work at the old owner (the redirect is
		// issued before any row is touched), so re-sending this non-idempotent
		// op to the re-resolved set is safe; the hop bound turns a membership
		// routing loop into a surfaced error instead of livelock. Anything
		// else is maybe committed at the sequencer; see above.
		if len(moved) == 0 || hop >= movedMaxHops {
			return 0, err
		}
		e.applyMoved(t, moved)
	}
	if seq != 0 {
		e.PutFailovers.Add(1)
	}
	if len(nodes) == 1 {
		return version, nil
	}

	// Fan the versioned record to the rest and ack at majority. Stragglers
	// past quorum keep replicating in the background — their set-if-newer
	// applies stay correct whenever they land.
	payload := encodePutRepl(version, value)
	acks, need := 1, len(nodes)/2+1
	results := make(chan *Error, len(nodes)-1)
	for i, node := range nodes {
		if i == seq {
			continue
		}
		go func() {
			rreq := Request{Op: OpPutRepl, Table: t.name,
				Keys: []string{key}, Params: [][]byte{payload}}
			rresp, _ := e.callNode(liveBatchKey{t: t, node: node, op: OpPutRepl}, &rreq, nil, false)
			err := respError(OpPutRepl, rresp)
			putResponse(rresp)
			results <- err
		}()
	}
	var lastErr *Error
	for pending := len(nodes) - 1; acks < need && pending > 0; {
		select {
		case err := <-results:
			pending--
			if err != nil {
				lastErr = err
			} else {
				// An idempotent replay (a newer version already applied
				// there) still acks: the replica holds data at least as
				// new as this write.
				acks++
			}
		case <-ctx.Done():
			return version, &Error{Code: CodeCanceled, Op: OpPut,
				Msg: "canceled waiting for write quorum: " + ctx.Err().Error()}
		}
	}
	if acks < need {
		msg := fmt.Sprintf("write quorum not reached: %d/%d acks (need %d)", acks, len(nodes), need)
		if lastErr != nil {
			msg += ": " + lastErr.Error()
		}
		return version, &Error{Code: CodeTransport, Op: OpPut, Msg: msg}
	}
	return version, nil
}

// putOnce is the one OpPut of a write: a single wire attempt at node (callNode
// never re-sends a put: one that failed at the wire is maybe committed) whose
// ack applies the assigned version to this executor's own, now stale, cached
// copy. A CodeMoved rejection returns its redirect payload, nil when corrupt.
func (t *Table) putOnce(node cluster.NodeID, key string, value []byte) (int64, []movedRegion, *Error) {
	req := Request{Op: OpPut, Table: t.name, Keys: []string{key}, Params: [][]byte{value}}
	resp, _ := t.e.callNode(liveBatchKey{t: t, node: node, op: OpPut}, &req, nil, false)
	defer putResponse(resp)
	if err := respError(OpPut, resp); err != nil {
		var moved []movedRegion
		if err.Code == CodeMoved && len(resp.Values) > 0 {
			if m, ok := decodeMoved(resp.Values[0]); ok {
				moved = m
			}
		}
		return 0, moved, err
	}
	if len(resp.Metas) != 1 {
		return 0, nil, &Error{Code: CodeServer, Op: OpPut, Msg: "malformed put response"}
	}
	v := resp.Metas[0].Version
	t.e.invalidate(t, key, v)
	return v, nil, nil
}

// cancelState chases one cancellable submission through the executor: it
// tracks where the op is currently parked (batch accumulator, fetch-dedup
// waiter list, or on the wire) so a context cancellation can pull it out,
// and it owns the op's "counted" claim — the exactly-once token that keeps
// the Stats accounting invariant exact when cancellation races completion.
//
// Lock order: a shard lock may be taken before mu (routing); the cancel
// path therefore snapshots under mu, releases it, and only then touches
// shard and accumulator state.
type cancelState struct {
	e    *Executor
	fut  *Future
	stop func() bool // context.AfterFunc deregistration; set under mu

	mu       sync.Mutex
	counted  bool // the op's one Stats bucket has been chosen
	canceled bool
	// Where the submission is parked (written under the owning shard's
	// lock + mu as it moves): its key's shard, the batch key naming its
	// accumulator and, for a cacheable fetch, its waiter and the lead of the
	// fetch that waiter rides (itself when it leads).
	sh      *execShard
	bk      liveBatchKey
	lead, w *waiter
	// Wire location of the op's exec batch (set by the flush goroutine):
	conn   *Conn
	wireID uint64
	index  int
}

// claim marks the op as counted and reports whether the caller won the
// right to count it. Nil-safe: an uncancellable op always says yes — it is
// counted exactly once by construction.
func (cs *cancelState) claim() bool {
	if cs == nil {
		return true
	}
	cs.mu.Lock()
	won := !cs.counted
	cs.counted = true
	cs.mu.Unlock()
	return won
}

// isCanceled reports whether the context fired; nil-safe.
func (cs *cancelState) isCanceled() bool {
	if cs == nil {
		return false
	}
	cs.mu.Lock()
	c := cs.canceled
	cs.mu.Unlock()
	return c
}

// park records the submission's current shard-side location; callers hold
// the owning shard's lock. Nil-safe, like claim.
func (cs *cancelState) park(sh *execShard, bk liveBatchKey, lead, w *waiter) {
	if cs == nil {
		return
	}
	cs.mu.Lock()
	cs.sh, cs.bk, cs.lead, cs.w = sh, bk, lead, w
	cs.mu.Unlock()
}

// publishWire records where the op's exec batch went on the wire so a later
// cancel can chase it with a cancel frame. If the cancel already fired, the
// frame goes out now — the canceling goroutine ran before the send and
// could not.
func (cs *cancelState) publishWire(c *Conn, id uint64, index int) {
	cs.mu.Lock()
	cs.conn, cs.wireID, cs.index = c, id, index
	canceled := cs.canceled
	cs.mu.Unlock()
	if canceled {
		c.cancelRemote(id, index)
	}
}

// stopAfterFunc drops the context registration once the future resolved, so
// a long-lived context does not accumulate dead AfterFuncs across many
// submissions.
func (cs *cancelState) stopAfterFunc() {
	cs.mu.Lock()
	stop := cs.stop
	cs.mu.Unlock()
	if stop != nil {
		stop()
	}
}

// onCtxDone is the context.AfterFunc body, and Call runs it too when its
// wait ends with the context: claim the op and count it Canceled, then reject
// the future (no wait may ever hang on a canceled context), then best-effort
// pull the op out of the machinery — accumulator entry, dedup waiter, or a
// cancel frame to the data node for an exec batch already on the wire. An op
// a result claimed first is that result's to count and resolve.
func (cs *cancelState) onCtxDone(ctx context.Context) {
	cs.mu.Lock()
	if cs.counted {
		cs.mu.Unlock()
		return
	}
	cs.canceled, cs.counted = true, true
	cs.e.Canceled.Add(1) // under mu: a second run returns only after it
	sh, bk, lead, w := cs.sh, cs.bk, cs.lead, cs.w
	conn, id, idx := cs.conn, cs.wireID, cs.index
	cs.mu.Unlock()

	op := opNone
	if sh != nil {
		op = bk.op
	}
	msg := "context canceled"
	if err := ctx.Err(); err != nil {
		msg = err.Error()
	}
	cs.fut.reject(&Error{Code: CodeCanceled, Op: op, Msg: msg})

	if sh != nil {
		sh.mu.Lock()
		// Looked up under sh.mu: route parks and enqueues under it, so the
		// accumulator a first-ever submission to bk creates is visible here.
		acc := (*cs.e.accs.Load())[bk] // nil once Close emptied the table
		switch {
		case w != nil:
			// Leave the dedup crowd (a canceled lead stays on as the record:
			// the response-side claim skips it). If that leaves nobody
			// interested and the fetch has not shipped, drop the fetch and
			// the record too (the next Submit re-issues); if the fetch is in
			// flight, keep the record so later Submits pile onto its answer
			// instead of double-fetching.
			if i := slices.Index(lead.followers, w); i >= 0 {
				lead.followers = slices.Delete(lead.followers, i, i+1)
			}
			if len(lead.followers) == 0 && lead.cancel.isCanceled() && acc.remove(nil, lead) {
				sh.unmap(lead)
			}
		default:
			// An exec or no-cache entry still sitting in its accumulator
			// is simply removed; one already shipped is handled by the
			// response-side claim (and, for exec, the cancel frame below).
			acc.remove(cs, nil)
		}
		sh.mu.Unlock()
	}
	if conn != nil {
		conn.cancelRemote(id, idx)
	}
}
