// Package live is the runnable (non-simulated) plane of the library: an
// in-memory parallel data store served over TCP, a pipelined asynchronous
// client with per-node connection pools, and an executor that drives the
// same core optimizer (Algorithm 1) against real servers.
//
// The live plane exists so the library is a usable system: examples and
// integration tests run real joins with real bytes. The published figures
// come from the simulation plane (internal/exec), where resource contention
// is modeled deterministically.
//
// # The server's stages
//
// A request read off a connection (server.go: lifecycle, accept and read
// loops) crosses four stage files, each the sole owner of its decisions:
// admission.go admits it into its class's bounded run queue or sheds it;
// execute.go serves it — the op switch, the one UDF limiter (ExecWorkers
// slots bound the UDFs in flight across all batches), the Section 5 balancer
// and the load it reads, and the one commit path both write ops take (apply →
// flush barrier → take cachers → notify); respond.go prices backpressure and
// is the one way a response leaves; notify.go is the cacher registry. Each
// has a socketless _test.go: socketlessServer and socketlessConn
// (execute_test.go) drive the stages over an in-memory connection.
//
// # Wire protocol
//
// Messages cross the wire as length-prefixed binary frames; this is the only
// transport. Every frame is a uvarint byte count followed by that many
// payload bytes; the first payload byte names the message kind:
//
//	frame        := uvarint(len(payload)) payload
//	payload      := kind(1B) body
//	kind         := 0x01 request | 0x02 response | 0x03 notification
//	                | 0x04 cancel
//
//	request      := uvarint id · op(1B) · prio(1B) · uvarint epoch
//	                · string table
//	                · uvarint nkeys  · nkeys  × string
//	                · uvarint nparams· nparams× blob
//	                · stats(6 × varint · 2 × float64le)
//	response     := uvarint id · errcode(1B) · string err
//	                · credit(1B) · window(1B)
//	                · uvarint retryAfterMillis
//	                · uvarint queueMicros · uvarint serviceMicros
//	                · uvarint nvalues · nvalues × blob
//	                · uvarint nflags  · ceil(nflags/8) bytes  (Computed,
//	                  bit-packed LSB-first)
//	                · uvarint nmetas  · nmetas × (varint valueSize
//	                  · varint computedSize · float64le computeCost
//	                  · varint version)
//	notification := string table · string key · varint version
//	cancel       := uvarint id · uvarint index
//
//	string       := uvarint(len) bytes
//	blob         := uvarint(0) ⇒ nil | uvarint(len+1) bytes   (nil ≠ empty)
//
// Responses to one request always arrive on the connection that carried the
// request; requests are multiplexed by ID, so any number can be in flight per
// connection, and Pool spreads a client's traffic over several connections.
//
// # Overload & backpressure
//
// prio is the request's admission class (0 normal, 1 high, 2 low; see
// Priority) in its low bits. Its high bit (0x80) marks an OpGet whose values
// nothing will cache: the server does not register the connection as a
// cacher of its keys, so a later write of them notifies nobody; the server
// strips the bit before choosing a queue lane, and a fetch ships no params. Every response carries a backpressure header. window is the
// per-connection outstanding-op budget the server currently advertises for
// the answered op's class, computed from run-queue headroom and the class's
// EWMA service time (≈50ms of queued service per connection, capped at
// 255); credit is window minus the connection's in-flight count, floored at
// zero — credit 0 with a nonzero window says "stop sending, I am
// saturated". A server always budgets at least one op, so window 0 only
// appears on responses fabricated locally (transport failures, timeouts)
// and means "no signal". The client's flush path paces batch release against
// the advertised window and adapts its target batch size from the same
// signal. retryAfterMillis is nonzero only on CodeOverloaded sheds: the
// server's estimate of when queue headroom returns (depth × EWMA service
// time ÷ workers, clamped to [1ms, 2s]); clients retry idempotent shed ops
// only after that hint plus jitter. queueMicros/serviceMicros split the
// server-side life of the request into time spent queued at admission and
// time spent actually executing, so clients can price replicas on true
// service time (queue wait never poisons the EWMA) and attribute timeouts
// to queuing vs long-running UDFs.
//
// # Cancellation
//
// A cancel frame tells the server that the client has abandoned one op of an
// in-flight batch: id is the batch request's ID on this connection, index
// its position in the request's key list. Because cancel rides the same
// ordered stream as the request it refers to, it can never overtake it; a
// cancel for a request that already answered (or was never seen) is
// dropped. The server skips UDF execution for canceled exec slots it has not
// started yet (Server.ExecCanceled counts the skips) and returns the slot
// uncomputed; the client has already rejected the op's future with
// CodeCanceled and ignores the slot.
//
// # Membership & migration
//
// epoch is the client's routing epoch — the version of the membership.Map
// view it routed the request under; 0 means "no membership configured" (the
// static-cluster shape). A store node with an installed partition map
// compares the stamp against its own epoch — one equal comparison on the hot
// path — and only on a mismatch walks the request's keys against its
// moved-region set. A key whose region migrated away is never served stale:
// the whole request is answered with errcode CodeMoved, zero work done, and
// the response's first value blob carries the redirect payload
//
//	moved        := uvarint nmoved
//	                · nmoved × (uvarint epoch · uvarint region
//	                            · uvarint node · string addr)
//
// naming every moved region the request touched (owner node ID + wire
// address, so the client can dial a node it has never seen), each stamped
// with the epoch of its own cutover — redirects are fenced per region, not
// against the global epoch, so a delayed redirect from an older move can
// never roll a region back (membership.Map.LearnOwner). The executor
// applies the payload to its map, dials the new owner if needed, and
// transparently re-sends — callers never observe CodeMoved under a healthy
// map.
//
// Migration itself rides existing machinery: the new owner copies the
// partition through partition-scoped OpScan pages (Params[1] carries the
// region filter — uvarint region · uvarint nregions — and the server skips
// rows hashing outside it; see migrate.go). Before the copy the old owner
// raises its version floor to the region's highest version, so the puts it takes
// during the copy land above it. Cutover is fenced on the epoch bump: puts
// to the moving region are briefly bounced with a typed CodeOverloaded
// (retry-after ≈1ms), a second pass pulls only the rows above the floor
// (Params[2], a uvarint version bound), the target's version counters are
// floored above everything the source ever assigned, and only then does
// the map bump — after which the source answers CodeMoved and the target
// owns the region.
//
// # Buffers and ownership
//
// Encode buffers come from a size-classed arena (frame.go) shared by both
// sides; each frame is framed in place and handed to the connection's
// coalescing writer, a single goroutine per connection that gathers every
// frame queued since the last syscall into one buffered write, so
// concurrent senders share syscalls instead of serializing on a mutex. The
// decode path is zero-copy: value slices alias the single frame buffer, so
// a batch of values costs one allocation, not one per value. Server-side
// request frames are recycled once the handler has written its response
// (params are only valid during the UDF call). On the client, a frame
// with values passes its ownership to the decoded response, whose values
// feed futures and the cache; a notification or a response without values
// (a put ack, an error reply) is decoded where it lies in the connection's
// read buffer, every field a copy, and allocates no frame. Request/Response carriers and completion cells are pooled
// end to end — see recycle.go for the ownership rules.
package live

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"joinopt/internal/loadbalance"
)

// Op identifies a request type.
type Op uint8

// Request operations.
const (
	// OpGet fetches stored values (a data request; "buy"). The node
	// registers the connection as a cacher of each key unless the request
	// carries prioNoCache.
	OpGet Op = iota
	// OpExec runs the table's UDF server-side (a compute request;
	// "rent"); the server's balancer may return some values uncomputed.
	OpExec
	// OpPut stores values, bumping row versions and triggering
	// invalidation notifications.
	OpPut
	// OpPutRepl applies replicated rows at explicit versions (set-if-
	// newer), the backup half of a quorum put. Each param blob carries the
	// version ahead of the value: uvarint(version) · blob(value) — the
	// same (version, value) pair a WAL record logs, so the replication
	// stream needs no new frame format. Idempotent (safe to re-send) and
	// it triggers the same invalidation notifications as OpPut.
	OpPutRepl
	// OpScan pages a table's rows for replica catch-up and shard
	// migration: Keys[0] is the exclusive start-after cursor ("" = begin),
	// Params[0] an optional uvarint page limit, and Params[1] an optional
	// partition filter — uvarint(region) · uvarint(nregions) —
	// restricting the page to rows store.RegionIndex assigns to that
	// region, so a migration streams exactly one partition, and Params[2]
	// an optional uvarint version bound: rows at or below it are skipped,
	// so a migration's delta pass pulls only the rows put since the
	// source raised its floor. Each returned value blob is one row,
	// app-level-encoded as string(key) · uvarint(version) · blob(value);
	// rows come back in ascending key
	// order, so the last key is the next cursor and a short page ends the
	// scan. Filtered pages may be short without ending the scan only when
	// the server ran out of rows, never mid-table: the page is "limit
	// matching rows or end of table", identical cursor semantics.
	OpScan
)

// Request is one batched call to a store node (Section 7.2: requests are
// always shipped in batches).
//
//joinopt:pooled
type Request struct {
	ID uint64
	Op Op
	// Priority is the request's admission class: under overload
	// the server's weighted-fair dequeue favors high over normal over low,
	// and low is evicted first when a run queue fills. On an OpGet the
	// prioNoCache bit may ride along: a fetch nothing caches.
	Priority Priority
	// Epoch is the client's routing epoch: the membership.Map
	// view version the request was routed under, or 0 when no membership
	// is configured. A server holding a newer map answers requests that
	// touch migrated-away regions with CodeMoved instead of serving stale
	// placement; everything else is served normally (the check is one
	// comparison when the epochs agree).
	Epoch  uint64
	Table  string
	Keys   []string
	Params [][]byte // OpExec: per-key UDF parameters; OpPut: values
	// Stats is the compute node's load snapshot (Appendix C), used by
	// the server's balancer for OpExec.
	Stats loadbalance.ComputeStats

	// frame is the arena buffer a server-side request was decoded from
	// (params alias it); putRequest recycles both together. Never set on
	// the client side.
	frame *[]byte
}

// Meta carries the per-key cost parameters back with every response
// (Section 4.3).
type Meta struct {
	ValueSize    int64
	ComputedSize int64
	ComputeCost  float64 // measured UDF seconds at the server
	Version      int64
}

// Response answers one Request. Decoded Values alias the frame buffer they
// arrived in; copy before mutating or retaining beyond the message.
//
// A failed response carries a Code classifying the failure and a
// human-readable Err; Code is CodeOK (zero) on success. Client-side
// failures (transport, timeout, shutdown) reuse the same shape so one
// plumbing path carries every outcome.
//
//joinopt:pooled
type Response struct {
	ID       uint64
	Values   [][]byte
	Computed []bool // per key: true = UDF ran server-side
	Metas    []Meta
	Code     ErrCode
	Err      string

	// Backpressure header. Window is the per-connection outstanding-op
	// budget the server advertises for the answered op's class; Credit is
	// the budget minus the connection's current in-flight count (0 = stop
	// sending). Window 0 means "no signal" (a locally fabricated response),
	// so pacing never engages on it.
	Credit uint8
	Window uint8
	// RetryAfterMillis is the shed hint: nonzero only with CodeOverloaded.
	RetryAfterMillis uint64
	// QueueMicros and ServiceMicros split the request's server-side life
	// into admission-queue wait and actual execution time.
	QueueMicros   uint64
	ServiceMicros uint64
}

// Notification is a server-initiated cache invalidation (Section 4.2.3).
type Notification struct {
	Table   string
	Key     string
	Version int64
}

// Cancel is a client-initiated abandonment of one batched op: ID
// names the in-flight request on the same connection, Index the op's slot
// in that request's key list. Sent when a submission's context is canceled
// after its batch went out, so the server can drop exec work it has not
// dispatched yet instead of burning UDF time on a result nobody will read.
type Cancel struct {
	ID    uint64
	Index uint32
}

// wireConn is one transport connection: a net.Conn plus its codec. On the
// server side it additionally tracks which in-flight requests have canceled
// slots, so exec workers can skip abandoned UDF work.
type wireConn struct {
	c net.Conn
	*binCodec

	// inflight counts requests read on this connection whose responses
	// have not been written yet (server side only); credit stamping
	// subtracts it from the advertised per-conn window.
	inflight atomic.Int64
	// gone is set when the server's read loop exits, before it sweeps the
	// conn out of the cacher registries (see cachers.register).
	gone atomic.Bool

	// Cancel registry (server side only; clients never populate it).
	// cancelsSeen makes the zero-cancel hot path one atomic load: exec
	// workers only take cmu once a cancel has ever arrived on this conn.
	cancelsSeen atomic.Int64
	cmu         sync.Mutex
	active      map[uint64]struct{}            // request IDs currently being handled
	canceled    map[uint64]map[uint32]struct{} // request ID -> canceled slot indices
}

// beginActive registers a request as in flight so later cancel frames for
// it are accepted; endActive drops the registration and any cancels, which
// bounds the registry by the number of concurrently-handled requests.
func (w *wireConn) beginActive(id uint64) {
	w.inflight.Add(1)
	w.cmu.Lock()
	if w.active == nil {
		w.active = make(map[uint64]struct{})
	}
	w.active[id] = struct{}{}
	w.cmu.Unlock()
}

func (w *wireConn) endActive(id uint64) {
	w.inflight.Add(-1)
	w.cmu.Lock()
	delete(w.active, id)
	if set := w.canceled[id]; set != nil {
		delete(w.canceled, id)
		w.cancelsSeen.Add(int64(-len(set)))
	}
	w.cmu.Unlock()
}

// markCanceled records a cancel frame. Stream ordering guarantees the
// request was read first, so an inactive ID means the request already
// finished — the cancel is stale and dropped (never stored, never leaked).
func (w *wireConn) markCanceled(c Cancel) {
	w.cmu.Lock()
	if _, ok := w.active[c.ID]; ok {
		if w.canceled == nil {
			w.canceled = make(map[uint64]map[uint32]struct{})
		}
		set := w.canceled[c.ID]
		if set == nil {
			set = make(map[uint32]struct{})
			w.canceled[c.ID] = set
		}
		if _, dup := set[c.Index]; !dup {
			set[c.Index] = struct{}{}
			w.cancelsSeen.Add(1)
		}
	}
	w.cmu.Unlock()
}

// slotCanceled reports whether slot i of request id was canceled; the
// no-cancel steady state answers with a single atomic load.
func (w *wireConn) slotCanceled(id uint64, i int) bool {
	if w.cancelsSeen.Load() == 0 {
		return false
	}
	w.cmu.Lock()
	_, ok := w.canceled[id][uint32(i)]
	w.cmu.Unlock()
	return ok
}

func newWireConn(c net.Conn) *wireConn {
	return &wireConn{c: c, binCodec: newBinCodecConn(c)}
}

// closeFlushTimeout bounds how long a closing connection keeps writing out
// responses already queued on it before the socket goes regardless.
const closeFlushTimeout = time.Second

func (w *wireConn) Close() error {
	// Stop the coalescing writer before the socket goes. It flushes what is
	// queued first; the deadline keeps a peer that stopped reading from
	// wedging the close (it also unblocks a write already stuck).
	w.c.SetWriteDeadline(time.Now().Add(closeFlushTimeout))
	w.binCodec.close()
	return w.c.Close()
}

// UDF is a side-effect-free function f'(k, p, v) (Section 3.1): it combines
// the key, the caller's parameters and the stored value into a result. The
// params and value slices are only valid for the duration of the call (on
// the server they alias a recycled network frame): a UDF that retains
// either must copy it. The returned slice may alias its inputs.
type UDF func(key string, params, value []byte) []byte

// Registry maps UDF names to implementations; servers and clients must
// register the same functions (the paper ships them as coprocessors).
type Registry struct {
	mu   sync.RWMutex
	udfs map[string]UDF
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{udfs: make(map[string]UDF)}
}

// Register adds a UDF under a name; duplicate names panic (setup bug).
func (r *Registry) Register(name string, f UDF) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.udfs[name]; dup {
		panic(fmt.Sprintf("live: duplicate UDF %q", name))
	}
	r.udfs[name] = f
}

// Lookup finds a UDF.
func (r *Registry) Lookup(name string) (UDF, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.udfs[name]
	return f, ok
}

// Identity returns the stored value unchanged: a pure join with no
// computation (Section 3.1: "the function can merely return the stored
// value").
func Identity(_ string, _, value []byte) []byte { return value }
