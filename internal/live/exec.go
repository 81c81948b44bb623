package live

import (
	"context"
	"fmt"
	"maps"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/core"
	"joinopt/internal/loadbalance"
	"joinopt/internal/membership"
	"joinopt/internal/store"
)

// Future is the pending result of one submitted function invocation
// f(k, p); the preMap thread submits, the map function waits (Section 7.1).
// Every future resolves exactly once, with a value or with a typed *Error —
// a failed node or broken wire never leaves a Wait hanging, and never
// masquerades as a missing key.
//
// The resolution machinery (a one-shot buffered channel) is a pooled cell
// recycled once the first Wait consumes it; the Future header itself is
// not pooled, so the contract below — repeated and concurrent Waits stay
// safe forever — is unchanged from the pre-pooling lifecycle.
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
	state atomic.Uint32 // futPending → futResolved → futDone
	mu    sync.Mutex    // serializes the first Wait's cell consumption
	out   []byte
	err   error
}

const (
	futPending  uint32 = iota
	futResolved        // resolve or reject won the exactly-once race
	futDone            // out/err published; cell consumed and recycled
)

type futResult struct {
	v   []byte
	err error
}

func newFuture() *Future { return &Future{cell: getFutCell()} }

// resolve delivers the value and reports whether this call won the
// exactly-once race. The Swap guard makes an (invariant-violating) second
// resolution a dropped no-op instead of a corruption of whatever op the
// recycled cell serves next.
func (f *Future) resolve(v []byte) bool {
	if !f.state.CompareAndSwap(futPending, futResolved) {
		return false
	}
	if f.cancel != nil {
		f.cancel.stopAfterFunc()
	}
	f.cell.ch <- futResult{v: v}
	return true
}

// reject fails the future; err is an *Error carrying the op and code.
// Reports whether this call won the exactly-once race.
func (f *Future) reject(err error) bool {
	if !f.state.CompareAndSwap(futPending, futResolved) {
		return false
	}
	if f.cancel != nil {
		f.cancel.stopAfterFunc()
	}
	f.cell.ch <- futResult{err: err}
	return true
}

// WaitErr blocks until the submission resolves and returns its value and
// error. A nil, nil return means the key has no stored row ("key absent"),
// which is distinct from a server rejection (*Error CodeServer), a wire
// failure (CodeTransport), a deadline (CodeTimeout) and shutdown
// (CodeClosed). It is safe for repeated and concurrent callers: every call
// returns the same pair. Results computed server-side may alias the network
// frame buffer their batch arrived in (the zero-copy read path): treat the
// slice as read-only, and copy it if you retain it long-term — holding a
// small result can otherwise pin its whole frame.
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
// submission that already left pays a few atomic loads and no lock. Called
// with no lock held, mu included.
//
//joinopt:hotpath
func (f *Future) kick() {
	if a := f.acc.Load(); a != nil && f.state.Load() == futPending && a.parkedHere(f) {
		a.kick(f)
	}
}

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

// TraceKind labels one optimizer interaction in a Trace stream.
type TraceKind int

// The optimizer interactions an executor performs, in the order Algorithm 1
// and its response handlers apply them.
const (
	// TraceRoute is one Route decision (Algorithm 1 for one submission).
	TraceRoute TraceKind = iota
	// TraceComputeResp is OnComputeResponse for a compute-request reply.
	TraceComputeResp
	// TraceFetched is OnValueFetched for a bought value.
	TraceFetched
	// TraceLocalCompute is ObserveLocalCompute after a local UDF run.
	TraceLocalCompute
	// TraceInvalidate is Invalidate for a pushed update notification.
	TraceInvalidate
)

// TraceEvent records one interaction between the executor and a table's
// optimizer, for the cross-plane equivalence tests: replaying the stream
// against a fresh core.Optimizer must reproduce the same decisions.
type TraceEvent struct {
	Kind  TraceKind
	Table string
	Key   string

	Route   core.Route        // TraceRoute
	Meta    core.ResponseMeta // TraceComputeResp
	Size    int64             // TraceFetched
	Version int64             // TraceFetched, TraceInvalidate
	ToMem   bool              // TraceFetched

	Sojourn, Service float64 // TraceLocalCompute
}

// ExecConfig configures a live executor (one per compute node process).
type ExecConfig struct {
	// Tables gives the partitioning of each stored table (key -> node).
	Tables map[string]*store.Table
	// Addrs maps data-node ids to TCP addresses.
	Addrs map[cluster.NodeID]string
	// Registry resolves UDF names for local execution.
	Registry *Registry
	// TableUDF names each table's UDF.
	TableUDF map[string]string

	Optimizer core.Config // policy knobs (Algorithm 1 configuration)

	BatchSize int // default 64
	// BatchWait is the ceiling on how long a submission nobody is waiting on
	// yet may sit in its destination's accumulator for the batch to fill
	// (default 2ms). It is not what a blocked caller pays: a WaitErr, Err,
	// WaitCtx or Table.Call on a parked submission ships its batch at once
	// when the destination has none in flight, and as soon as the one in
	// flight returns otherwise.
	BatchWait time.Duration
	Workers   int     // local UDF workers; default 8
	NetBw     float64 // assumed bandwidth for cost formulas; default 1e9

	// Shards stripes the executor's per-key state (per-table optimizers
	// with their caches and counters, fetch dedup) by key hash so parallel
	// Submit calls on different keys do not serialize on one mutex; batch
	// accumulation is per destination and does not depend on it. Default
	// GOMAXPROCS. Cache budgets are divided across shards (each shard-local
	// optimizer gets MemCacheBytes/Shards, see core.Config.Shard).
	Shards int

	// ConnsPerNode sizes the pipelined connection pool per data node
	// (default 4). Wire is ignored (see the Wire type).
	ConnsPerNode int
	Wire         Wire

	// Replicas, when > 1 (or < 0 for cluster.DefaultReplicas), applies
	// K-way replica placement to every table at construction
	// (store.Table.SetReplicas — deterministic, so every executor and the
	// seeding side derive identical sets). 0 leaves each table's
	// pre-configured factor alone. With any table replicated the executor
	// routes reads to the cheapest live replica, fails transport errors
	// over to surviving replicas, and fans Table.Put out at write-quorum.
	Replicas int

	// MaxRetries bounds how many times an idempotent request (OpGet,
	// OpExec) is re-sent after a transport failure; every retry goes
	// through the pool again, which routes it to a healthy (possibly
	// freshly redialed) connection. Server rejections and timeouts are
	// never retried. Default 2; negative disables retries.
	MaxRetries int
	// RequestTimeout bounds each wire attempt: a batch whose response has
	// not arrived within the deadline fails with CodeTimeout (late
	// responses are dropped). Default 10s; negative disables the
	// deadline.
	RequestTimeout time.Duration

	// Trace, when non-nil, receives every optimizer interaction, called
	// with the owning shard's lock held. Ordering is guaranteed per shard
	// only: with Shards > 1 the callback runs concurrently from multiple
	// goroutines and must synchronize its own state (the cross-plane test
	// uses Shards=1 for a total order). Test instrumentation only: keep
	// the callback fast and never call back into the executor from it.
	Trace func(TraceEvent)

	// Membership, when non-nil, makes the epoch-versioned partition map —
	// not the static Table.Locate striping — the routing authority (wire
	// v4): every request is stamped with the map's epoch, reads and puts
	// go to the map's owner for the key, and a CodeMoved redirect from a
	// node that migrated a shard away is resolved transparently (the map
	// learns the new owner, an undailed owner is dialed on first contact,
	// and the op is re-sent) — callers never see the redirect. The map may
	// be shared with the migration coordinator or a Clone that converges
	// through redirects. Membership does not compose with Replicas > 1:
	// the map models single-owner regions, and NewExecutor rejects the
	// combination rather than route half the protocol around it.
	Membership *membership.Map
}

// execShard owns one hash slice of the executor's per-key state: a key's
// optimizer state (cache, counters, learned costs) and its fetch-dedup
// record live in the shard that owns the key, so one Submit touches exactly
// one shard lock — and then its destination's accumulator (accumulate.go),
// which is keyed by where the op goes, not by what its key hashes to.
type execShard struct {
	mu       sync.Mutex
	opts     map[string]*core.Optimizer
	inflight map[string][]*waiter // fetch dedup: table/key -> waiters
}

// Executor drives the core optimizer against live store nodes: every
// Submit is routed per Algorithm 1 between local cache, compute request and
// data request, with batching, prefetching, caching and invalidation. The
// per-key routing state is striped over ExecConfig.Shards shard locks, the
// pending batches sit in one accumulator per destination, and cluster-wide
// load signals stay global atomics so the cost formulas still see total
// pressure.
type Executor struct {
	cfg    ExecConfig
	shards []*execShard
	tables map[string]*Table // resolved handles; immutable after NewExecutor

	// nodes is the executor's node table. Membership redirects can teach
	// the executor a node it has never dialed, so the table is an immutable
	// snapshot replaced copy-on-write (under nodesMu) by ensureNode — the
	// hot paths read it through one atomic pointer load.
	nodes   atomic.Pointer[nodeSet]
	nodesMu sync.Mutex

	// accs holds the batch accumulator of every destination seen so far,
	// in the same copy-on-write shape (under accMu): the Submit path finds
	// its accumulator with one atomic load and one map read. Close swaps in
	// an empty table; newAccumulator refuses to grow it afterwards.
	accs  atomic.Pointer[map[liveBatchKey]*accumulator]
	accMu sync.Mutex

	// member mirrors cfg.Membership (nil = static routing). migGen counts
	// placement changes this executor has observed — CodeMoved redirects
	// applied and version-0 "placement moved" notifications — and fences
	// cache installs: a fetch that was in flight across a migration
	// cutover must not install its (possibly pre-move) value under a dead
	// subscription, so the install is skipped when the generation moved
	// while the fetch was on the wire.
	member *membership.Map
	migGen atomic.Int64

	// tracker learns per-replica service times (non-nil only when some
	// table is replicated), pricing reads at the cheapest live replica.
	tracker *loadbalance.ReplicaTracker

	pendingLocal atomic.Int64 // queued local UDFs (lcc_i)
	inflightReqs atomic.Int64

	workers chan struct{}

	closed  atomic.Bool
	closeMu sync.RWMutex   // orders flush registration against Close
	flushes sync.WaitGroup // in-flight wire batches (send → handleResponse)

	// Counters for tests and metrics. Every resolved submission is
	// counted exactly once in LocalHits (served from the two-tier cache),
	// RemoteComputed (UDF ran at the data node), RemoteRaw (balancer
	// bounced the raw value back), FetchServed (resolved from a fetched
	// value: cache fills, piled-on waiters and no-cache fetches), Failed
	// (rejected with a typed error after retries were exhausted), Canceled
	// (context canceled before any other bucket claimed it) or Shed
	// (rejected with CodeOverloaded — the server refused the work at
	// admission), so LocalHits+RemoteComputed+RemoteRaw+FetchServed+
	// Failed+Canceled+Shed == ops. Fetches counts wire-level value
	// fetches, which is fewer than FetchServed when waiters pile on one
	// in-flight fetch. Retries counts re-sent wire batches (transport
	// failures and overloaded sheds with retry budget left).
	LocalHits, RemoteComputed, RemoteRaw, Fetches, FetchServed atomic.Int64
	Failed, Retries, Canceled, Shed                            atomic.Int64
	// Failovers counts entries re-routed to a surviving replica after
	// their node's transport retries were exhausted (replicated tables
	// only); PutFailovers counts puts whose sequencer was not the primary.
	Failovers, PutFailovers atomic.Int64
	// SizeFlushes, WaiterFlushes, CompletionFlushes and TimerFlushes count
	// wire batches (not ops) by what made them leave their accumulator: the
	// batch limit filled, a caller blocked on a parked entry with the link
	// idle, a batch in flight returned with such a waiter pending, or
	// BatchWait expired. Their sum is the number of batches put on the wire
	// (re-sends excluded, see Retries).
	SizeFlushes, WaiterFlushes, CompletionFlushes, TimerFlushes atomic.Int64
	// Moved counts CodeMoved redirects resolved transparently (membership
	// routing only). Redirected submissions still land in their normal
	// outcome bucket — a redirect re-routes the op, it never rejects it —
	// so Moved sits outside the ops invariant above.
	Moved atomic.Int64
}

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

// node returns n's record, nil when the node was never dialed — only
// possible before a membership redirect's ensureNode.
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
// seen) and installing the grown node table copy-on-write. Returns nil when
// the dial fails — the caller's op then fails through the normal transport
// path and a later redirect retries the dial.
func (e *Executor) ensureNode(node cluster.NodeID, addr string) *Pool {
	if p := e.pool(node); p != nil {
		return p
	}
	e.nodesMu.Lock()
	defer e.nodesMu.Unlock()
	if p := e.pool(node); p != nil {
		return p
	}
	pool, err := dialPool(addr, e.cfg.ConnsPerNode, e.onNotification,
		func() { e.dropNodeCache(node) })
	if err != nil {
		return nil
	}
	next := maps.Clone(*e.nodes.Load())
	next[node] = &nodeState{pool: pool}
	e.nodes.Store(&next)
	return pool
}

// poolOrDial returns the pool for node, dialing on demand through the
// membership map's address when the node has never been contacted: a
// redirect resolved in another goroutine publishes ownership through the
// shared map, so a submission can route here before (or without) that
// goroutine's own dial. The map, not the redirect payload, is the durable
// source of the address. Returns nil when no address is known or the dial
// fails.
func (e *Executor) poolOrDial(node cluster.NodeID) *Pool {
	if p := e.pool(node); p != nil {
		return p
	}
	if e.member == nil {
		return nil
	}
	if addr := e.member.View().Addr(node); addr != "" {
		return e.ensureNode(node, addr)
	}
	return nil
}

// liveBatchKey identifies one batch accumulator: destination plus the
// per-call wire policy, so submissions with identical overrides share a
// batch and differing overrides never dilute each other's deadline.
type liveBatchKey struct {
	t    *Table
	node cluster.NodeID
	op   Op
	wire wireOpts
}

// dedupKey builds the fetch-dedup record key for one key under this batch
// key's wire policy. Non-default wire overrides are folded in, so a call
// with its own deadline/retry budget never piles onto (or is never served
// by) a fetch flying under a different policy — the same separation the
// batch accumulators get from the wire field. The default-policy path keeps
// the plain two-part key, allocating nothing extra.
//
//joinopt:hotpath
func (bk liveBatchKey) dedupKey(key string) string {
	if bk.wire == (wireOpts{}) {
		return bk.t.name + "\x00" + key //lint:allow hotpath the dedup map key is the allocation; one concat is its minimal form
	}
	return fmt.Sprintf("%s\x00%s\x00%d:%d:%d", bk.t.name, key, bk.wire.timeout, bk.wire.retries, bk.wire.prio) //lint:allow hotpath non-default wire policies only; the default path above stays concat-only
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

type waiter struct {
	params []byte
	fut    *Future
	toMem  bool
	cancel *cancelState // non-nil only for cancellable-context submissions
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

// NewExecutor connects to all data nodes and returns a ready executor.
func NewExecutor(cfg ExecConfig) (*Executor, error) {
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 64
	}
	if cfg.BatchWait == 0 {
		cfg.BatchWait = 2 * time.Millisecond
	}
	if cfg.Workers == 0 {
		cfg.Workers = 8
	}
	if cfg.NetBw == 0 {
		cfg.NetBw = 1e9
	}
	if cfg.ConnsPerNode == 0 {
		cfg.ConnsPerNode = 4
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.MaxRetries == 0:
		cfg.MaxRetries = 2
	case cfg.MaxRetries < 0:
		cfg.MaxRetries = 0
	}
	switch {
	case cfg.RequestTimeout == 0:
		cfg.RequestTimeout = 10 * time.Second
	case cfg.RequestTimeout < 0:
		cfg.RequestTimeout = 0
	}
	if cfg.Membership != nil && cfg.Replicas > 1 {
		return nil, fmt.Errorf("live: Membership does not compose with Replicas > 1 (the map models single-owner regions)") //lint:allow errcode construction-time config validation; no live op ever sees it
	}
	e := &Executor{
		cfg:     cfg,
		member:  cfg.Membership,
		shards:  make([]*execShard, cfg.Shards),
		workers: make(chan struct{}, cfg.Workers),
	}
	e.accs.Store(&map[liveBatchKey]*accumulator{})
	// Publish an empty node table first: a pool's disconnect hook can fire
	// while the dial loop below is still building the real one, and it must
	// find a (harmlessly empty) snapshot, never a half-built map.
	e.nodes.Store(&nodeSet{})
	ns := make(nodeSet, len(cfg.Addrs))
	for i := range e.shards {
		sh := &execShard{
			opts:     make(map[string]*core.Optimizer, len(cfg.Tables)),
			inflight: make(map[string][]*waiter),
		}
		for name := range cfg.Tables {
			sh.opts[name] = core.New(cfg.Optimizer.Shard(i, cfg.Shards))
		}
		e.shards[i] = sh
	}
	// Apply the configured replica factor before the handles are resolved
	// (they cache the per-table factor). SetReplicas is deterministic, so
	// every executor and the seeding side derive identical placements.
	if cfg.Replicas != 0 {
		r := cfg.Replicas
		if r < 0 {
			r = 0 // store.Table.SetReplicas(0) selects cluster.DefaultReplicas
		}
		for _, st := range cfg.Tables {
			st.SetReplicas(r)
		}
	}
	// Resolve every table handle once: partitioning, UDF and the per-shard
	// optimizer pointers. The hot path never touches a map again.
	e.tables = make(map[string]*Table, len(cfg.Tables))
	for name, st := range cfg.Tables {
		opts := make([]*core.Optimizer, len(e.shards))
		for i, sh := range e.shards {
			opts[i] = sh.opts[name]
		}
		udfName := cfg.TableUDF[name]
		udf, _ := cfg.Registry.Lookup(udfName) // nil if unregistered; computeLocal panics lazily, as before
		e.tables[name] = &Table{
			e: e, name: name, tbl: st, replicas: st.Replicas(),
			udf: udf, udfName: udfName,
			seed: tableSeed(name), opts: opts,
		}
		if e.tracker == nil && st.Replicas() > 1 {
			e.tracker = loadbalance.NewReplicaTracker()
		}
	}
	for id, addr := range cfg.Addrs {
		// A dead conn takes its server-side invalidation subscriptions
		// with it: any key this node homes could be updated without us
		// hearing. Drop those cache entries so the next access refetches
		// instead of serving an arbitrarily stale value forever. The hook
		// is bound at pool construction, before any read loop runs.
		pool, err := dialPool(addr, cfg.ConnsPerNode, e.onNotification,
			func() { e.dropNodeCache(id) })
		if err != nil {
			e.nodes.Store(&ns) // the pools dialed so far; Close tears them down
			e.Close()
			return nil, fmt.Errorf("live: dialing node %d: %w", id, err) //lint:allow errcode setup-time dial failure; no live op ever sees it
		}
		ns[id] = &nodeState{pool: pool}
	}
	e.nodes.Store(&ns)
	return e, nil
}

// dropNodeCache invalidates every cached entry whose key is homed on node.
// Called when one of the node's conns dies; the lost invalidation
// subscription makes those entries untrustworthy (Section 4.2.3's tracked
// notifications only reach live conns). Learned cost parameters survive —
// only the possibly-stale values go.
//
// Concurrent drops for one node coalesce into the running sweeper, which
// RE-sweeps if another disconnect arrived mid-sweep: a skip would leave
// entries installed between two disconnects (sent post-disconnect-1, so
// the epoch guard passed, but subscribed on the conn disconnect 2 killed)
// cached stale forever.
func (e *Executor) dropNodeCache(node cluster.NodeID) {
	s := e.node(node)
	if s == nil {
		return // disconnect during construction; nothing is cached yet
	}
	pend := &s.dropping
	if pend.Add(1) > 1 {
		return // active sweeper sees the bump and goes again
	}
	for {
		n := pend.Load()
		e.sweepNodeCache(node)
		if pend.CompareAndSwap(n, 0) {
			return
		}
	}
}

// sweepNodeCache is one pass of dropNodeCache: snapshot a table's cached
// keys under each shard lock, filter by placement outside it, then
// invalidate the matches under the lock again — the Submit hot path is never
// blocked behind a full placement scan. A key cached between the snapshot
// and the invalidate is either epoch-guarded out of the cache (sent before
// the disconnect) or over-invalidated (sent after, freshly subscribed) — the
// latter merely costs one refetch. An unreplicated table's keys on the node
// also lose their learned versions, under the same lock.
func (e *Executor) sweepNodeCache(node cluster.NodeID) {
	for i, sh := range e.shards {
		for _, t := range e.tables {
			opt := t.opts[i]
			var ks []string
			sh.mu.Lock()
			opt.Cache.EachKey(func(k string) { ks = append(ks, k) })
			sh.mu.Unlock()
			doomed := ks[:0]
			for _, k := range ks {
				if t.placedOn(k, node) {
					doomed = append(doomed, k)
				}
			}
			if len(doomed) == 0 && t.replicas > 1 {
				continue
			}
			sh.mu.Lock()
			for _, k := range doomed {
				opt.Cache.Invalidate(k)
			}
			if t.replicas <= 1 {
				// The node was the only holder of its keys' versions, and an
				// in-memory node that restarted counts them from 0 again:
				// forget what we learned, or the version fence would keep
				// those keys out of the cache until the new history overtook
				// the old. (A replicated table keeps its versions: the
				// survivors still hold that history.)
				opt.ForgetVersions(func(k string) bool { return t.placedOn(k, node) })
			}
			sh.mu.Unlock()
		}
	}
}

// Close shuts the executor down: it stops every pending batch timer, fails
// the batches that never shipped with CodeClosed, closes the pools (which
// fails in-flight wire batches through the normal error path) and waits
// for every outstanding batch handler to finish. After Close, no future
// can be left hanging: every one has either resolved or its resolution is
// already queued on the local worker pool (a bounced or fetched value
// whose UDF is still running) and lands moments later. Safe to call more
// than once.
func (e *Executor) Close() {
	e.closeMu.Lock()
	already := e.closed.Swap(true)
	e.closeMu.Unlock()
	if already {
		return
	}
	// Drain the accumulators before touching the conns: these batches were
	// never sent, so failing them here is the only way their futures
	// resolve. The table is emptied first, so a Submit that raced past the
	// closed check finds no accumulator and is refused a new one.
	e.accMu.Lock()
	accs := *e.accs.Load()
	e.accs.Store(&map[liveBatchKey]*accumulator{})
	e.accMu.Unlock()
	for bk, a := range accs {
		for _, ent := range a.drain() {
			e.fail(bk, ent, &Error{Code: CodeClosed, Op: bk.op, Msg: "executor closed"})
		}
	}
	for _, s := range *e.nodes.Load() {
		s.pool.Close()
	}
	e.flushes.Wait()
}

const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// tableSeed pre-hashes a table name (FNV-1a plus a separator byte, so
// ("ab","c") != ("a","bc")); a Table handle carries it so the per-Submit
// shard hash only walks the key.
func tableSeed(table string) uint32 {
	h := uint32(fnvOffset32)
	for i := 0; i < len(table); i++ {
		h = (h ^ uint32(table[i])) * fnvPrime32
	}
	return (h ^ 0xff) * fnvPrime32
}

// shardIdx finishes the FNV-1a hash over the key and picks the shard index;
// all per-key state for one (table, key) — optimizer, dedup record,
// invalidations — is guarded by that single shard's lock.
func (e *Executor) shardIdx(seed uint32, key string) int {
	if len(e.shards) == 1 {
		return 0
	}
	h := seed
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * fnvPrime32
	}
	return int(h % uint32(len(e.shards)))
}

// shardFor picks the shard owning (table, key); identical to the handle
// path's tableSeed+shardIdx, kept for the cold paths (notifications,
// sweeps, tests) that start from a table name.
func (e *Executor) shardFor(table, key string) *execShard {
	return e.shards[e.shardIdx(tableSeed(table), key)]
}

// Shards returns the number of state shards.
func (e *Executor) Shards() int { return len(e.shards) }

// PoolHealth snapshots every data node's connection-pool health: healthy
// conn counts, disconnects observed, successful redials and fast-failed
// sends. Useful for operational dashboards and the fault tests.
func (e *Executor) PoolHealth() map[cluster.NodeID]PoolHealth {
	nodes := *e.nodes.Load()
	out := make(map[cluster.NodeID]PoolHealth, len(nodes))
	for id, s := range nodes {
		out[id] = s.pool.Health()
	}
	return out
}

func (e *Executor) onNotification(n Notification) {
	if n.Version == 0 {
		// Version 0 is the "placement moved" convention (see
		// Server.completeMove): the key's region migrated away from the
		// node we cached it from, its subscription there is dead, but the
		// VALUE never changed — so drop the cached copy only, keeping the
		// key's learned optimizer state (a real put always carries
		// version ≥ 1 and takes the branch below). Not a trace event: the
		// optimizer never saw an update, and the equivalence tests compare
		// optimizer interactions, not placement traffic. The generation
		// bump fences any fetch of the region still in flight out of its
		// cache install.
		e.migGen.Add(1)
		sh := e.shardFor(n.Table, n.Key)
		sh.mu.Lock()
		if opt := sh.opts[n.Table]; opt != nil {
			opt.Cache.Invalidate(n.Key)
		}
		sh.mu.Unlock()
		return
	}
	e.invalidate(n.Table, n.Key, n.Version)
}

// invalidate applies "key is now at version" to the key's optimizer: the
// cached copy goes and the version stays behind as the fence every later
// cache install must beat. Pushed notifications land here, and so does this
// executor's own Table.Put at its ack — the node's notification skips the
// connection the put arrived on, so without that a writer would keep serving
// itself the value it just replaced (read-your-writes per executor).
func (e *Executor) invalidate(table, key string, version int64) {
	sh := e.shardFor(table, key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if opt := sh.opts[table]; opt != nil {
		opt.Invalidate(key, version)
		if e.cfg.Trace != nil {
			e.cfg.Trace(TraceEvent{Kind: TraceInvalidate, Table: table, Key: key, Version: version})
		}
	}
}

// OptimizerFor exposes the shard-local optimizer owning (table, key) for
// inspection in tests; lock its shard while poking at it.
func (e *Executor) OptimizerFor(table, key string) *core.Optimizer {
	sh := e.shardFor(table, key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.opts[table]
}

// Optimizer exposes shard 0's optimizer for a table — with Shards=1 (the
// single-shard configuration) this is the table's only optimizer.
func (e *Executor) Optimizer(table string) *core.Optimizer {
	sh := e.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.opts[table]
}

// Table returns the resolved handle for a stored table — the entry point
// for submissions. Handles are created once at NewExecutor, so this is a
// single read of an immutable map; an unknown table panics (a wiring bug).
func (e *Executor) Table(table string) *Table {
	t := e.tables[table]
	if t == nil {
		panic(fmt.Sprintf("live: unknown table %q", table))
	}
	return t
}

// route is the body of Table.Submit: pick the join location (per-call hint
// or Algorithm 1) and park the op in the machinery. This is the prefetch
// entry point (submitComp in Figure 10); Wait is the blocking fetch
// (fetchComp). Safe for concurrent callers and scales across cores: only
// the key's shard lock is taken, and every table lookup was resolved into
// the handle up front.
//
//joinopt:hotpath
func (e *Executor) route(t *Table, key string, params []byte, fut *Future, cs *cancelState, co callOpts) {
	node, replicas := t.placement(key)
	if replicas != nil {
		node = e.pickReplica(replicas)
	}
	idx := e.shardIdx(t.seed, key)
	sh := e.shards[idx]
	opt := t.opts[idx]

	var full *liveBatch // the wire batch this submission filled, if any
	sh.mu.Lock()
	var route core.Route
	switch {
	case co.noCache && co.route != ForceCompute:
		route = core.RouteDataNoCache
	case co.route == ForceCompute:
		route = core.RouteCompute
	case co.route == ForceFetch:
		route = core.RouteDataMem
	default:
		// Algorithm 1. Forced routes deliberately bypass it — and its
		// frequency learning — so a per-call override never pollutes the
		// optimizer's view of the auto traffic; Trace records only real
		// optimizer interactions.
		route = opt.Route(key, e.cfg.NetBw)
		if e.cfg.Trace != nil {
			e.cfg.Trace(TraceEvent{Kind: TraceRoute, Table: t.name, Key: key, Route: route})
		}
	}
	switch route {
	case core.RouteLocalMem, core.RouteLocalDisk:
		item, _, _ := opt.Cache.Lookup(key)
		sh.mu.Unlock()
		if cs.claim() {
			e.LocalHits.Add(1)
			e.computeLocal(t, idx, key, params, item.Value.([]byte), fut)
		}
		return
	case core.RouteCompute, core.RouteDataNoCache:
		bk := liveBatchKey{t, node, OpExec, co.wire}
		if route == core.RouteDataNoCache {
			bk.op = OpGet // a fetch nothing caches (NO/FC/FR policies): no dedup record
		}
		cs.park(sh, bk, "", nil)
		full = e.enqueue(bk, liveEntry{key: key, params: params, fut: fut, cancel: cs})
	case core.RouteDataMem, core.RouteDataDisk:
		bk := liveBatchKey{t, node, OpGet, co.wire}
		w := &waiter{params: params, fut: fut, toMem: route == core.RouteDataMem, cancel: cs}
		ik := bk.dedupKey(key)
		cs.park(sh, bk, ik, w)
		if ws, busy := sh.inflight[ik]; busy {
			if len(ws) > 0 {
				// Piled onto a fetch that may still be parked: share its
				// link, so this caller's wait ships it too.
				lead := ws[0].fut
				fut.gen.Store(lead.gen.Load())
				fut.acc.Store(lead.acc.Load())
			}
			sh.inflight[ik] = append(ws, w)
		} else {
			sh.inflight[ik] = []*waiter{w}
			full = e.enqueue(bk, liveEntry{key: key, w: w})
		}
	}
	sh.mu.Unlock()
	if full != nil {
		e.ship(full)
	}
}

// pickReplica prices a read at the cheapest live replica: among the
// replica nodes whose pool still has a usable conn, the one with the lowest
// learned EWMA service time (ties and unobserved nodes resolve to the
// earliest position, so the primary is preferred until the measurements say
// otherwise — the same policy as loadbalance.ReplicaTracker.Pick, inlined
// here so the hot path allocates nothing). With every replica down the
// primary gets the batch and the transport path reports the failure.
//
//joinopt:hotpath
func (e *Executor) pickReplica(nodes []cluster.NodeID) cluster.NodeID {
	best := nodes[0]
	bestCost, haveLive := 0.0, false
	for _, n := range nodes {
		if p := e.pool(n); p == nil || !p.live() {
			continue
		}
		c := e.tracker.Estimate(int(n))
		if !haveLive || c < bestCost {
			best, bestCost, haveLive = n, c, true
		}
	}
	return best
}

// reroute is the one re-enqueue loop behind every transparent re-send
// (replica failover, CodeMoved redirect): each entry asks next for its new
// destination, spends one hop, re-parks its cancel state there and goes back
// through enqueue; entries next refuses fail with exhausted. Returns the
// number re-enqueued. Callers hold no shard lock.
func (e *Executor) reroute(bk liveBatchKey, entries []liveEntry, exhausted *Error,
	next func(key string, hops uint8) (cluster.NodeID, bool)) int {
	var doomed []liveEntry
	for _, ent := range entries {
		node, ok := next(ent.key, ent.hops)
		if !ok {
			doomed = append(doomed, ent)
			continue
		}
		ent.hops++
		nbk := bk
		nbk.node = node
		sh := e.shards[e.shardIdx(bk.t.seed, ent.key)]
		sh.mu.Lock()
		// Re-park the cancel state at the new destination so a context
		// cancellation arriving mid-re-route still finds the entry. The
		// dedup key carries no node, so a parked waiter's inflight record
		// survives the move and keeps serving its piled-on waiters.
		if ent.w != nil {
			ent.w.cancel.park(sh, nbk, nbk.dedupKey(ent.key), ent.w)
		} else {
			ent.cancel.park(sh, nbk, "", nil)
		}
		full := e.enqueue(nbk, ent)
		sh.mu.Unlock()
		if full != nil {
			e.ship(full)
		}
	}
	for _, ent := range doomed {
		e.fail(bk, ent, exhausted) // re-locks the entry's shard
	}
	return len(entries) - len(doomed)
}

// tryFailover re-routes a transport-failed or shed wire batch's entries to
// the next surviving replica instead of surfacing CodeTransport or
// CodeOverloaded to the callers. Only reads (OpGet, OpExec) of replicated
// tables fail over: re-running them on another replica changes no server
// state, while a put that failed at the wire is maybe-committed at its
// sequencer (re-sequencing it elsewhere could assign the same version to
// two different values) and must surface per the storage contract. An
// overloaded shed fails over after a short jittered beat — the sibling
// replica may have headroom right now, so waiting out the shedding node's
// full retry-after hint would only stall work another node could absorb,
// but moving the whole herd instantly would arrive as one synchronized
// spike. Each entry carries a hop count bounded by the replica set size, so
// a fully-dead (or fully-saturated) set still fails with err after every
// replica was tried once. Returns false when failover does not apply at all
// (the caller falls through to failBatch).
func (e *Executor) tryFailover(bk liveBatchKey, entries []liveEntry, err *Error) bool {
	if bk.t.replicas <= 1 || (bk.op != OpGet && bk.op != OpExec) ||
		(!err.Retryable() && err.Code != CodeOverloaded) || e.closed.Load() {
		return false
	}
	if err.Code == CodeOverloaded {
		time.Sleep(time.Millisecond + jitter(2*time.Millisecond))
	}
	n := e.reroute(bk, entries, err, func(key string, hops uint8) (cluster.NodeID, bool) {
		return e.nextReplica(bk.t, key, bk.node, hops)
	})
	e.Failovers.Add(int64(n))
	return true
}

// nextReplica picks the replica to try after cur in key's placement order:
// the first clockwise node with a live pool, or — with every other pool
// down — cur's immediate successor anyway, because its redialer may land
// before the re-enqueued batch ships. ok is false once hops says every
// other replica was already visited.
func (e *Executor) nextReplica(t *Table, key string, cur cluster.NodeID, hops uint8) (cluster.NodeID, bool) {
	nodes := t.tbl.ReplicaNodes(key)
	if len(nodes) < 2 || int(hops) >= len(nodes)-1 {
		return 0, false
	}
	at := 0
	for i, n := range nodes {
		if n == cur {
			at = i
			break
		}
	}
	for off := 1; off < len(nodes); off++ {
		n := nodes[(at+off)%len(nodes)]
		if p := e.pool(n); p != nil && p.live() {
			return n, true
		}
	}
	return nodes[(at+1)%len(nodes)], true
}

// movedMaxHops bounds how many CodeMoved redirects one submission follows
// before it fails with the redirect surfaced. Every redirect teaches the map
// something strictly newer (LearnOwner's per-region epoch fence), so under
// any consistent membership one hop resolves the op and a second can only
// happen across a racing second migration; exhausting four means the
// cluster's maps disagree in a loop — a bug worth surfacing, not retrying
// forever.
const movedMaxHops = 4

// handleMoved resolves a CodeMoved wire batch: learn the redirect payload's
// region ownerships, make sure the new owners are dialed, and re-enqueue
// every entry at its (possibly new) owner — transparently, so callers only
// ever see the redirect if the hop budget runs out. Returns false when the
// payload is absent or corrupt (the caller falls through to failBatch).
func (e *Executor) handleMoved(bk liveBatchKey, entries []liveEntry, resp *Response) bool {
	if e.member == nil || len(resp.Values) == 0 {
		return false
	}
	moved, ok := decodeMoved(resp.Values[0])
	if !ok || len(moved) == 0 {
		return false
	}
	e.applyMoved(bk.t, moved)
	v := e.member.View()
	e.reroute(bk, entries, &Error{Code: CodeMoved, Op: bk.op,
		Msg: "redirect hop budget exhausted — cluster membership maps disagree in a loop"},
		func(key string, hops uint8) (cluster.NodeID, bool) {
			owner, known := v.OwnerForKey(bk.t.name, key)
			return owner, known && hops < movedMaxHops
		})
	return true
}

// applyMoved folds a redirect payload into the executor: each entry teaches
// the map (per-region epoch fencing decides staleness), a newly named owner
// is dialed, and a region the map actually re-learned gets its cached
// values dropped — Cache.Invalidate only, so the keys' learned optimizer
// state (frequency sketches, ski-rental counters) survives the move; the
// values must go because their invalidation subscriptions at the old owner
// died with its ownership. Shared by the wire-batch and Table.Put redirect
// paths.
func (e *Executor) applyMoved(t *Table, moved []movedRegion) {
	e.Moved.Add(1)
	e.migGen.Add(1)
	for _, m := range moved {
		// Dial BEFORE publishing ownership: the shared map is read by every
		// shard, so installing the owner first would open a window where a
		// concurrent submission routes to a node whose pool does not exist
		// yet and fails with a transport error instead of waiting out the
		// dial.
		if m.addr != "" {
			e.ensureNode(m.owner, m.addr)
		}
		learned := e.member.LearnOwner(m.epoch, t.name, m.region, m.owner, m.addr)
		if learned {
			e.sweepRegionCache(t, m.region)
		}
	}
}

// sweepRegionCache drops every cached value of one region of a table,
// preserving the keys' learned routing state (see applyMoved).
func (e *Executor) sweepRegionCache(t *Table, region int) {
	nregions := e.member.View().Regions(t.name)
	if nregions == 0 {
		return
	}
	for i, sh := range e.shards {
		opt := t.opts[i]
		sh.mu.Lock()
		var doomed []string
		opt.Cache.EachKey(func(k string) {
			if store.RegionIndex(k, nregions) == region {
				doomed = append(doomed, k)
			}
		})
		for _, k := range doomed {
			opt.Cache.Invalidate(k)
		}
		sh.mu.Unlock()
	}
}

// enqueue parks an entry in its destination's accumulator and returns the
// wire batch that filled, if any, for the caller to ship once it has dropped
// its shard lock (route and reroute call this mid-routing, under sh.mu; the
// lock order is shard → accumulator).
//
//joinopt:hotpath
func (e *Executor) enqueue(bk liveBatchKey, ent liveEntry) *liveBatch {
	a := (*e.accs.Load())[bk]
	for {
		if a == nil {
			if a = e.newAccumulator(bk); a == nil {
				// Closed: Close emptied the table before draining, so a
				// Submit that raced past the entry check cannot park an
				// entry nobody will ever flush. The goroutine avoids fail's
				// re-lock of the caller's shard.
				go e.fail(bk, ent, &Error{Code: CodeClosed, Op: bk.op, Msg: "executor closed"})
				return nil
			}
		}
		if full, ok := a.add(ent); ok {
			return full
		}
		// Retired between the lookup and the add. It left the table under
		// accMu, which newAccumulator takes: look again there.
		a = nil
	}
}

// maxPolicyAccs is how many accumulators of non-default wire policies the
// executor keeps before it prunes the idle ones (see newAccumulator).
const maxPolicyAccs = 256

// newAccumulator is enqueue's slow path: return bk's accumulator, creating
// and publishing it on first use. nil once the executor is closed.
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
	// The default policy's accumulators — one per (table, node, op) — live
	// as long as the executor, and so does a fixed set of per-call policies
	// (the priority classes). But WithTimeout and WithRetries take arbitrary
	// values: once maxPolicyAccs non-default accumulators exist, a new one
	// unmaps the idle ones, so a caller deriving them per call cannot grow
	// the table without bound.
	policies := 0
	for k := range old {
		if k.wire != (wireOpts{}) {
			policies++
		}
	}
	if policies >= maxPolicyAccs {
		maps.DeleteFunc(next, func(k liveBatchKey, o *accumulator) bool {
			return k.wire != (wireOpts{}) && o.retireIfIdle()
		})
	}
	next[bk] = a
	e.accs.Store(&next)
	return a
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

	keys, params := b.req.Keys[:0], b.req.Params[:0]
	for i := range entries {
		keys = append(keys, entries[i].key)
		params = append(params, entries[i].params)
	}
	b.req = Request{Op: bk.op, Table: bk.t.name, Priority: bk.wire.prio, Keys: keys, Params: params}
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
			e.adaptBatch(bk.node, resp.Credit, resp.Window)
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
			e.tracker.ObserveBackpressure(int(bk.node), resp.Credit, resp.Window)
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

// callNode sends one wire batch with the batch key's deadline and retry
// policy (per-call overrides; zero means the executor defaults): each
// attempt is bounded by the request timeout, and transport failures of
// idempotent ops (OpGet, OpExec — re-running them changes no server state)
// are re-sent up to the retry budget through the pool, which routes around
// dead connections while its dialers bring them back. A CodeOverloaded shed
// spends the same budget, but only for idempotent ops and only after the
// server's retry-after hint (plus jitter, so a herd of shed batches cannot
// re-arrive in lockstep). Server rejections and timeouts return as-is. The
// returned epoch is the pool's disconnect epoch snapshotted just before the
// answered attempt went out: if it still matches at cache-install time, no
// conn of this node died in between and the fetched values' invalidation
// subscriptions are intact.
func (e *Executor) callNode(bk liveBatchKey, req *Request, entries []liveEntry, publish bool) (*Response, int64) {
	pool := e.poolOrDial(bk.node)
	if pool == nil {
		// A membership redirect named a node whose dial failed; surface it
		// as a transport error so the normal retry/redirect machinery (a
		// fresh redirect re-attempts the dial) takes over.
		return errResponse(req.ID, CodeTransport,
			fmt.Sprintf("live: no connection to node %d", bk.node)), 0
	}
	retries := e.cfg.MaxRetries
	switch {
	case bk.wire.retries > 0:
		retries = int(bk.wire.retries)
	case bk.wire.retries < 0:
		retries = 0
	}
	timeout := e.cfg.RequestTimeout
	switch {
	case bk.wire.timeout > 0:
		timeout = bk.wire.timeout
	case bk.wire.timeout < 0:
		timeout = 0
	}
	attempts := 1
	if bk.op != OpPut {
		attempts += retries
	}
	backoff := time.Millisecond
	var resp *Response
	for a := 0; ; a++ {
		e.pace(pool, timeout)
		if e.member != nil {
			// Stamp the routing epoch per attempt: a retry that spans a
			// learned cutover carries the fresher stamp.
			req.Epoch = e.member.Epoch()
		}
		epoch := pool.epoch.Load()
		resp = e.callOnce(pool, req, timeout, entries, publish)
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
func (e *Executor) pace(pool *Pool, timeout time.Duration) {
	if !pool.starved() || pool.outstanding.Load() < pool.budget() {
		return
	}
	limit := paceMaxWait
	if timeout > 0 && timeout/4 < limit {
		limit = timeout / 4
	}
	pool.paceWaits.Add(1)
	deadline := time.Now().Add(limit)
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

// adaptBatch steers a node's target batch size from its advertised credit:
// starvation halves the target — smaller batches admit under a
// tight window and spread the load across flushes — while plentiful credit
// (at least half the window free) grows it back toward the configured size.
func (e *Executor) adaptBatch(node cluster.NodeID, credit, window uint8) {
	s := e.node(node)
	if s == nil {
		return
	}
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

// callOnce is one wire attempt under the given deadline. A timed-out
// request is cancelled on its conn — the pending entry is dropped, a late
// response is discarded, and the pooled completion cell is recycled by the
// cancel — so a stalled-but-alive server cannot pin one abandoned call per
// timeout for the life of the connection. With publish set, every
// cancellable entry learns its wire location right after the send, so a
// context cancellation can chase the op with a cancel frame (a cancel that
// fired in the gap is sent by publishWire itself).
func (e *Executor) callOnce(pool *Pool, req *Request, timeout time.Duration, entries []liveEntry, publish bool) *Response {
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
	if timeout <= 0 {
		resp := <-sc.cl.ch
		putCall(sc.cl)
		return resp
	}
	t := getTimer(timeout)
	defer putTimer(t)
	select {
	case resp := <-sc.cl.ch:
		putCall(sc.cl)
		return resp
	case <-t.C:
		sc.cancel()
		// Attribute the deadline before surfacing it (the message callers
		// see must distinguish "the server never dequeued it" from "the
		// UDF ran long"): a node whose last advertised credit was zero was
		// saturated, so the request most likely expired in its run queue;
		// with credits available it was almost certainly in service. The
		// credit pair rides the fabricated response so respError can mark
		// the queue case Overload without string sniffing.
		credit, window := pool.lastCredits()
		var resp *Response
		if window > 0 && credit == 0 {
			resp = errResponse(req.ID, CodeTimeout, fmt.Sprintf(
				"no response within %v; node advertised 0/%d credits — request was likely still queued at an overloaded server, not in service",
				timeout, window))
		} else {
			resp = errResponse(req.ID, CodeTimeout, fmt.Sprintf(
				"no response within %v with credits available — request was likely in service (long-running UDF or oversized batch)",
				timeout))
		}
		resp.Credit, resp.Window = credit, window
		return resp
	}
}

// timerPool recycles the per-attempt deadline timers: a wire attempt (and
// every Table.Put) would otherwise allocate a timer it almost never lets fire.
// Since Go 1.23 a stopped or reset timer's channel holds no stale value, so a
// recycled timer needs no drain.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func putTimer(t *time.Timer) {
	t.Stop()
	timerPool.Put(t)
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
			ik := bk.dedupKey(ent.key)
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
				(e.member == nil || e.migGen.Load() == gen) &&
				opt.KnownVersion(ent.key) <= meta.Version {
				opt.OnValueFetched(ent.key, int64(len(value)), meta.Version, value, ent.w.toMem) //lint:allow hotpath the optimizer's cache stores values as interface{}; boxing is the documented fetch cost
				if e.cfg.Trace != nil {
					e.cfg.Trace(TraceEvent{Kind: TraceFetched, Table: bk.t.name,
						Key: ent.key, Size: int64(len(value)), Version: meta.Version,
						ToMem: ent.w.toMem})
				}
			}
			ws := sh.inflight[ik]
			delete(sh.inflight, ik)
			sh.mu.Unlock()
			for _, w := range ws {
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
		sh := e.shardFor(bk.t.name, ent.key)
		ik := bk.dedupKey(ent.key)
		sh.mu.Lock()
		ws := sh.inflight[ik]
		delete(sh.inflight, ik)
		sh.mu.Unlock()
		for _, w := range ws {
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

// computeLocal runs the UDF on the local worker pool and feeds the measured
// sojourn back into the key's shard-local optimizer (Section 3.2 runtime
// measurement). idx must be the index of the shard owning (t, key).
func (e *Executor) computeLocal(t *Table, idx int, key string, params, value []byte, fut *Future) {
	udf := t.udf
	if udf == nil {
		panic(fmt.Sprintf("live: UDF %q for table %q not registered", t.udfName, t.name))
	}
	sh := e.shards[idx]
	opt := t.opts[idx]
	e.pendingLocal.Add(1)
	enqueued := time.Now()
	go func() {
		e.workers <- struct{}{}
		start := time.Now()
		out := udf(key, params, value)
		service := time.Since(start).Seconds()
		<-e.workers
		e.pendingLocal.Add(-1)
		sojourn := time.Since(enqueued).Seconds()
		sh.mu.Lock()
		opt.ObserveLocalCompute(sojourn, service)
		if e.cfg.Trace != nil {
			e.cfg.Trace(TraceEvent{Kind: TraceLocalCompute, Table: t.name,
				Key: key, Sojourn: sojourn, Service: service})
		}
		sh.mu.Unlock()
		fut.resolve(out)
	}()
}
