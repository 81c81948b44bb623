package live

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/core"
	"joinopt/internal/loadbalance"
	"joinopt/internal/membership"
	"joinopt/internal/store"
)

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

	Sojourn, Service float64 // TraceLocalCompute
}

// ExecConfig configures a live executor (one per compute node process).
type ExecConfig struct {
	// Tables names the stored tables the executor resolves a handle for.
	// With Membership nil each table's striping (region -> node, one copy)
	// also fills the executor's private placement map; with a map given it
	// is not consulted, and every name here must be a table of the map.
	// The tables are only read.
	Tables map[string]*store.Table
	// Addrs are the data nodes dialed at construction (id -> TCP address);
	// with Membership nil they are also the private map's addresses.
	Addrs map[cluster.NodeID]string
	// Registry resolves UDF names for local execution.
	Registry *Registry
	// TableUDF names each table's UDF.
	TableUDF map[string]string

	// Optimizer configures Algorithm 1. Its DiskCacheBytes is ignored: a live
	// client caches in one memory tier, and Route never buys to disk.
	Optimizer core.Config

	BatchSize int // default 64
	// BatchWait is the ceiling on how long a submission nobody is waiting on
	// yet may sit in its destination's accumulator for the batch to fill
	// (default 2ms). It is not what a blocked caller pays: a WaitErr, Err,
	// WaitCtx or Table.Call on a parked submission ships its batch at once
	// when the destination has none in flight, and as soon as the one in
	// flight returns otherwise.
	BatchWait time.Duration
	// Workers is the ceiling on local UDFs running at once: that many
	// long-lived goroutines, which NewExecutor starts and Close stops once
	// the queued runs are done. Default 8.
	Workers int
	NetBw   float64 // assumed bandwidth for cost formulas; default 1e9

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

	// MaxRetries bounds how many times an idempotent request (OpGet,
	// OpExec) is re-sent after a transport failure; every retry goes
	// through the pool again, which routes it to a healthy (possibly
	// freshly redialed) connection. Server rejections and timeouts are
	// never retried. Default 2; negative disables retries.
	MaxRetries int
	// RequestTimeout bounds each wire attempt: a batch whose response has
	// not arrived within the deadline fails with CodeTimeout (late
	// responses are dropped). Zero or negative means the default, 10s. A
	// call's own, tighter bound is its context's deadline.
	RequestTimeout time.Duration

	// Trace, when non-nil, receives every optimizer interaction, called
	// with the owning shard's lock held. Ordering is guaranteed per shard
	// only: with Shards > 1 the callback runs concurrently from multiple
	// goroutines and must synchronize its own state (the cross-plane test
	// uses Shards=1 for a total order). Test instrumentation only: keep
	// the callback fast and never call back into the executor from it.
	Trace func(TraceEvent)

	// Membership is the placement map: every request is routed to the map's
	// replica set for its key (membership.View.ReplicasForKey — reads priced
	// over the set and failed over within it, Table.Put sequenced at its
	// first live member and acked at a majority) and stamped with the map's
	// epoch, and a CodeMoved redirect from a node that migrated a shard away
	// is resolved transparently (the map learns the new owner, an undialed
	// owner is dialed on first contact, and the op is re-sent) — callers
	// never see the redirect. Pass a coordinator's map, or a Clone that
	// converges through redirects, or a membership.NewStatic filled with
	// replicated sets. Nil means a private static map of Tables and Addrs:
	// unreplicated, epoch 0 until a redirect teaches it otherwise.
	Membership *membership.Map
}

// execShard owns one hash slice of the executor's per-key state: a key's
// optimizer state (cache, counters, learned costs) and its fetch-dedup
// record live in the shard that owns the key, so one Submit touches exactly
// one shard lock — and then its destination's accumulator (accumulate.go),
// which is keyed by where the op goes, not by what its key hashes to.
type execShard struct {
	mu sync.Mutex
	// inflight is the fetch dedup: the lead waiter of each key's joinable
	// fetch, unmapped by whatever ends its joinability first (its answer,
	// failure or withdrawal, or an invalidation of the key).
	inflight map[fetchKey]*waiter
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

	// member is the placement map: cfg.Membership, or the private static
	// one built from cfg.Tables and cfg.Addrs. migGen counts
	// placement changes this executor has observed — CodeMoved redirects
	// applied and version-0 "placement moved" notifications — and fences
	// cache installs: a fetch that was in flight across a migration
	// cutover must not install its (possibly pre-move) value under a dead
	// subscription, so the install is skipped when the generation moved
	// while the fetch was on the wire.
	member *membership.Map
	migGen atomic.Int64

	// tracker learns per-replica service times (non-nil only when some
	// table had a replicated region at construction), pricing reads at the
	// cheapest live replica.
	tracker *loadbalance.ReplicaTracker

	pendingLocal atomic.Int64 // local UDF runs queued plus running (lcc_i)
	inflightReqs atomic.Int64

	local localQueue // feeds the cfg.Workers local UDF workers (settle.go)

	closed  atomic.Bool
	closeMu sync.RWMutex   // orders flush registration against Close
	flushes sync.WaitGroup // in-flight wire batches (send → handleResponse)

	// Counters for tests and metrics. Every resolved submission is
	// counted exactly once in LocalHits (served from the memory cache),
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

// defaultRequestTimeout bounds every wire wait whose caller names no bound:
// it is ExecConfig.RequestTimeout's default and the whole bound of Conn.Call
// and Pool.Call, so the server-to-server calls that ride those (catch-up
// and migration-copy paging) cannot wait forever on a silent peer. In
// nanoseconds; a variable only so fault tests can shorten it, atomic because
// connections of earlier tests may still be calling.
var defaultRequestTimeout atomic.Int64

func init() { defaultRequestTimeout.Store(int64(10 * time.Second)) }

// NewExecutor connects to all data nodes and returns a ready executor.
func NewExecutor(cfg ExecConfig) (*Executor, error) {
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 64
	}
	if cfg.BatchWait == 0 {
		cfg.BatchWait = 2 * time.Millisecond
	}
	if cfg.Workers <= 0 {
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
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = time.Duration(defaultRequestTimeout.Load())
	}
	cfg.Optimizer.DiskCacheBytes = 0 // one memory tier
	e := &Executor{
		cfg:    cfg,
		member: cfg.Membership,
		shards: make([]*execShard, cfg.Shards),
	}
	e.accs.Store(&map[liveBatchKey]*accumulator{})
	e.nodes.Store(&nodeSet{})
	for i := range e.shards {
		e.shards[i] = &execShard{inflight: make(map[fetchKey]*waiter)}
	}
	if cfg.Membership == nil {
		e.member = membership.NewStatic(cfg.Addrs, cfg.Tables, 1)
	}
	view := e.member.View()
	// Resolve every table handle once: UDF and the per-shard optimizer
	// pointers.
	e.tables = make(map[string]*Table, len(cfg.Tables))
	for name := range cfg.Tables {
		tv := view.Tables[name]
		if tv == nil {
			return nil, fmt.Errorf("live: table %q is not in the membership map", name) //lint:allow errcode construction-time config validation; no live op ever sees it
		}
		opts := make([]*core.Optimizer, len(e.shards))
		for i := range opts {
			opts[i] = core.New(cfg.Optimizer.Shard(i, cfg.Shards))
		}
		udfName := cfg.TableUDF[name]
		udf, _ := cfg.Registry.Lookup(udfName) // nil if unregistered; computeLocal panics lazily, as before
		e.tables[name] = &Table{
			e: e, name: name, udf: udf, udfName: udfName,
			seed: tableSeed(name), opts: opts,
		}
		if e.tracker == nil && slices.ContainsFunc(tv.Sets, func(set []cluster.NodeID) bool { return len(set) > 1 }) {
			e.tracker = loadbalance.NewReplicaTracker()
		}
	}
	e.local.live = cfg.Workers
	e.local.exited.Add(cfg.Workers)
	for range cfg.Workers {
		go e.localWorker(make(chan localJob, 1))
	}
	for id, addr := range cfg.Addrs {
		if _, err := e.ensureNode(id, addr); err != nil {
			// Close tears down the pools dialed so far and stops the workers.
			e.Close()
			return nil, fmt.Errorf("live: dialing node %d: %w", id, err) //lint:allow errcode setup-time dial failure; no live op ever sees it
		}
	}
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
		for _, t := range e.tables {
			// The one member of a key's set was the only holder of its
			// versions, and an in-memory node that restarted counts them from
			// 0 again: forget what we learned, or the version fence would keep
			// those keys out of the cache until the new history overtook the
			// old. (A replicated key keeps its versions: the survivors still
			// hold that history.)
			e.sweep(t, func(k string) bool { return t.placedOn(k, node) },
				func(k string) bool { set := t.placement(k); return len(set) == 1 && set[0] == node })
		}
		if pend.CompareAndSwap(n, 0) {
			return
		}
	}
}

// sweep drops the cached value — never the learned costs and counters — of
// every key of t that match accepts: a dead conn (dropNodeCache) and a learned
// redirect (applyMoved) both kill the invalidation subscriptions those values
// were cached under. Each shard's cached keys are snapshotted under its lock,
// filtered outside it and invalidated under it again, so the Submit hot path
// is never blocked behind a placement scan; a key cached in between is either
// fenced out of the cache (sent before the event) or over-invalidated (sent
// after, freshly subscribed), which costs one refetch. The keys a non-nil forget
// accepts also lose their learned versions, under the same lock.
func (e *Executor) sweep(t *Table, match, forget func(key string) bool) {
	for i, sh := range e.shards {
		opt := t.opts[i]
		var ks []string
		sh.mu.Lock()
		opt.Cache.EachKey(func(k string) { ks = append(ks, k) })
		sh.mu.Unlock()
		doomed := ks[:0]
		for _, k := range ks {
			if match(k) {
				doomed = append(doomed, k)
			}
		}
		if len(doomed) == 0 && forget == nil {
			continue
		}
		sh.mu.Lock()
		for _, k := range doomed {
			opt.Cache.Invalidate(k)
		}
		if forget != nil {
			opt.ForgetVersions(forget)
		}
		sh.mu.Unlock()
	}
}

// Close shuts the executor down: it stops every pending batch timer, fails
// the batches that never shipped with CodeClosed, closes the pools (which
// fails in-flight wire batches through the normal error path) and waits
// for every outstanding batch handler to finish, then for the local workers
// to run what is queued and exit. After Close, no future can be left
// hanging: every one has resolved, or is a local hit that raced Close and
// whose UDF runs on a worker its queuing started, landing moments later.
// Safe to call more than once.
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
	e.local.close()
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

// shard returns the shard owning (t, key) and t's optimizer there, which that
// shard's lock guards: the cold paths' form of what route does inline.
func (t *Table) shard(key string) (*execShard, *core.Optimizer) {
	idx := t.e.shardIdx(t.seed, key)
	return t.e.shards[idx], t.opts[idx]
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
	t := e.tables[n.Table]
	if t == nil {
		return
	}
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
		sh, opt := t.shard(n.Key)
		sh.mu.Lock()
		opt.Cache.Invalidate(n.Key)
		sh.mu.Unlock()
		return
	}
	e.invalidate(t, n.Key, n.Version)
}

// invalidate applies "key is now at version" to the key's optimizer: the
// cached copy goes and the version stays behind as the fence every later
// cache install must beat. Pushed notifications land here, and so does this
// executor's own Table.Put at its ack — the node's notification skips the
// connection the put arrived on, so without that a writer would keep serving
// itself the value it just replaced (read-your-writes per executor).
//
// A fetch of the key still in flight may answer with the value just replaced:
// it keeps the waiters it has (a read racing a write may see either side) but
// stops being joinable, so a read submitted from now on starts its own.
func (e *Executor) invalidate(t *Table, key string, version int64) {
	sh, opt := t.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	opt.Invalidate(key, version)
	if e.cfg.Trace != nil {
		e.cfg.Trace(TraceEvent{Kind: TraceInvalidate, Table: t.name, Key: key, Version: version})
	}
	sh.cut(t, key)
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
