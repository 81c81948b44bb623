// Package joinopt is a runtime join-location optimizer for parallel data
// management systems, reproducing Chandra & Sudarshan, "Runtime Optimization
// of Join Location in Parallel Data Management Systems" (VLDB 2017,
// arXiv:1703.01148).
//
// Applications that join an input stream or relation with data indexed in a
// parallel store can execute each joined tuple's UDF either at the data
// node ("compute request" / reduce-side) or at the compute node after
// fetching the value ("data request" / map-side). joinopt decides between
// the two at runtime, per key, using a generalized ski-rental policy with
// two-tier caching, lossy-counting frequency tracking, and compute/data
// load balancing -- no precomputed statistics required.
//
// The package has two planes:
//
//   - The live plane (this package's Cluster/Client plus the MapReduce,
//     Stream and RDD engine APIs) runs real joins over TCP against
//     in-process store nodes. A client's per-key routing state is striped
//     across ClientOptions.Shards shard-local optimizers (default
//     GOMAXPROCS, each owning an equal slice of the memory cache budget) so
//     concurrent Submit calls scale with cores; pending requests batch per
//     destination node, however their keys are striped.
//   - The simulation plane (Simulate* and the Fig* experiment runners)
//     reproduces the paper's evaluation on a deterministic discrete-event
//     cluster model. The shape tests in internal/bench assert the paper's
//     qualitative claims, and internal/bench/testdata/fig_all.golden pins
//     every figure's full-size output.
//
// # The client API: table handles, contexts, per-call options
//
// The client surface is context-first and handle-based:
//
//	users := client.Table("users")                   // resolve once
//	fut := users.Submit(ctx, key, params)            // async
//	v, err := fut.WaitCtx(ctx)                       // bounded wait
//	v, err := users.Call(ctx, key, params)           // sync
//
// A *Table resolves the table's partitioning, UDF and shard-routing state
// once, so per-submission routing does no map lookups; the context carries
// the request scope end to end — cancel it and the submission's future
// rejects with ErrCanceled, the op is pulled out of the client's batch and
// dedup machinery, and (for in-flight compute requests) a wire-level cancel
// frame lets the data node skip the UDF. The context is also a call's own
// bound: a deadline tighter than ClientOptions.RequestTimeout rejects the
// submission with ErrCanceled when it passes. Per-call options choose the
// join location, caching and admission class per submission:
//
//	users.Call(ctx, k, p, joinopt.WithRoute(joinopt.ForceCompute)) // FD per call
//	users.Call(ctx, k, p, joinopt.WithRoute(joinopt.ForceFetch),
//	    joinopt.WithNoCache())                                     // FC per call
//	users.Call(ctx, k, p, joinopt.WithPriority(joinopt.PriorityLow)) // shed first
//
// # Error semantics & fault tolerance
//
// Every submission resolves exactly once — with a value or with a typed
// *Error — so a dead node or a cut wire can never leave a Wait hanging or
// masquerade as a missing key. The three outcomes are:
//
//   - value, nil error: the join result (a nil value with a nil error means
//     the key has no stored row);
//   - *Error with Code ErrServer: the store node rejected the request
//     (unknown table, unregistered UDF, malformed batch) — deterministic,
//     never retried;
//   - *Error with Code ErrTransport / ErrTimeout / ErrClosed: the wire
//     failed, the deadline passed, or the client was shut down;
//   - *Error with Code ErrCanceled: the submission's context was canceled
//     first. Cancellation races completion — a result that arrives before
//     the cancel lands resolves normally.
//   - *Error with Code ErrOverloaded: the store node shed the request at
//     admission (its bounded run queue was full); the error carries the
//     server's retry-after hint and the client has already spent the op's
//     retry budget honoring it. See "Overload & backpressure".
//
// Use Future.WaitErr / Future.WaitCtx (or Table.Call) and switch on the
// error's Code.
//
// # Consistency
//
// What a read may return next to a concurrent Table.Put; each clause names
// the test that pins it (internal/live):
//
//   - Read-your-writes per client. Once Put has returned, every read that
//     client submits afterwards sees that write or a newer one: the ack
//     drops the client's own cached copy (TestPutInvalidatesOwnCache), and
//     such a read never joins a fetch that was already in flight when the
//     put was acknowledged — that fetch may carry the value just replaced,
//     so it only serves the reads it already had
//     (TestReadAfterPutAckStartsNewFetch). A read still in flight when the
//     put is acknowledged raced the write and may see either side.
//   - Monotonic versions per key. A client's cache never runs backwards: a
//     fetched value older than a version the client has already learned —
//     from an invalidation that overtook the reply, or a lagging replica —
//     is handed to its waiters but not cached
//     (TestInvalidationOvertakingFetchReplyFencesInstall,
//     TestSettleFetchAnsweredAfterInvalidate).
//   - Bounded staleness across clients. Another client's cached copy lives
//     until the data node's invalidation reaches it, one notification
//     behind the put on a healthy connection (TestLivePutInvalidatesCachers);
//     if the connection that carried the subscription dies, everything
//     cached from that node is dropped when the disconnect is detected
//     (TestFaultRedialDropsStaleCache), so no value outlives the link that
//     would have invalidated it.
//   - Invalidations go only to caches. The data node registers a client for
//     a key only when the fetch will be cached (TestCachingFetchStillRegistered);
//     a read that caches nothing — every fetch under FetchAlways, a
//     WithNoCache call — says so on the wire, is not registered, and is owed
//     no notification when the key is written (TestUncachedFetchRegistersNoCacher).
//
// # Performance
//
// The live plane's request lifecycle is allocation-pooled end to end:
// request/response carriers, completion cells and batch accumulators
// recycle through shared pools, and every connection writes through a
// coalescing writer that gathers concurrently queued frames into shared
// syscalls. Steady state, encoding and decoding a message allocates
// nothing and a full Submit-to-wire-and-back round trip costs about five
// small allocations (budgets are enforced by allocation-regression tests;
// see DESIGN.md "Allocation budgets & I/O scheduling"). Two consequences
// surface in the API: a UDF's params and value slices are only valid for
// the duration of the call (copy what you retain), and a Future's result
// may alias the network frame its batch arrived in (treat it as read-only
// and copy it if you hold it long-term).
// Fault tolerance is layered underneath: each data node's connection pool
// detects broken connections, fails their in-flight calls with ErrTransport
// and redials them with exponential backoff while traffic routes to the
// healthy connections. The client retries idempotent requests (gets and
// remote UDF executions) up to ClientOptions.MaxRetries times on transport
// errors, and bounds every wire attempt by ClientOptions.RequestTimeout.
// A request that exhausts its retries fails with the last error; the
// optimizer's learned state is never fed from a failed response. Failed
// submissions are counted in Stats.Failed, canceled ones in Stats.Canceled
// and shed ones in Stats.Shed, so
// LocalHits+RemoteComputed+RemoteRaw+FetchServed+Failed+Canceled+Shed
// always equals the number of resolved submissions.
//
// # Overload & backpressure
//
// Store nodes protect themselves: every request is admitted into a bounded
// run queue for its op class (UDF executions, puts, fetches), each drained
// by a fixed worker pool, so a storm of arrivals can never spawn unbounded
// server work or queue unbounded memory. When an op's queue is full the
// node sheds the request immediately with ErrOverloaded — a typed, zero-
// work rejection carrying a retry-after hint priced from the queue's depth
// and the class's measured service rate — rather than letting it time out
// opaquely. Within a queue, dequeue is weighted-fair across three priority
// classes (WithPriority): under sustained overload low-priority work is
// shed first and high-priority work keeps flowing.
//
// Backpressure rides the wire: every response carries the
// node's current credit/window pair — an advisory per-connection
// outstanding-op budget derived from queue headroom and measured service
// time. The client paces batch release against the advertised window,
// shrinks its per-node batch size while a node is starved and grows it
// back as credit returns, so a well-behaved client stops manufacturing
// sheds before the server has to reject anything. ErrOverloaded is retried
// only for idempotent ops, only after the server's hint (jittered, so a
// shed herd cannot return in lockstep), and replicated reads fail over to
// a sibling replica with headroom. ErrTimeout messages distinguish a
// request that was still queued at a saturated node from one whose UDF ran
// long, and the optimizer's learned state is never fed from shed
// responses. See DESIGN.md "Overload & backpressure" for the wire layout
// and the server-side invariants.
//
// # Durable storage
//
// A store node's rows live behind a pluggable storage engine. The default
// engine keeps them in memory (nothing survives the process, nothing is
// added to the hot path); a node started with a disk engine persists every
// acknowledged put and recovers its tables on restart:
//
//   - Each put is applied to the in-memory table and appended to a
//     CRC-guarded write-ahead log; a put batch is acknowledged only after
//     the engine's acknowledgment barrier (Flush) has pushed its records
//     to the operating system — group commit, one barrier per batch.
//   - When the WAL passes a size threshold the engine writes a snapshot
//     (write-new-then-rename, so a crash never leaves a half-written one)
//     and truncates the WAL.
//   - On restart the engine loads the snapshot, replays the WAL tail over
//     it, and tolerates a torn final record (the tail past the last intact
//     record is discarded). Replay is idempotent: records apply only when
//     their version is newer than the row's.
//
// The guarantee is process-crash durability: kill -9 a node mid-storm,
// restart it on the same data directory, and every put it acknowledged is
// readable at (at least) its acked version, while nothing unacknowledged is
// invented. With the engine's Fsync option the same holds across machine
// crashes, at the cost of an fsync per acknowledgment barrier. Table seeds
// (AddTable rows) are version 0 and never persisted; recovered puts win
// over re-seeded baselines. cmd/storeserver exposes the choice as
// -engine mem|disk with -data-dir and -fsync, and
// `joinbench -livedurable` is a runnable kill/restart drill of the whole
// contract.
//
// # Replication
//
// Tables can be replicated K ways across the store nodes. The factor is said
// once, where the placement is built: Cluster.SetReplicas before Start, which
// fills the cluster's partition map, seeds every member of each key's replica
// set from it and hands every client a clone. Placement is deterministic:
// every partition keeps its striped primary — a key's owner is the same at
// every K — and gains K-1 backups chosen as consistent-hash ring successors
// of the partition's hash, so all clients derive identical replica sets.
//
//   - Writes are sequenced. Table.Put sends the value to the first live
//     replica in placement order, which assigns the version; the versioned
//     record is then fanned to the remaining replicas, applied
//     set-if-newer, and the put acknowledges at a majority write-quorum.
//     Versions stay continuous across sequencer changes because
//     replication carries the assigned version explicitly.
//   - Reads are priced per replica. The client learns each replica's
//     service time (the same runtime measurement Algorithm 1 already
//     feeds on) and routes every fetch and compute request to the
//     cheapest live replica; a transport failure mid-batch fails the read
//     over to a surviving replica instead of surfacing ErrTransport.
//     Cache installs are version-guarded, so a read answered by a lagging
//     replica can never roll a cached value backwards.
//   - A put that fails is "maybe committed", never "rolled back": the
//     value may already be visible at its sequencer or at a subset of
//     replicas — exactly the storage engine's failed-put contract
//     (storage.Table.Put). Read back or retry; a retry assigns a fresh,
//     newer version, so last-writer-wins keeps retries safe.
//   - A restarted node catches up by scanning a surviving replica
//     (live.Server.CatchUp, cmd/storeserver -peers) before it serves
//     traffic. `joinbench -livereplicas` is a runnable kill-one-replica
//     drill of the whole contract: no caller-visible read failures, no
//     acknowledged put lost after rejoin.
//
// # Membership & migration
//
// A cluster's placement no longer has to be fixed at Start: store nodes
// can join and leave a running cluster, and partitions move between owners
// while both keep serving. The authority is an epoch-versioned partition
// map (internal/membership; a fixed cluster routes through the same map at
// epoch 0): each table's regions map to owners, every
// ownership change is a cutover stamped with a strictly increasing epoch,
// and clients hold their own — possibly stale — copy of the map.
//
//   - Routing is optimistic. Every request carries the client's routing
//     epoch (one uvarint); a node that still owns the
//     key answers normally, so a correct guess costs one predictable
//     compare on the server's hot path. A node that no longer owns the
//     key's region answers with a typed redirect (CodeMoved) naming the
//     new owner, its address, and the cutover epoch; the executor folds
//     the redirect into its map, dials the new owner if it has never seen
//     it, and transparently re-sends — callers never observe the move.
//     Per-region epoch fencing makes learning monotonic: a stale or
//     reordered redirect can never regress the client's map.
//   - Migration is live. A background coordinator streams a partition to
//     its new owner in pages while the old owner keeps serving, then
//     fences the partition for a bounce-window measured in milliseconds —
//     puts arriving in the gap are shed with a 1ms retry-after, never
//     lost — pages over the rows put meanwhile (versioned above a floor
//     raised up front), and cuts over with a single epoch bump.
//   - The optimizer's learned state moves with the data. The paper's
//     Algorithm 1 decides fetch-vs-compute from runtime measurements;
//     a migration serializes the server-side UDF cost estimates into the
//     stream, and the client keeps its per-key ski-rental counters
//     through the move (cached values are invalidated — their
//     subscriptions died with the old owner — but the decision state
//     survives), so routing quality does not reset on rebalance.
//
// cmd/storeserver -join boots an empty node ready to receive partitions,
// SIGTERM drains it gracefully, and `joinbench -livemigrate` is a runnable
// drill: a node joins mid-put-storm, every partition migrates to it under
// load against a deliberately stale client, and the old owner is removed —
// no lost acked put, no wrong answer, no caller-visible redirect.
// The one map holds replica sets too, so a membership cluster can serve a
// replicated table; migrating one is still refused (ROADMAP.md open item 13).
//
// # Static analysis
//
// The invariants above — pooled lifecycles, shard-lock discipline, the
// typed-error contract, the hot-path allocation budget — are enforced at
// build time by joinoptlint, the custom analyzer suite in internal/lint
// (run by `make lint` and CI: cmd/joinoptlint is a go vet tool, `go vet
// -vettool=<the built binary> ./...`). Four analyzers:
// recyclecheck (use of a pooled object after its release, and pooled values
// escaping into fields or closures without an ownership marker), lockcheck
// (blocking operations while a shard or engine mutex is held, and
// inconsistent lock-acquisition order), errcode (bare fmt.Errorf/errors.New
// returned across this API where the contract promises a *Error with a
// Code), and hotpath (closures, interface boxing, fmt calls, string
// concatenation and map literals inside the allocation-budgeted functions).
//
// The analyzers learn the invariants from comment markers in the source:
//
//	//joinopt:pooled           on a type: values recycle through a pool;
//	                           on a function: calling it releases its
//	                           first argument back to the pool
//	//joinopt:hotpath          on a function: allocation-budgeted; the
//	                           hotpath analyzer checks its body
//	//joinopt:owns             on a struct field: an owning reference —
//	                           storing a pooled object here is a transfer,
//	                           not a leak
//	//joinopt:xfer <reason>    on (or above) a statement: blesses one
//	                           escape — a capture or field store — as a
//	                           deliberate ownership transfer
//	//joinopt:lockorder A B    anywhere in a package: mutex class A (e.g.
//	                           execShard.mu) is acquired before B; taking
//	                           A while holding B is reported
//	//lint:allow <analyzer> <reason>  suppresses that analyzer on that
//	                           line; the reason is mandatory, and a bare
//	                           waiver is itself reported
package joinopt

import (
	"context"
	"fmt"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/core"
	"joinopt/internal/live"
	"joinopt/internal/membership"
	"joinopt/internal/store"
)

// UDF is a side-effect-free function f'(k, p, v): it combines a key, the
// caller's parameters, and the stored value into a result. UDFs execute at
// whichever node the optimizer picks, so both sides register them by name.
type UDF = live.UDF

// Identity returns the stored value unchanged (a pure join, no computation).
var Identity UDF = live.Identity

// Error is the typed failure of one submission: the operation, a
// classification code, and the human-readable detail. Every error returned
// by WaitErr/CallErr is an *Error.
type Error = live.Error

// ErrCode classifies an Error; see the package documentation's "Error
// semantics & fault tolerance" section.
type ErrCode = live.ErrCode

// Error codes.
const (
	// ErrServer: the store node rejected the request; retrying cannot help.
	ErrServer = live.CodeServer
	// ErrTransport: the connection failed underneath the request.
	ErrTransport = live.CodeTransport
	// ErrTimeout: no response within ClientOptions.RequestTimeout.
	ErrTimeout = live.CodeTimeout
	// ErrClosed: the client was shut down while the request was pending.
	ErrClosed = live.CodeClosed
	// ErrCanceled: the submission's context was canceled before the
	// result arrived; the abandoned work is dropped best-effort all the
	// way to the data node.
	ErrCanceled = live.CodeCanceled
	// ErrOverloaded: the store node's bounded run queue for the op's class
	// was full and the request was shed at admission — the server did zero
	// work on it. The *Error carries the server's RetryAfter hint; the
	// client has already honored it for idempotent ops with retry budget
	// left, so an ErrOverloaded that surfaces means the budget is spent
	// (or the op is a put). Counted in Stats.Shed, never in Stats.Failed.
	ErrOverloaded = live.CodeOverloaded
)

// Priority classes a submission for the data node's weighted-fair admission
// (see the package documentation's "Overload & backpressure" section). The
// zero value PriorityNormal is the default for every call.
type Priority = live.Priority

// Priority classes. Under overload, low-priority work is shed first: a full
// run queue evicts the newest queued low-priority batch to admit a
// high-priority one.
const (
	PriorityNormal = live.PriorityNormal
	PriorityHigh   = live.PriorityHigh
	PriorityLow    = live.PriorityLow
)

// Policy selects which optimization mechanisms are active. The zero value
// (Full) is the paper's complete system.
type Policy int

// Policies, named after the paper's strategy abbreviations.
const (
	// Full enables ski-rental caching and load balancing (FO).
	Full Policy = iota
	// CachingOnly enables ski-rental caching without load balancing (CO).
	CachingOnly
	// BalancingOnly ships every request to data nodes and lets them
	// bounce work back (LO).
	BalancingOnly
	// ComputeAtData always executes at data nodes (FD).
	ComputeAtData
	// FetchAlways always fetches and computes locally, never caches (FC).
	FetchAlways
)

func (p Policy) corePolicy() core.Policy {
	switch p {
	case CachingOnly, Full:
		return core.Policy{Caching: true}
	case BalancingOnly, ComputeAtData:
		return core.Policy{AlwaysCompute: true}
	default:
		return core.Policy{AlwaysFetch: true}
	}
}

func (p Policy) balanced() bool { return p == Full || p == BalancingOnly }

// TableSpec declares a stored, key-indexed relation.
type TableSpec struct {
	Name string
	// UDFName must be registered on the cluster before Start.
	UDFName string
	// Rows holds the stored values by key.
	Rows map[string][]byte
	// RegionsPerNode controls partitioning granularity (default 2).
	RegionsPerNode int
}

// Cluster is a set of in-process store nodes served over loopback TCP.
type Cluster struct {
	nodes    int
	policy   Policy
	registry *live.Registry
	specs    []TableSpec
	replicas int

	servers   []*live.Server
	addrs     map[cluster.NodeID]string
	tables    map[string]*store.Table
	udfs      map[string]string
	started   bool
	placement *membership.Map // built once at Start; every client routes through its own Clone
}

// NewCluster creates a cluster of n data nodes; the policy decides whether
// servers run the load balancer.
func NewCluster(n int, policy Policy) *Cluster {
	if n <= 0 {
		panic("joinopt: cluster needs at least one node")
	}
	return &Cluster{
		nodes:    n,
		policy:   policy,
		registry: live.NewRegistry(),
		addrs:    make(map[cluster.NodeID]string),
		tables:   make(map[string]*store.Table),
		udfs:     make(map[string]string),
	}
}

// RegisterUDF adds a named UDF. Must be called before Start.
func (c *Cluster) RegisterUDF(name string, f UDF) {
	c.registry.Register(name, f)
}

// AddTable declares a table to be partitioned across the nodes at Start.
func (c *Cluster) AddTable(spec TableSpec) {
	if spec.RegionsPerNode == 0 {
		spec.RegionsPerNode = 2
	}
	c.specs = append(c.specs, spec)
}

// SetReplicas sets the replica factor applied to every table at Start:
// r > 1 places r copies of each partition (primary plus r-1 ring-successor
// backups, clamped to the node count), r < 0 selects the default factor,
// and 0 (the initial state) leaves tables unreplicated. Must be called
// before Start; seeds are then loaded on every replica of their partition.
// See the package documentation's "Replication" section.
func (c *Cluster) SetReplicas(r int) {
	c.replicas = r
}

// Start launches the store nodes and partitions every table.
func (c *Cluster) Start() error {
	if c.started {
		return fmt.Errorf("joinopt: cluster already started") //lint:allow errcode setup misuse, outside the op result contract
	}
	nodes := make([]cluster.NodeID, c.nodes)
	for i := range nodes {
		nodes[i] = cluster.NodeID(i)
	}
	shardSets := make([]map[string]live.TableSpec, c.nodes)
	for i := range shardSets {
		shardSets[i] = make(map[string]live.TableSpec)
	}
	for _, spec := range c.specs {
		catalog := store.CatalogFunc(func(string) store.RowMeta {
			return store.RowMeta{ValueSize: 256}
		})
		c.tables[spec.Name] = store.NewTable(spec.Name, catalog, spec.RegionsPerNode, nodes)
		c.udfs[spec.Name] = spec.UDFName
	}
	r := c.replicas // SetReplicas's encoding: 0 is unreplicated, negative the default factor
	switch {
	case r == 0:
		r = 1
	case r < 0:
		r = cluster.DefaultReplicas
	}
	// The map carries no addresses: every client dials c.addrs itself.
	c.placement = membership.NewStatic(nil, c.tables, r)
	seeding := c.placement.View()
	for _, spec := range c.specs {
		shards := make([]map[string][]byte, c.nodes)
		for i := range shards {
			shards[i] = make(map[string][]byte)
		}
		for k, v := range spec.Rows {
			// Seeds load on every member of their key's set, so a backup can
			// answer reads (and a catch-up scan never needs to carry
			// version-0 rows).
			for _, n := range seeding.ReplicasForKey(spec.Name, k) {
				shards[n][k] = v
			}
		}
		for i := range shards {
			shardSets[i][spec.Name] = live.TableSpec{
				Name: spec.Name, UDF: spec.UDFName, Rows: shards[i],
			}
		}
	}
	for i := 0; i < c.nodes; i++ {
		srv := live.NewServer(c.registry, c.policy.balanced())
		for _, ts := range shardSets[i] {
			srv.AddTable(ts)
		}
		addr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			c.Close()
			return fmt.Errorf("joinopt: starting node %d: %w", i, err) //lint:allow errcode setup-time listen failure, outside the op result contract
		}
		c.servers = append(c.servers, srv)
		c.addrs[cluster.NodeID(i)] = addr
	}
	c.started = true
	return nil
}

// Close shuts every node down.
func (c *Cluster) Close() {
	for _, s := range c.servers {
		s.Close()
	}
	c.servers = nil
	c.started = false
}

// Servers exposes the running store nodes (for metrics in tests/examples).
func (c *Cluster) Servers() []*live.Server { return c.servers }

// ClientOptions tunes a Client.
type ClientOptions struct {
	// MemCacheBytes bounds the client's cache, one memory tier (default
	// 100 MB).
	MemCacheBytes int64
	// Deprecated: DiskCacheBytes is ignored; a client caches only in
	// memory, within MemCacheBytes.
	DiskCacheBytes int64
	// Workers is the local UDF parallelism (default 8).
	Workers int
	// Shards stripes the client's per-key optimizer state (routing
	// counters, caches, fetch dedup) by key hash so concurrent Submit calls
	// scale across cores instead of serializing on one lock; batching is
	// per destination and does not depend on it. Default GOMAXPROCS. The
	// cache budget is split across shards: each shard-local optimizer
	// manages MemCacheBytes/Shards, so the client's total footprint stays
	// as configured.
	Shards int
	// MaxRetries bounds how many times an idempotent request is re-sent
	// after a transport failure (default 2; negative disables retries).
	MaxRetries int
	// RequestTimeout bounds each wire attempt; a request that gets no
	// answer within the deadline fails with ErrTimeout. Zero or negative
	// means the default, 10s; a call's own, tighter bound is its context's
	// deadline.
	RequestTimeout time.Duration
}

// Client is a compute-node runtime: every Submit is routed by the paper's
// Algorithm 1 between the local cache, a compute request, and a data
// request.
type Client struct {
	exec *live.Executor
}

// NewClient connects a client to the cluster.
func (c *Cluster) NewClient(opts ClientOptions) (*Client, error) {
	if !c.started {
		return nil, fmt.Errorf("joinopt: cluster not started") //lint:allow errcode setup misuse, outside the op result contract
	}
	e, err := live.NewExecutor(live.ExecConfig{
		Tables:     c.tables,
		Addrs:      c.addrs,
		Membership: c.placement.Clone(),
		Registry:   c.registry,
		TableUDF:   c.udfs,
		Optimizer: core.Config{
			Policy:        c.policy.corePolicy(),
			MemCacheBytes: opts.MemCacheBytes,
		},
		Workers:        opts.Workers,
		Shards:         opts.Shards,
		MaxRetries:     opts.MaxRetries,
		RequestTimeout: opts.RequestTimeout,
	})
	if err != nil {
		return nil, err
	}
	return &Client{exec: e}, nil
}

// Future is a pending result; WaitErr/WaitCtx block until it resolves.
type Future = live.Future

// Table is a resolved handle on one stored relation: partitioning, UDF and
// shard-routing state are looked up once, and every submission through the
// handle carries a context and optional per-call options.
type Table = live.Table

// CallOption overrides the client-level defaults for one submission.
type CallOption = live.CallOption

// RouteHint forces the join location for one call; see Auto, ForceFetch
// and ForceCompute.
type RouteHint = live.RouteHint

// Route hints. Auto is the zero value: Algorithm 1 decides per key.
// ForceFetch executes at the compute node after fetching the value (the
// paper's FC shape, per call); ForceCompute executes at the data node (FD
// per call).
const (
	Auto         = live.Auto
	ForceFetch   = live.ForceFetch
	ForceCompute = live.ForceCompute
)

// WithRoute forces one call's join location; see RouteHint.
func WithRoute(h RouteHint) CallOption { return live.WithRoute(h) }

// WithNoCache forces a wire fetch that bypasses the client cache entirely
// (no lookup, no install, no dedup pile-on); combined with ForceFetch it is
// the paper's FC policy for a single call.
func WithNoCache() CallOption { return live.WithNoCache() }

// WithPriority classes one call for the data node's weighted-fair admission:
// under overload, PriorityLow work is shed before PriorityNormal, and
// PriorityNormal before PriorityHigh. The class rides the wire
// and selects the server-side run-queue lane; it does not change client-side
// ordering.
func WithPriority(p Priority) CallOption { return live.WithPriority(p) }

// Table returns the handle for a table declared on the cluster. Handles
// are resolved once per client and are safe for concurrent use; asking for
// an undeclared table panics (a wiring bug, like registering no UDF).
func (cl *Client) Table(name string) *Table { return cl.exec.Table(name) }

// CallCtx evaluates f(key, params) synchronously under ctx with per-call
// options: sugar for Table(table).Call(ctx, key, params, opts...) when the
// handle is not worth holding.
func (cl *Client) CallCtx(ctx context.Context, table, key string, params []byte, opts ...CallOption) ([]byte, error) {
	return cl.exec.Table(table).Call(ctx, key, params, opts...)
}

// Close releases the client's connections.
func (cl *Client) Close() { cl.exec.Close() }

// Executor exposes the underlying live executor for the engine APIs.
func (cl *Client) Executor() *live.Executor { return cl.exec }

// Stats reports client-side routing counters. Every resolved submission
// lands in exactly one of LocalHits, RemoteComputed, RemoteRaw,
// FetchServed, Failed, Canceled or Shed, so their sum accounts for every
// completed op.
type Stats struct {
	LocalHits      int64 // served from the client's memory cache
	RemoteComputed int64 // UDFs executed at data nodes
	RemoteRaw      int64 // values bounced back by the balancer
	Fetches        int64 // wire-level value fetches (purchases + no-cache fetches)
	FetchServed    int64 // ops resolved from fetched values (>= Fetches: waiters pile on)
	Failed         int64 // submissions rejected with a typed error
	Retries        int64 // wire batches re-sent (transport failures and honored retry-after hints)
	Canceled       int64 // submissions rejected because their context canceled
	Shed           int64 // submissions rejected with ErrOverloaded (server shed at admission)
	Failovers      int64 // reads re-routed to a surviving replica
	PutFailovers   int64 // puts sequenced at a backup (primary was down)

	// Wire batches (not ops) by what made them leave their destination's
	// accumulator; their sum is the number of batches sent, re-sends aside.
	SizeFlushes       int64 // the batch limit filled
	WaiterFlushes     int64 // a caller blocked on a parked op while nothing was in flight to the node
	CompletionFlushes int64 // a batch in flight returned while a caller was blocked on a parked op
	TimerFlushes      int64 // the max batch wait expired with nobody blocked
}

// Stats returns a snapshot of the client's counters.
func (cl *Client) Stats() Stats {
	return Stats{
		LocalHits:      cl.exec.LocalHits.Load(),
		RemoteComputed: cl.exec.RemoteComputed.Load(),
		RemoteRaw:      cl.exec.RemoteRaw.Load(),
		Fetches:        cl.exec.Fetches.Load(),
		FetchServed:    cl.exec.FetchServed.Load(),
		Failed:         cl.exec.Failed.Load(),
		Retries:        cl.exec.Retries.Load(),
		Canceled:       cl.exec.Canceled.Load(),
		Shed:           cl.exec.Shed.Load(),
		Failovers:      cl.exec.Failovers.Load(),
		PutFailovers:   cl.exec.PutFailovers.Load(),

		SizeFlushes:       cl.exec.SizeFlushes.Load(),
		WaiterFlushes:     cl.exec.WaiterFlushes.Load(),
		CompletionFlushes: cl.exec.CompletionFlushes.Load(),
		TimerFlushes:      cl.exec.TimerFlushes.Load(),
	}
}
