package live

import (
	"fmt"
	"maps"
	"math"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/loadbalance"
	"joinopt/internal/membership"
	"joinopt/internal/storage"
)

// StorageEngine is the pluggable row store behind a data node: the
// in-memory default (storage.NewMem) or the WAL + snapshot disk engine
// (storage.OpenDisk), selected per server with SetEngine before AddTable.
// See the storage package for the durability contract.
type StorageEngine = storage.Engine

// TableSpec declares one table served by a node: its seed rows (the
// operator-provided baseline, loaded at version 0) and the UDF run by
// OpExec requests. On a durable engine, rows recovered from disk win over
// the seeds, so restarting a node with the same spec resumes where the
// acknowledged writes left off.
type TableSpec struct {
	Name string
	UDF  string // name in the registry
	Rows map[string][]byte
}

// Server is one data node: a key-value store over a pluggable
// StorageEngine with server-side UDF execution (the coprocessor of
// Section 3.1) and the batch-level load balancing of Section 5.
type Server struct {
	reg      *Registry
	balanced bool
	engine   storage.Engine // row storage; in-memory unless SetEngine says otherwise

	mu       sync.RWMutex
	tables   map[string]*serverTable
	conns    map[*wireConn]struct{}
	listener net.Listener

	// Membership (migrate.go). routeState packs the node's
	// installed routing epoch (bits 1..63) with a has-moved-regions flag
	// (bit 0); the hot path compares every request's stamp against it —
	// one load and one comparison — and only a mismatch takes the cold
	// moved-region check. The flag is IN the compared word because epoch
	// equality alone does not prove the client's placement is current:
	// redirects teach one region at a time, and LearnOwner raises the
	// client's global epoch to the newest cutover it happened to learn, so
	// a client can match this node's epoch while still routing an
	// earlier-moved region here. A node holding any moved record therefore
	// never matches (the flag forces the walk); a node that never migrated
	// anything — every static cluster — has flag 0 and stays on the
	// one-comparison path, with state 0 matching the 0 every
	// membership-less client stamps. migActive counts regions this node is
	// currently dual-writing; handlePut consults the migration state only
	// while it is nonzero. migMu guards migs (per-table bookkeeping).
	member     *membership.Map
	self       cluster.NodeID
	routeState atomic.Uint64
	migActive  atomic.Int64
	migMu      sync.Mutex
	migs       map[string]*tableMigr

	pendingExec   int64 // committed UDFs not yet finished (rd_j)
	pendingTotal  int64 // exec requests in the building (nrd_j)
	execWorkers   chan struct{}
	avgUDFSeconds atomic.Uint64 // math.Float64bits; plain atomic so updates don't box

	// Admission control (admission.go): bounded per-class run
	// queues drained by fixed dispatcher pools, plus the per-class EWMA of
	// service time that prices retry-after hints and advertised windows.
	admCfg     AdmissionConfig
	admOnce    sync.Once
	admStarted atomic.Bool
	admission  [numClasses]*runQueue
	admWorkers [numClasses]int
	classSvc   [numClasses]atomic.Uint64 // math.Float64bits of EWMA seconds

	// Counters for tests/metrics. ExecCanceled counts exec slots whose
	// UDF was skipped because a cancel frame arrived before the slot was
	// dispatched — the observable server half of client-side
	// context cancellation. Shed counts requests rejected at admission
	// with CodeOverloaded.
	Gets, Execs, Puts, Bounced atomic.Int64
	ExecCanceled               atomic.Int64
	Shed                       atomic.Int64
}

type serverTable struct {
	udf   string
	store storage.Table // the engine's handle: rows and versions live here
	// cachers: conns that fetched the key via OpGet (tracked-notification
	// invalidation mode, Section 4.2.3). Guarded by cmu alone — row access
	// synchronizes inside the engine, so concurrent Gets share its read
	// lock instead of serializing on a table-wide writer lock.
	cmu     sync.Mutex
	cachers map[string]map[*wireConn]struct{}
}

// NewServer creates a server; balanced enables the Section 5 balancer for
// OpExec batches (disabled servers always compute, like FD/CO). The
// trailing wire argument is ignored (see Wire).
func NewServer(reg *Registry, balanced bool, _ ...Wire) *Server {
	s := &Server{
		reg:      reg,
		balanced: balanced,
		engine:   storage.NewMem(),
		tables:   make(map[string]*serverTable),
		conns:    make(map[*wireConn]struct{}),
		// Bound concurrent UDF execution to the core count, like a
		// coprocessor thread pool.
		execWorkers: make(chan struct{}, runtime.NumCPU()),
	}
	s.avgUDFSeconds.Store(math.Float64bits(1e-4))
	for cl := range s.classSvc {
		s.classSvc[cl].Store(math.Float64bits(1e-4))
	}
	return s
}

// SetEngine replaces the server's storage engine (the in-memory default)
// before any table is added. The server never closes the engine: its
// lifecycle — and in particular reopening a disk engine's directory after
// a crash — belongs to the caller.
func (s *Server) SetEngine(e storage.Engine) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.tables) > 0 {
		panic("live: SetEngine after AddTable")
	}
	s.engine = e
}

// AddTable loads a table into the server: the engine's table is opened
// (recovering any durable rows on a disk engine) and the spec's rows are
// seeded underneath them.
func (s *Server) AddTable(spec TableSpec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.tables[spec.Name]; dup {
		panic(fmt.Sprintf("live: duplicate table %q", spec.Name))
	}
	st, err := s.engine.Table(spec.Name)
	if err != nil {
		panic(fmt.Sprintf("live: open table %q: %v", spec.Name, err))
	}
	for k, v := range spec.Rows {
		st.Seed(k, v)
	}
	s.tables[spec.Name] = &serverTable{
		udf:     spec.UDF,
		store:   st,
		cachers: make(map[string]map[*wireConn]struct{}),
	}
}

// Serve starts accepting connections on addr ("127.0.0.1:0" for tests) and
// returns the bound address.
func (s *Server) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.startAdmission()
	s.mu.Lock()
	s.listener = ln
	s.mu.Unlock()
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// Close stops the listener and all connections, then closes the run
// queues: the dispatcher pools drain what was already admitted (their
// responses fail harmlessly against the closed conns) and exit.
func (s *Server) Close() {
	s.mu.Lock()
	if s.listener != nil {
		s.listener.Close()
	}
	conns := slices.Collect(maps.Keys(s.conns))
	s.mu.Unlock()
	// Outside the lock: a closing conn first writes out the responses queued
	// on it, which can take up to closeFlushTimeout against a stalled peer.
	for _, c := range conns {
		c.Close()
	}
	for _, q := range s.admission {
		if q != nil {
			q.close()
		}
	}
}

// Drain gracefully shuts the node down: stop accepting new connections,
// wait (up to timeout) for every in-flight request on the existing ones to
// finish — wc.inflight counts a request from the moment its read loop
// registered it, queued time included, until its response is queued on the
// conn's writer, so "zero everywhere" means no admitted work remains — then
// Close, which writes those queued responses out before each socket goes.
// Returns false if the timeout expired with work still in flight (Close runs
// regardless; the stragglers fail through the closed conns). Pair with
// Migrator.Drain for a decommission that loses neither requests nor data.
func (s *Server) Drain(timeout time.Duration) bool {
	s.mu.Lock()
	if s.listener != nil {
		s.listener.Close() // stop accepting; existing conns keep serving
	}
	s.mu.Unlock()
	deadline := time.Now().Add(timeout)
	idle := false
	for {
		n := int64(0)
		s.mu.Lock()
		for c := range s.conns {
			n += c.inflight.Load()
		}
		s.mu.Unlock()
		if n == 0 {
			idle = true
			break
		}
		if !time.Now().Before(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
	return idle
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		wc := newWireConn(c)
		s.mu.Lock()
		s.conns[wc] = struct{}{}
		s.mu.Unlock()
		go s.connLoop(wc)
	}
}

func (s *Server) connLoop(wc *wireConn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, wc)
		s.mu.Unlock()
		wc.Close()
	}()
	for {
		req := getRequest()
		cn, err := wc.readRequest(req)
		if err != nil {
			putRequest(req)
			return
		}
		if cn != nil {
			// A cancel frame for one slot of an in-flight batch; stream
			// ordering guarantees the batch itself was read first.
			wc.markCanceled(*cn)
			putRequest(req)
			continue
		}
		// Register before admission, so a cancel frame read on the very
		// next loop iteration finds the request active — even while it is
		// still queued (the exec path then skips the canceled slots when
		// the batch finally dispatches).
		wc.beginActive(req.ID)
		s.admit(wc, req)
	}
}

// handle serves one request and recycles it (and its frame buffer, and the
// response) once the reply's bytes are framed — every carrier on the
// server-side hot path is pooled, so a steady-state request allocates
// nothing but what its UDF produces. queueWait is the time the request
// spent in its admission queue; the response reports it (QueueMicros)
// alongside the measured service time so clients can tell queuing from
// slow work.
//
//joinopt:hotpath
func (s *Server) handle(wc *wireConn, req *Request, queueWait time.Duration) {
	defer putRequest(req)
	defer wc.endActive(req.ID)
	svcStart := time.Now()
	var resp *Response
	// The membership epoch check: one comparison when the
	// client's map agrees with this node's and nothing ever moved away.
	// A mismatch — stale stamp, or this node holding any moved record
	// (the flag bit keeps the word unequal to every stamp) — walks the
	// request's keys against the moved-region set; a mismatch touching no
	// moved region falls through and is served normally.
	if s.routeState.Load() != req.Epoch<<1 {
		resp = s.routeCheck(req)
	}
	s.mu.RLock()
	tb := s.tables[req.Table]
	s.mu.RUnlock()
	switch {
	case resp != nil:
		// CodeMoved redirect already built.
	case tb == nil:
		resp = errResponse(req.ID, CodeServer, "unknown table "+req.Table) //lint:allow hotpath unknown-table error path
	case req.Op == OpGet:
		resp = s.handleGet(wc, tb, req)
	case req.Op == OpExec:
		resp = s.handleExec(wc, tb, req)
	case req.Op == OpPut:
		resp = s.handlePut(wc, tb, req)
	case req.Op == OpPutRepl:
		resp = s.handlePutRepl(wc, tb, req)
	case req.Op == OpScan:
		resp = s.handleScan(tb, req)
	default:
		resp = errResponse(req.ID, CodeServer, "unknown op")
	}
	cl := classOf(req.Op)
	svc := time.Since(svcStart)
	s.observeClassService(cl, svc.Seconds())
	resp.QueueMicros = uint64(queueWait.Microseconds())
	resp.ServiceMicros = uint64(svc.Microseconds())
	s.stampCredit(wc, resp, cl)
	err := wc.writeResponse(resp)
	putResponse(resp)
	if err != nil {
		// A frame-size rejection leaves the connection clean (nothing was
		// written): answer with a small error response so the client's
		// pending call fails instead of hanging. Any other write error
		// means a broken stream; close it so the client's read loop fails
		// every pending call.
		if err == errFrameTooBig {
			small := errResponse(req.ID, CodeServer, errFrameTooBig.Error())
			err = wc.writeResponse(small)
			putResponse(small)
		}
		if err != nil {
			wc.Close()
		}
	}
}

// handleGet answers a fetch batch. It used to take the table's writer lock
// for the whole batch — serializing every concurrent reader against every
// other reader and every Put, just to update cacher tracking — so the lock
// is now split: a short write section registers this conn as a cacher of
// each key, and the row reads proceed under the engine's reader lock.
//
// Registration deliberately comes FIRST. If a Put lands between the two
// steps, the sweep already sees this conn and sends an invalidation, and
// the read returns the new value — either ordering leaves the client
// consistent. Read-then-register would open a stale-cache window: a Put
// sweeping between the read and the registration would notify nobody while
// the client caches the old value forever.
//
//joinopt:hotpath
func (s *Server) handleGet(wc *wireConn, tb *serverTable, req *Request) *Response {
	s.Gets.Add(int64(len(req.Keys)))
	resp := getResponse()
	resp.ID = req.ID
	tb.cmu.Lock()
	for _, k := range req.Keys {
		// Track the cacher for invalidation notifications. k is interned
		// by the conn's read path, so retaining it as a map key does not
		// pin the request frame.
		set := tb.cachers[k]
		if set == nil {
			set = make(map[*wireConn]struct{}) //lint:allow hotpath first cacher of a key only; steady-state gets find the set present
			tb.cachers[k] = set
		}
		set[wc] = struct{}{}
	}
	tb.cmu.Unlock()
	for _, k := range req.Keys {
		v, ver, _ := tb.store.Get(k)
		resp.Values = append(resp.Values, v)
		resp.Computed = append(resp.Computed, false)
		resp.Metas = append(resp.Metas, Meta{
			ValueSize: int64(len(v)),
			Version:   ver,
		})
	}
	return resp
}

// sliceN resizes a pooled slice to n zeroed elements, reusing its capacity.
func sliceN[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

//joinopt:hotpath
func (s *Server) handleExec(wc *wireConn, tb *serverTable, req *Request) *Response {
	b := len(req.Keys)
	s.Execs.Add(int64(b))
	udf, ok := s.reg.Lookup(tb.udf)
	if !ok {
		return errResponse(req.ID, CodeServer, "unregistered UDF "+tb.udf) //lint:allow hotpath misconfigured-table error path
	}

	// Section 5: decide how many of the b requests to compute here.
	d := b
	if s.balanced {
		d = s.balance(req.Stats, b)
	}
	s.Bounced.Add(int64(b - d))
	atomic.AddInt64(&s.pendingTotal, int64(b))
	atomic.AddInt64(&s.pendingExec, int64(d))
	defer atomic.AddInt64(&s.pendingTotal, -int64(b))

	resp := getResponse()
	resp.ID = req.ID
	resp.Values = sliceN(resp.Values, b)
	resp.Computed = sliceN(resp.Computed, b)
	resp.Metas = sliceN(resp.Metas, b)
	for i, k := range req.Keys {
		v, ver, _ := tb.store.Get(k)
		resp.Metas[i] = Meta{ValueSize: int64(len(v)), Version: ver}
		// Stage the raw value; workers overwrite it with the UDF output
		// for the d computed slots. Past d it stays as-is: bounced back
		// for the caller to compute (it pays the fetch, not the UDF).
		resp.Values[i] = v
	}

	// Run the d UDFs on at most NumCPU worker goroutines pulling indices
	// from a shared counter — not one goroutine per key, which costs a
	// closure allocation and a scheduler handoff per op just to queue on
	// the same execWorkers slots. A single-worker batch runs inline on the
	// handler goroutine.
	if workers := min(d, cap(s.execWorkers)); workers <= 1 {
		for i := 0; i < d; i++ {
			s.execOne(wc, req, resp, udf, i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			//joinopt:xfer workers borrow req/resp synchronously; wg.Wait precedes any recycle
			go func() { //lint:allow hotpath one closure per worker, amortized over the exec batch
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= d {
						return
					}
					s.execOne(wc, req, resp, udf, i)
				}
			}()
		}
		wg.Wait()
	}
	for i := range resp.Metas {
		if !resp.Computed[i] {
			resp.Metas[i].ComputeCost = s.avgUDF()
		}
	}
	return resp
}

// execOne runs one committed UDF under an execWorkers slot and records its
// measured cost; resp.Values[i] holds the raw row value on entry and the
// UDF output on exit. A slot whose cancel frame arrived before dispatch is
// skipped: the raw value stays staged with Computed=false (the client has
// already rejected the op and ignores the slot), and the skip is counted in
// ExecCanceled.
//
//joinopt:hotpath
func (s *Server) execOne(wc *wireConn, req *Request, resp *Response, udf UDF, i int) {
	if wc != nil && wc.slotCanceled(req.ID, i) {
		atomic.AddInt64(&s.pendingExec, -1)
		s.ExecCanceled.Add(1)
		return
	}
	s.execWorkers <- struct{}{}
	start := time.Now()
	out := udf(req.Keys[i], param(req.Params, i), resp.Values[i])
	dur := time.Since(start).Seconds()
	<-s.execWorkers
	atomic.AddInt64(&s.pendingExec, -1)
	s.observeUDF(dur)
	resp.Values[i] = out
	resp.Computed[i] = true
	resp.Metas[i].ComputedSize = int64(len(out))
	resp.Metas[i].ComputeCost = dur
}

func param(params [][]byte, i int) []byte {
	if i < len(params) {
		return params[i]
	}
	return nil
}

func (s *Server) observeUDF(d float64) {
	old := s.avgUDF()
	s.avgUDFSeconds.Store(math.Float64bits(0.25*d + 0.75*old))
}

func (s *Server) avgUDF() float64 {
	return math.Float64frombits(s.avgUDFSeconds.Load())
}

// balance runs the Appendix C minimization with live statistics.
func (s *Server) balance(cs loadbalance.ComputeStats, b int) int {
	tcd := s.avgUDF()
	if cs.TCC <= 0 {
		cs.TCC = tcd
	}
	if cs.NetBw <= 0 {
		cs.NetBw = 1e9
	}
	ds := loadbalance.DataStats{
		PendingComputeReqs: int(atomic.LoadInt64(&s.pendingTotal)),
		ComputedAtData:     int(atomic.LoadInt64(&s.pendingExec)),
		TCD:                tcd,
		NetBw:              1e9,
	}
	sz := loadbalance.Sizes{SK: 16, SP: 256, SV: 1024, SCV: 256}
	p := loadbalance.Build(cs, ds, sz, b)
	d, _ := p.SolveExact()
	return d
}

// handlePut applies a write batch through the storage engine and
// acknowledges it only once the engine has flushed — group commit: one
// durability barrier per batch, not per row. The engine copies each value
// out of the request frame (rows outlive the request; decoded params alias
// the frame).
//
// The cacher registry is mutated only AFTER the flush barrier succeeds.
// An earlier version deleted tb.cachers[k] and collected the notify conns
// inside the put loop; a mid-batch storage error or a Flush failure then
// returned errResponse without ever sending them, so the deregistered
// cachers kept their stale values with no invalidation ever arriving. With
// the mutation after the barrier, a failed batch leaves every registration
// intact: the next acknowledged write of the key still notifies them.
//
// Failed-put visibility contract (see storage.Table.Put): rows written
// before the failure point are already visible in the engine's memtable and
// are NOT rolled back — a batch that fails at the barrier may still be
// (partially) readable, and a transiently failed flush may even make it
// durable. The client is told "unacknowledged", which means maybe-committed,
// never "rolled back". TestFaultFailedPutStillVisible pins this.
//
//joinopt:hotpath
func (s *Server) handlePut(from *wireConn, tb *serverTable, req *Request) *Response {
	s.Puts.Add(int64(len(req.Keys)))
	// Migration guard (migrate.go), armed only while a region of this node
	// is mid-handoff: a batch touching a fenced region bounces retryable
	// before any row is written, and a batch touching a dual-written region
	// registers for forwarding so the fence can drain it.
	var fwds []*regionForward
	if s.migActive.Load() != 0 {
		var bounce *Response
		if fwds, bounce = s.putMigrCheck(req); bounce != nil {
			return bounce
		}
	}
	resp := getResponse()
	resp.ID = req.ID
	for i, k := range req.Keys {
		ver, err := tb.store.Put(k, param(req.Params, i))
		if err != nil {
			// The row may be visible in memory but its durability is not
			// guaranteed; never acknowledge it. Preceding rows of the
			// batch are in the same position — the whole batch fails, and
			// OpPut is never retried by the executor (not idempotent).
			putResponse(resp)
			s.releaseForwards(fwds)
			return errResponse(req.ID, CodeServer, "storage: "+err.Error()) //lint:allow hotpath failed-put path; the concat prices the failure
		}
		resp.Metas = append(resp.Metas, Meta{Version: ver})
	}
	// The acknowledgment barrier: every row above is durable (to the
	// engine's configured level) once Flush returns. The in-memory engine
	// answers instantly.
	if err := s.engine.Flush(); err != nil {
		putResponse(resp)
		s.releaseForwards(fwds)
		return errResponse(req.ID, CodeServer, "storage flush: "+err.Error()) //lint:allow hotpath failed-flush path; the concat prices the failure
	}
	// Dual-write forwarding, synchronous past the barrier: only
	// acknowledged rows ride the migration stream, and the registration is
	// released only once the forward lands (or fails dirty).
	if fwds != nil {
		s.forwardPuts(req, resp.Metas, fwds)
	}
	// Tracked-cacher invalidation (Section 4.2.3): notify only the
	// compute nodes that actually cached the key — and only now, past the
	// barrier, so a failed batch deregisters nobody.
	s.notifyCachers(from, tb, req.Table, req.Keys, resp.Metas, nil)
	return resp
}

// notifyCachers deregisters and notifies the tracked cachers of the given
// keys, carrying each key's new version from the parallel metas slice.
// applied, when non-nil, masks the keys to the ones whose write actually
// took effect (replicated set-if-newer writes can be stale no-ops; their
// cachers were already notified by the newer write). Callers invoke this
// only after a successful flush barrier: the registry must never shrink
// for a write that was not acknowledged.
func (s *Server) notifyCachers(from *wireConn, tb *serverTable, table string,
	keys []string, metas []Meta, applied []bool) {
	type notify struct {
		conns []*wireConn
		n     Notification
	}
	var notifies []notify
	tb.cmu.Lock()
	for i, k := range keys {
		if applied != nil && !applied[i] {
			continue
		}
		set := tb.cachers[k]
		if len(set) == 0 {
			continue
		}
		conns := make([]*wireConn, 0, len(set))
		for c := range set {
			if c != from {
				conns = append(conns, c)
			}
		}
		if len(conns) > 0 {
			notifies = append(notifies, notify{conns, Notification{
				Table: table, Key: k, Version: metas[i].Version,
			}})
		}
		delete(tb.cachers, k)
	}
	tb.cmu.Unlock()
	for _, n := range notifies {
		for _, c := range n.conns {
			c.writeNotification(&n.n)
		}
	}
}
