package live

import (
	"fmt"
	"maps"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

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
	// statically configured client stamps. migActive counts regions this node is
	// currently copying away; commit consults the migration state only
	// while it is nonzero, and then writes its rows holding putGate shared,
	// which fenceRegion takes exclusively to wait out the batches already
	// past the fence check; ungatedPuts counts the put batches writing
	// without it, which beginMigration waits out. migMu guards migs.
	routeState  atomic.Uint64
	migActive   atomic.Int64
	ungatedPuts atomic.Int64
	putGate     sync.RWMutex
	migMu       sync.Mutex
	migs        map[string]*tableMigr

	// UDF execution (execute.go): the one limiter, the load the Appendix C
	// balancer reads, and the service-cost EWMAs (see ewma for who reads which).
	udfSlots     chan struct{} // ExecWorkers slots; built by startAdmission
	pendingExec  atomic.Int64  // committed UDFs not yet finished (rd_j)
	pendingTotal atomic.Int64  // exec requests in the building (nrd_j)
	udfCost      ewma
	classSvc     [numClasses]ewma

	// Admission control (admission.go): bounded per-class run
	// queues drained by fixed dispatcher pools.
	admCfg     AdmissionConfig
	admOnce    sync.Once
	admStarted atomic.Bool
	admission  [numClasses]*runQueue
	admWorkers [numClasses]int

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
	udf     string
	store   storage.Table // the engine's handle: rows and versions live here
	cachers cachers       // who fetched which key through a caching OpGet (notify.go)
}

// table looks a served table up by name; nil if the node does not serve it.
func (s *Server) table(name string) *serverTable {
	s.mu.RLock()
	tb := s.tables[name]
	s.mu.RUnlock()
	return tb
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
	}
	s.udfCost.set(coldServiceSeconds)
	for cl := range s.classSvc {
		s.classSvc[cl].set(coldServiceSeconds)
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
	s.tables[spec.Name] = &serverTable{udf: spec.UDF, store: st}
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
		// A dead conn caches nothing: drop its registrations, or each
		// reconnect leaks the conn and its buffers until a later put of every
		// key it fetched. gone goes first, so a fetch admitted before the
		// disconnect cannot register after the sweep.
		wc.gone.Store(true)
		s.mu.RLock()
		for _, tb := range s.tables {
			tb.cachers.dropConn(wc)
		}
		s.mu.RUnlock()
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
