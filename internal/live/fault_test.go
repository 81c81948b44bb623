package live

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/core"
	"joinopt/internal/membership"
	"joinopt/internal/store"
)

// --- Fault-injection proxy ---------------------------------------------------

// faultProxy is a byte-level TCP proxy between a client and one store node.
// It can blackhole server-to-client traffic (requests arrive, responses
// vanish — the timeout case), cut every connection after forwarding a set
// number of response bytes (a mid-frame truncation — the dirtiest transport
// failure), or simply kill all connections. New connections always pass
// through, so a redialing pool heals through the proxy.
type faultProxy struct {
	t       *testing.T
	ln      net.Listener
	backend string

	dropResponses atomic.Bool  // discard server->client bytes
	cutAfter      atomic.Int64 // >0: forward this many more response bytes, then cut mid-stream

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

func newFaultProxy(t *testing.T, backend string) *faultProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listen: %v", err)
	}
	p := &faultProxy{t: t, ln: ln, backend: backend, conns: make(map[net.Conn]struct{})}
	go p.acceptLoop()
	t.Cleanup(p.Close)
	return p
}

func (p *faultProxy) addr() string { return p.ln.Addr().String() }

func (p *faultProxy) acceptLoop() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		b, err := net.Dial("tcp", p.backend)
		if err != nil {
			c.Close()
			continue
		}
		p.track(c)
		p.track(b)
		go p.pipe(b, c, false) // client -> server: always clean
		go p.pipe(c, b, true)  // server -> client: fault-injected
	}
}

func (p *faultProxy) track(c net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		c.Close()
		return
	}
	p.conns[c] = struct{}{}
}

func (p *faultProxy) untrack(c net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.conns, c)
}

func (p *faultProxy) pipe(dst, src net.Conn, inject bool) {
	defer func() {
		dst.Close()
		src.Close()
		p.untrack(dst)
		p.untrack(src)
	}()
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			out := buf[:n]
			if inject {
				if p.dropResponses.Load() {
					continue // blackhole: eat the bytes
				}
				if rem := p.cutAfter.Load(); rem > 0 {
					if int64(n) >= rem {
						// Forward a prefix, then cut every connection:
						// the client is left holding a truncated frame.
						p.cutAfter.Store(0)
						dst.Write(out[:rem])
						p.killAll()
						return
					}
					p.cutAfter.Add(-int64(n))
				}
			}
			if _, werr := dst.Write(out); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// killAll cuts every live proxied connection (both directions).
func (p *faultProxy) killAll() {
	p.mu.Lock()
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (p *faultProxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.ln.Close()
	p.killAll()
}

// --- Scripted fake store node ------------------------------------------------

// fakeNode is a store node replaced by a script: every request is answered
// by the current handler. It exists to return wrong or hostile responses a
// real Server never sends (short batches, synthetic error codes).
type fakeNode struct {
	ln net.Listener

	mu      sync.Mutex
	handler func(Request) *Response
}

func newFakeNode(t *testing.T, handler func(Request) *Response) *fakeNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("fake node listen: %v", err)
	}
	f := &fakeNode{ln: ln, handler: handler}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go f.serveConn(c)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return f
}

func (f *fakeNode) addr() string { return f.ln.Addr().String() }

func (f *fakeNode) setHandler(h func(Request) *Response) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.handler = h
}

func (f *fakeNode) serveConn(c net.Conn) {
	wc := newWireConn(c)
	defer wc.Close()
	for {
		req := getRequest()
		cn, err := wc.readRequest(req)
		if err != nil {
			putRequest(req)
			return
		}
		if cn != nil {
			putRequest(req) // scripted node: cancels are ignored
			continue
		}
		f.mu.Lock()
		h := f.handler
		f.mu.Unlock()
		resp := h(*req)
		resp.ID = req.ID
		err = wc.writeResponse(resp)
		putRequest(req)
		if err != nil {
			return
		}
	}
}

// --- Helpers -----------------------------------------------------------------

// singleNodeExec builds an executor against one address holding every key
// of table "t".
func singleNodeExec(t *testing.T, addr string, tweak func(*ExecConfig)) *Executor {
	t.Helper()
	reg := NewRegistry()
	reg.Register("join", func(key string, params, value []byte) []byte {
		out := append([]byte{}, value...)
		out = append(out, '/')
		return append(out, params...)
	})
	catalog := store.CatalogFunc(func(string) store.RowMeta {
		return store.RowMeta{ValueSize: 32}
	})
	table := store.NewTable("t", catalog, 2, []cluster.NodeID{0})
	cfg := ExecConfig{
		Tables:    map[string]*store.Table{"t": table},
		Addrs:     map[cluster.NodeID]string{0: addr},
		Registry:  reg,
		TableUDF:  map[string]string{"t": "join"},
		Optimizer: core.Config{Policy: core.Policy{Caching: true}, MemCacheBytes: 1 << 20},
		BatchWait: time.Millisecond,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	e, err := NewExecutor(cfg)
	if err != nil {
		t.Fatalf("executor: %v", err)
	}
	t.Cleanup(e.Close)
	return e
}

// errWaitHung marks a Wait that never resolved — the one outcome the
// failure model must make impossible.
var errWaitHung = errors.New("test: Wait hung")

// waitOrHang resolves a future with a hang detector. On a hang it reports
// via Errorf (safe from any goroutine, unlike Fatalf) and returns
// errWaitHung, which no errors.As(*Error) check accepts, so every caller
// fails loudly too.
func waitOrHang(t *testing.T, f *Future, deadline time.Duration) ([]byte, error) {
	t.Helper()
	type res struct {
		v   []byte
		err error
	}
	ch := make(chan res, 1)
	go func() {
		v, err := f.WaitErr()
		ch <- res{v, err}
	}()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-time.After(deadline):
		t.Errorf("Wait hung for %v: a failure resolved no future", deadline)
		return nil, errWaitHung
	}
}

// invariantSum asserts the extended counter accounting: every submitted op
// resolved through exactly one of the seven outcomes.
func invariantSum(t *testing.T, e *Executor, ops int64) {
	t.Helper()
	local := e.LocalHits.Load()
	computed := e.RemoteComputed.Load()
	raw := e.RemoteRaw.Load()
	fetchServed := e.FetchServed.Load()
	failed := e.Failed.Load()
	canceled := e.Canceled.Load()
	shed := e.Shed.Load()
	if sum := local + computed + raw + fetchServed + failed + canceled + shed; sum != ops {
		t.Fatalf("counter accounting: LocalHits(%d)+RemoteComputed(%d)+RemoteRaw(%d)+FetchServed(%d)+Failed(%d)+Canceled(%d)+Shed(%d) = %d, want %d ops",
			local, computed, raw, fetchServed, failed, canceled, shed, sum, ops)
	}
}

// --- The tentpole: kill and restart a store node mid-run --------------------

// TestFaultNodeKillRestartRecovery is the acceptance test of the failure
// model: a store node dies under concurrent load and later comes back on
// the same address. It asserts every submission resolves (no hung Wait)
// with either a correct value or a typed error, the extended counter
// invariant holds with Failed equal to the errors the callers actually
// observed, the pool redials the restarted node, and post-restart traffic
// runs clean again.
func TestFaultNodeKillRestartRecovery(t *testing.T) {
	const (
		keys       = 80 // first half served pre-kill (cacheable), second half only during the outage
		submitters = 8
	)
	reg := NewRegistry()
	reg.Register("join", func(key string, params, value []byte) []byte {
		out := append([]byte{}, value...)
		out = append(out, '/')
		return append(out, params...)
	})
	rows := make(map[string][]byte, keys)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%d", i)
		rows[k] = []byte("v-" + k)
	}
	newNode := func() *Server {
		s := NewServer(reg, true)
		s.AddTable(TableSpec{Name: "t", UDF: "join", Rows: rows})
		return s
	}
	srv := newNode()
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}

	e := singleNodeExec(t, addr, func(cfg *ExecConfig) {
		cfg.Shards = 4
		cfg.Workers = 16
		cfg.ConnsPerNode = 2
		cfg.MaxRetries = 2
		cfg.RequestTimeout = 500 * time.Millisecond
	})

	var (
		submitted atomic.Int64
		errSeen   atomic.Int64
	)
	runPhase := func(name string, opsPer int, keyBase, keySpan int, wantClean bool) {
		t.Helper()
		var wg sync.WaitGroup
		for c := 0; c < submitters; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(1000*opsPer + c)))
				for i := 0; i < opsPer; i++ {
					k := fmt.Sprintf("k%d", keyBase+rng.Intn(keySpan))
					p := []byte(fmt.Sprintf("%s-%d-%d", name, c, i))
					submitted.Add(1)
					got, err := waitOrHang(t, e.Table("t").Submit(context.Background(), k, p), 30*time.Second)
					if err != nil {
						errSeen.Add(1)
						var le *Error
						if !errors.As(err, &le) {
							t.Errorf("%s: untyped error %v", name, err)
						} else if le.Code != CodeTransport && le.Code != CodeTimeout {
							t.Errorf("%s: unexpected error code %v (%v)", name, le.Code, le)
						}
						if wantClean {
							t.Errorf("%s: unexpected failure: %v", name, err)
						}
						continue
					}
					want := []byte("v-" + k + "/" + string(p))
					if !bytes.Equal(got, want) {
						t.Errorf("%s: result %q, want %q", name, got, want)
					}
				}
			}(c)
		}
		wg.Wait()
	}

	// Phase A: healthy baseline over the first half of the keyspace —
	// every op succeeds (and hot keys get cached).
	runPhase("baseline", 150, 0, keys/2, true)

	// Phase B: kill the node mid-load and hit the WHOLE keyspace. Every op
	// must still resolve: cached keys may succeed locally until the
	// disconnect sweep drops them (their invalidation subscriptions died
	// with the conns), after which all ops fail with a typed
	// transport/timeout error — never a hang, never a fake missing-key
	// nil.
	srv.Close()
	runPhase("outage", 75, 0, keys, false)
	if errSeen.Load() == 0 {
		t.Fatal("outage phase produced no errors; the node kill did not bite")
	}

	// Phase C: restart on the same address and wait for the pool to heal.
	restarted := newNode()
	var raddr string
	for attempt := 0; ; attempt++ {
		raddr, err = restarted.Serve(addr)
		if err == nil {
			break
		}
		if attempt > 100 {
			t.Fatalf("restart on %s: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if raddr != addr {
		t.Fatalf("restarted node bound %s, want %s", raddr, addr)
	}
	t.Cleanup(restarted.Close)
	healDeadline := time.Now().Add(10 * time.Second)
	for {
		h := e.PoolHealth()[0]
		if h.Healthy == h.Size {
			if h.Disconnects == 0 || h.Redials == 0 {
				t.Fatalf("pool healed without counting it: %+v", h)
			}
			break
		}
		if time.Now().After(healDeadline) {
			t.Fatalf("pool never healed after restart: %+v", h)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Phase D: recovered — traffic over the whole keyspace runs clean
	// again at full throughput.
	start := time.Now()
	runPhase("recovered", 150, 0, keys, true)
	t.Logf("recovered phase: %d ops in %v (%.0f ops/sec), pool health %+v",
		submitters*150, time.Since(start),
		float64(submitters*150)/time.Since(start).Seconds(), e.PoolHealth()[0])

	invariantSum(t, e, submitted.Load())
	if failed := e.Failed.Load(); failed != errSeen.Load() {
		t.Fatalf("Failed counter %d, but callers observed %d errors", failed, errSeen.Load())
	}
}

// --- Proxy faults ------------------------------------------------------------

// TestFaultMidFrameCutIsRetried cuts the client's only connection mid-frame
// while a run is in flight: the decoder hits a truncated frame, the conn
// dies, in-flight batches fail with a transport error, and the executor's
// retries — against the pool's redialed connection — keep every caller from
// ever seeing the failure.
func TestFaultMidFrameCutIsRetried(t *testing.T) {
	reg := NewRegistry()
	reg.Register("join", upperUDF)
	rows := make(map[string][]byte)
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("k%d", i)
		rows[k] = []byte("v-" + k)
	}
	srv := NewServer(reg, false)
	srv.AddTable(TableSpec{Name: "t", UDF: "join", Rows: rows})
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(srv.Close)

	proxy := newFaultProxy(t, addr)
	e := singleNodeExec(t, proxy.addr(), func(cfg *ExecConfig) {
		cfg.Optimizer = core.Config{Policy: core.Policy{AlwaysCompute: true}}
		cfg.ConnsPerNode = 1 // the cut must hit the only conn
		cfg.MaxRetries = 5
		cfg.RequestTimeout = 2 * time.Second
	})

	// Cut the stream after ~the first third of the expected response bytes.
	proxy.cutAfter.Store(20_000)

	const ops = 2000
	var failures int64
	for done := 0; done < ops; {
		n := min(64, ops-done)
		futs := make([]*Future, n)
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("k%d", (done+i)%64)
			futs[i] = e.Table("t").Submit(context.Background(), k, []byte("p"))
		}
		for _, f := range futs {
			if _, err := waitOrHang(t, f, 30*time.Second); err != nil {
				failures++
				t.Errorf("op failed despite retries: %v", err)
			}
		}
		done += n
	}
	h := e.PoolHealth()[0]
	if h.Disconnects == 0 {
		t.Fatalf("the cut never landed (health %+v); test exercised nothing", h)
	}
	if h.Redials == 0 {
		t.Fatalf("pool never redialed after the cut: %+v", h)
	}
	invariantSum(t, e, ops)
	t.Logf("mid-frame cut: %d ops, %d failures, health %+v, retries %d",
		ops, failures, h, e.Retries.Load())
}

// TestFaultBlackholeTimesOutThenRecovers eats every response while the
// connection stays up: requests can only fail by deadline, and each failure
// must carry CodeTimeout. Cutting the stale connections afterwards lets the
// pool heal and traffic resume.
func TestFaultBlackholeTimesOutThenRecovers(t *testing.T) {
	reg := NewRegistry()
	reg.Register("join", upperUDF)
	srv := NewServer(reg, false)
	srv.AddTable(TableSpec{Name: "t", UDF: "join",
		Rows: map[string][]byte{"k0": []byte("v0"), "k1": []byte("v1")}})
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(srv.Close)

	proxy := newFaultProxy(t, addr)
	e := singleNodeExec(t, proxy.addr(), func(cfg *ExecConfig) {
		cfg.Optimizer = core.Config{Policy: core.Policy{AlwaysCompute: true}}
		cfg.ConnsPerNode = 1
		cfg.RequestTimeout = 150 * time.Millisecond
	})

	// Warm round trip proves the path works.
	if _, err := waitOrHang(t, e.Table("t").Submit(context.Background(), "k0", []byte("w")), 10*time.Second); err != nil {
		t.Fatalf("warm-up: %v", err)
	}

	proxy.dropResponses.Store(true)
	for i := 0; i < 3; i++ {
		_, err := waitOrHang(t, e.Table("t").Submit(context.Background(), "k1", []byte("p")), 10*time.Second)
		var le *Error
		if !errors.As(err, &le) || le.Code != CodeTimeout {
			t.Fatalf("blackholed op %d: error %v, want CodeTimeout", i, err)
		}
	}

	// Heal: stop eating bytes and cut the desynced connections so the pool
	// redials a clean stream.
	proxy.dropResponses.Store(false)
	proxy.killAll()
	deadline := time.Now().Add(10 * time.Second)
	for e.PoolHealth()[0].Healthy == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pool never healed: %+v", e.PoolHealth()[0])
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := waitOrHang(t, e.Table("t").Submit(context.Background(), "k0", []byte("after")), 10*time.Second); err != nil {
		t.Fatalf("post-recovery op failed: %v", err)
	}
}

// TestFaultRedialDropsStaleCache pins the subscription-loss contract: the
// server tracks invalidation subscriptions per connection, so a cached key
// updated while the client's conn was down would be served stale — with a
// nil error — forever. A disconnect must therefore drop the dead node's
// cached entries, and the healed client must refetch the new value.
func TestFaultRedialDropsStaleCache(t *testing.T) {
	reg := NewRegistry()
	reg.Register("join", upperUDF)
	newNode := func(v string) *Server {
		s := NewServer(reg, false)
		s.AddTable(TableSpec{Name: "t", UDF: "join",
			Rows: map[string][]byte{"k0": []byte(v)}})
		return s
	}
	srv := newNode("old")
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}

	e := singleNodeExec(t, addr, func(cfg *ExecConfig) {
		cfg.Shards = 1
		cfg.ConnsPerNode = 1
		cfg.MaxRetries = 2
		cfg.RequestTimeout = time.Second
	})

	// Hammer the key until the ski-rental policy buys it into the cache.
	cached := func() bool {
		sh, opt := e.Table("t").shard("k0")
		sh.mu.Lock()
		defer sh.mu.Unlock()
		_, _, ok := opt.Cache.Lookup("k0")
		return ok
	}
	for i := 0; i < 1000 && !cached(); i++ {
		if _, err := e.Table("t").Submit(context.Background(), "k0", []byte("p")).WaitErr(); err != nil {
			t.Fatalf("warm-up op %d: %v", i, err)
		}
	}
	if !cached() {
		t.Skip("key never cached under this timing; nothing to go stale")
	}

	// Kill the node (subscription conn dies with it), bring it back on the
	// same address with a NEW value for the key.
	srv.Close()
	deadline := time.Now().Add(10 * time.Second)
	for e.PoolHealth()[0].Disconnects == 0 {
		if time.Now().After(deadline) {
			t.Fatal("disconnect never observed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	restarted := newNode("new")
	for attempt := 0; ; attempt++ {
		if _, err := restarted.Serve(addr); err == nil {
			break
		} else if attempt > 100 {
			t.Fatalf("restart: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Cleanup(restarted.Close)
	healDeadline := time.Now().Add(10 * time.Second)
	for e.PoolHealth()[0].Healthy == 0 {
		if time.Now().After(healDeadline) {
			t.Fatalf("pool never healed: %+v", e.PoolHealth()[0])
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The stale cached "old" must be gone: the healed client refetches.
	got, err := waitOrHang(t, e.Table("t").Submit(context.Background(), "k0", []byte("q")), 10*time.Second)
	if err != nil {
		t.Fatalf("post-heal op: %v", err)
	}
	if !bytes.Equal(got, []byte("new/q")) {
		t.Fatalf("post-heal result %q, want %q (stale cache served)", got, "new/q")
	}
}

// --- Malformed responses -----------------------------------------------------

// TestFaultMalformedShortResponseFailsBatch replaces the store node with a
// script that answers a two-key batch with one value: the executor used to
// index past the short slices and panic; it must instead fail the whole
// batch with a typed CodeServer error and leave the optimizer untouched.
func TestFaultMalformedShortResponseFailsBatch(t *testing.T) {
	fake := newFakeNode(t, func(req Request) *Response {
		return &Response{ // one entry, whatever the batch size
			Values:   [][]byte{[]byte("x")},
			Computed: []bool{true},
			Metas:    []Meta{{ValueSize: 1, Version: 1}},
		}
	})
	e := singleNodeExec(t, fake.addr(), func(cfg *ExecConfig) {
		cfg.Optimizer = core.Config{Policy: core.Policy{AlwaysCompute: true}}
		cfg.Shards = 1
		cfg.BatchSize = 2
		cfg.BatchWait = time.Hour // only the size trigger flushes
	})

	f1 := e.Table("t").Submit(context.Background(), "k0", []byte("p0"))
	f2 := e.Table("t").Submit(context.Background(), "k1", []byte("p1"))
	for i, f := range []*Future{f1, f2} {
		_, err := waitOrHang(t, f, 10*time.Second)
		var le *Error
		if !errors.As(err, &le) || le.Code != CodeServer {
			t.Fatalf("future %d: error %v, want CodeServer (malformed)", i, err)
		}
	}
	if failed := e.Failed.Load(); failed != 2 {
		t.Fatalf("Failed = %d, want 2", failed)
	}
	// No phantom optimizer feedback from the garbage reply.
	if n := e.RemoteComputed.Load() + e.RemoteRaw.Load() + e.FetchServed.Load(); n != 0 {
		t.Fatalf("malformed response leaked %d successful resolutions", n)
	}
}

// --- Waiter pile-on failure path --------------------------------------------

// TestFaultWaiterPileOnFailure pins the deduped-fetch failure contract:
// when the one in-flight OpGet for a key fails, every piled-on waiter
// observes the typed error (not a fake "missing key" nil), the inflight
// record is cleared so the NEXT fetch re-issues, and a re-issued fetch
// against a healthy node succeeds.
func TestFaultWaiterPileOnFailure(t *testing.T) {
	fake := newFakeNode(t, func(req Request) *Response {
		return &Response{Code: CodeServer, Err: "synthetic store failure"}
	})
	e := singleNodeExec(t, fake.addr(), func(cfg *ExecConfig) {
		cfg.Shards = 1
		cfg.BatchSize = 1 // flush on enqueue
		cfg.BatchWait = time.Hour
	})

	pileOn := func() (*waiter, *waiter) {
		w2 := &waiter{params: []byte("p2"), fut: newFuture()}
		w1 := &waiter{params: []byte("p1"), fut: newFuture(), ik: fetchKey{t: e.Table("t"), key: "k0"}, followers: []*waiter{w2}}
		sh, _ := e.Table("t").shard("k0")
		sh.mu.Lock()
		sh.inflight[w1.ik] = w1
		full := e.enqueue(liveBatchKey{t: e.Table("t"), node: 0, op: OpGet}, liveEntry{key: "k0", w: w1})
		sh.mu.Unlock()
		e.ship(full) // BatchSize 1: the enqueue filled the batch
		return w1, w2
	}

	w1, w2 := pileOn()
	for i, w := range []*waiter{w1, w2} {
		_, err := waitOrHang(t, w.fut, 10*time.Second)
		var le *Error
		if !errors.As(err, &le) || le.Code != CodeServer {
			t.Fatalf("waiter %d: error %v, want the fetch's CodeServer error", i, err)
		}
	}
	if failed := e.Failed.Load(); failed != 2 {
		t.Fatalf("Failed = %d, want 2 (both piled-on waiters)", failed)
	}
	sh, _ := e.Table("t").shard("k0")
	sh.mu.Lock()
	stale := len(sh.inflight)
	sh.mu.Unlock()
	if stale != 0 {
		t.Fatalf("%d stale inflight record(s) survive the failed fetch", stale)
	}

	// The node recovers; a re-issued fetch must go out (no stale dedup
	// state swallows it) and resolve every new waiter with the value.
	fake.setHandler(func(req Request) *Response {
		resp := &Response{}
		for range req.Keys {
			resp.Values = append(resp.Values, []byte("fresh"))
			resp.Computed = append(resp.Computed, false)
			resp.Metas = append(resp.Metas, Meta{ValueSize: 5, Version: 2})
		}
		return resp
	})
	w1, w2 = pileOn()
	for i, w := range []*waiter{w1, w2} {
		got, err := waitOrHang(t, w.fut, 10*time.Second)
		if err != nil {
			t.Fatalf("recovered waiter %d: %v", i, err)
		}
		want := []byte("fresh/p" + fmt.Sprint(i+1))
		if !bytes.Equal(got, want) {
			t.Fatalf("recovered waiter %d: %q, want %q", i, got, want)
		}
	}
}

// --- Shutdown ----------------------------------------------------------------

// TestFaultCloseDrainsPendingBatches pins the Close contract: batches still
// sitting in their accumulators (their timers parked an hour out) are
// failed with CodeClosed — not leaked, not flushed into closed conns — and
// a Submit after Close fails immediately instead of hanging.
func TestFaultCloseDrainsPendingBatches(t *testing.T) {
	reg := NewRegistry()
	reg.Register("join", upperUDF)
	srv := NewServer(reg, false)
	srv.AddTable(TableSpec{Name: "t", UDF: "join",
		Rows: map[string][]byte{"k0": []byte("v0")}})
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(srv.Close)

	e := singleNodeExec(t, addr, func(cfg *ExecConfig) {
		cfg.Optimizer = core.Config{Policy: core.Policy{AlwaysCompute: true}}
		cfg.BatchWait = time.Hour // nothing flushes on its own
		cfg.BatchSize = 1 << 20
	})

	var futs []*Future
	for i := 0; i < 10; i++ {
		futs = append(futs, e.Table("t").Submit(context.Background(), "k0", []byte(fmt.Sprintf("p%d", i))))
	}
	e.Close()
	for i, f := range futs {
		_, err := waitOrHang(t, f, 10*time.Second)
		var le *Error
		if !errors.As(err, &le) || le.Code != CodeClosed {
			t.Fatalf("pending future %d after Close: error %v, want CodeClosed", i, err)
		}
	}
	_, err = waitOrHang(t, e.Table("t").Submit(context.Background(), "k0", []byte("late")), 10*time.Second)
	var le *Error
	if !errors.As(err, &le) || le.Code != CodeClosed {
		t.Fatalf("Submit after Close: error %v, want CodeClosed", err)
	}
	invariantSum(t, e, 11)
}

// shortenRequestTimeout lowers the default request timeout — the whole
// bound of Conn.Call and Pool.Call — to d for the rest of the test.
func shortenRequestTimeout(t *testing.T, d time.Duration) {
	old := defaultRequestTimeout.Swap(int64(d))
	t.Cleanup(func() { defaultRequestTimeout.Store(old) })
}

// TestFaultCatchUpBlackholedPeerTimesOut: a rejoining node's catch-up
// against a peer that accepts requests but never answers fails within the
// request timeout with a CodeTimeout naming the peer, instead of waiting
// forever on the first scan page.
func TestFaultCatchUpBlackholedPeerTimesOut(t *testing.T) {
	const bound = 200 * time.Millisecond
	shortenRequestTimeout(t, bound)
	reg := NewRegistry()
	_, _, srcAddr := faultServer(t, reg, map[string][]byte{"a": []byte("1")})
	proxy := newFaultProxy(t, srcAddr)
	proxy.dropResponses.Store(true)

	cold := NewServer(reg, false)
	cold.AddTable(TableSpec{Name: "t", UDF: "join"})
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := cold.CatchUp([]string{proxy.addr()})
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("catch-up from a blackholed peer hung")
	}
	if waited := time.Since(start); waited > 10*bound {
		t.Fatalf("catch-up failed after %v, want about one %v bound", waited, bound)
	}
	var le *Error
	if !errors.As(err, &le) || le.Code != CodeTimeout {
		t.Fatalf("catch-up from a blackholed peer: %v, want CodeTimeout", err)
	}
	if !containsStr(err.Error(), proxy.addr()) {
		t.Fatalf("catch-up error %q does not name the peer %s", err, proxy.addr())
	}
}

// TestFaultBlackholedMigrationCopyCostsOneBound: a migration whose copy
// link to the source is blackholed — the scan requests arrive, the pages
// never come back — fails within one request timeout and rolls back (the
// source drops the region's registration and the map is unchanged), while
// the source keeps acking puts to the migrating region well inside the
// bound: the copy is pulled by the target and never sits on the source's
// put path.
func TestFaultBlackholedMigrationCopyCostsOneBound(t *testing.T) {
	const (
		bound  = 250 * time.Millisecond
		region = 1
	)
	shortenRequestTimeout(t, bound)
	reg := NewRegistry()
	src, _, srcAddr := faultServer(t, reg, nil)
	dst, _, dstAddr := faultServer(t, reg, nil)
	proxy := newFaultProxy(t, srcAddr)
	proxy.dropResponses.Store(true)
	m := membership.NewMap()
	m.AddNode(0, proxy.addr()) // the target reaches the source only through the proxy
	m.AddNode(1, dstAddr)
	m.SetTable("t", make([]cluster.NodeID, migRegions))
	before := m.View()
	mig := &Migrator{Map: m, Servers: map[cluster.NodeID]*Server{0: src, 1: dst}}

	var moving []string
	for i := 0; len(moving) < 8; i++ {
		if k := fmt.Sprintf("k%d", i); store.RegionIndex(k, migRegions) == region {
			moving = append(moving, k)
		}
	}
	conn, err := DialNode(srcAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- mig.Migrate("t", region, 0, 1) }()
	for src.migActive.Load() == 0 {
		if time.Since(start) > 10*time.Second {
			t.Fatal("the migration never registered the region at the source")
		}
		time.Sleep(100 * time.Microsecond)
	}
	acked, slowest := 0, time.Duration(0)
	for err = nil; err == nil; {
		select {
		case err = <-done:
			continue
		default:
		}
		if time.Since(start) > 10*time.Second {
			t.Fatal("Migrate against a blackholed copy link hung")
		}
		k := moving[acked%len(moving)]
		t0 := time.Now()
		if _, perr := conn.Call(Request{Op: OpPut, Table: "t", Keys: []string{k}, Params: [][]byte{[]byte("v")}}); perr != nil {
			t.Fatalf("put to the migrating region while its copy stalls: %v", perr)
		}
		slowest = max(slowest, time.Since(t0))
		acked++
	}
	if waited := time.Since(start); waited > 4*bound {
		t.Fatalf("Migrate failed after %v, want about one %v bound", waited, bound)
	}
	var le *Error
	if !errors.As(err, &le) || le.Code != CodeTimeout {
		t.Fatalf("Migrate against a blackholed copy link: %v, want a wrapped CodeTimeout", err)
	}
	if acked == 0 || slowest > bound/4 {
		t.Fatalf("%d puts to the migrating region acked while its copy stalled, slowest %v; want some, each well inside %v",
			acked, slowest, bound)
	}
	if src.migActive.Load() != 0 || m.View() != before {
		t.Fatal("the failed migration was not rolled back: the region is still registered or the map changed")
	}
}
