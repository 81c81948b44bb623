package live

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"joinopt/internal/core"
)

// TestInvalidationOvertakingFetchReplyFencesInstall is the fetch/invalidate
// race on an unreplicated table: the node registers the cacher, a put lands,
// and its invalidation reaches the client BEFORE the fetch reply carrying the
// pre-put row. The invalidation spent the subscription, so installing the
// older value would leave it cached with nobody left to invalidate it. The
// key has no KeyInfo yet (its first contact is this fetch), so the fence has
// to come from the version the invalidation left behind.
func TestInvalidationOvertakingFetchReplyFencesInstall(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				wc := newWireConn(c)
				defer wc.Close()
				for {
					req := getRequest()
					if _, err := wc.readRequest(req); err != nil {
						putRequest(req)
						return
					}
					// The put's invalidation (version 2) first, then the reply
					// that read the row just before the put (version 1).
					wc.writeNotification(&Notification{Table: req.Table, Key: req.Keys[0], Version: 2})
					wc.writeResponse(&Response{ID: req.ID,
						Values:   [][]byte{[]byte("old")},
						Computed: []bool{false},
						Metas:    []Meta{{ValueSize: 3, Version: 1}}})
					putRequest(req)
				}
			}()
		}
	}()

	e := singleNodeExec(t, ln.Addr().String(), func(cfg *ExecConfig) {
		cfg.ConnsPerNode = 1
		cfg.BatchSize = 1
	})
	// The waiter itself may see the old value — a read racing a write.
	v, err := waitOrHang(t, e.Table("t").Submit(context.Background(), "k0", []byte("p"), WithRoute(ForceFetch)), 10*time.Second)
	if err != nil || !bytes.Equal(v, []byte("old/p")) {
		t.Fatalf("fetch: %q, %v", v, err)
	}
	sh, opt := e.Table("t").shard("k0")
	sh.mu.Lock()
	_, _, cached := opt.Cache.Lookup("k0")
	known := opt.KnownVersion("k0")
	sh.mu.Unlock()
	if cached {
		t.Fatal("the pre-put value was installed after its invalidation: stale until evicted")
	}
	if known != 2 {
		t.Fatalf("KnownVersion = %d, want the invalidation's 2", known)
	}
}

// TestPutInvalidatesOwnCache pins read-your-writes through one executor: the
// node never notifies the connection a put arrived on, and with
// ConnsPerNode 1 that is the executor's only connection — so the put path
// itself must drop the cached copy when the write is acked.
func TestPutInvalidatesOwnCache(t *testing.T) {
	reg := NewRegistry()
	reg.Register("join", upperUDF)
	srv := NewServer(reg, false)
	srv.AddTable(TableSpec{Name: "t", UDF: "join", Rows: map[string][]byte{"k0": []byte("old")}})
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(srv.Close)
	e := singleNodeExec(t, addr, func(cfg *ExecConfig) { cfg.ConnsPerNode = 1 })
	tbl, ctx := e.Table("t"), context.Background()

	if v, err := tbl.Call(ctx, "k0", []byte("p"), WithRoute(ForceFetch)); err != nil || !bytes.Equal(v, []byte("old/p")) {
		t.Fatalf("cache fill: %q, %v", v, err)
	}
	if v, err := tbl.Call(ctx, "k0", []byte("p")); err != nil || !bytes.Equal(v, []byte("old/p")) || e.LocalHits.Load() != 1 {
		t.Fatalf("read before the put: %q, %v, %d local hits; want a hit on the cached value", v, err, e.LocalHits.Load())
	}
	ver, err := tbl.Put(ctx, "k0", []byte("new"))
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if v, err := tbl.Call(ctx, "k0", []byte("p")); err != nil || !bytes.Equal(v, []byte("new/p")) {
		t.Fatalf("read after own put (acked at version %d): %q, %v; want the new value", ver, v, err)
	}
	invariantSum(t, e, 3)
}

// TestRestartedInMemoryNodeKeysCacheAgain: an unreplicated in-memory node
// that restarts counts its row versions from 0 again. The version fence must
// not hold the versions learned before the restart against it, or every key
// that was ever put could never be cached again.
func TestRestartedInMemoryNodeKeysCacheAgain(t *testing.T) {
	newNode := func(row string) *Server {
		reg := NewRegistry()
		reg.Register("join", upperUDF)
		srv := NewServer(reg, false)
		srv.AddTable(TableSpec{Name: "t", UDF: "join", Rows: map[string][]byte{"k0": []byte(row)}})
		return srv
	}
	srv := newNode("old")
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(srv.Close)
	e := singleNodeExec(t, addr, func(cfg *ExecConfig) { cfg.ConnsPerNode = 1 })
	tbl, ctx := e.Table("t"), context.Background()
	for i := 0; i < 3; i++ {
		if _, err := tbl.Put(ctx, "k0", []byte("old")); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	cached := func() bool {
		sh, opt := e.Table("t").shard("k0")
		sh.mu.Lock()
		defer sh.mu.Unlock()
		_, _, ok := opt.Cache.Lookup("k0")
		return ok
	}
	if _, err := tbl.Call(ctx, "k0", nil, WithRoute(ForceFetch)); err != nil || !cached() {
		t.Fatalf("cache fill before the restart: err %v, cached %v", err, cached())
	}

	srv.Close()
	restarted := newNode("reborn") // version 0, below the 3 the executor knows
	waitUntil(t, 10*time.Second, "the restart to bind "+addr, func() bool {
		_, err := restarted.Serve(addr)
		return err == nil
	})
	t.Cleanup(restarted.Close)
	// Fetches fail until the pool has redialed, and one that beats the
	// disconnect sweep is still fenced; the steady state must cache.
	waitUntil(t, 10*time.Second, "a fetch from the restarted node to be cached", func() bool {
		v, err := tbl.Call(ctx, "k0", []byte("p"), WithRoute(ForceFetch))
		return err == nil && bytes.Equal(v, []byte("reborn/p")) && cached()
	})
}

// TestReadAfterPutAckStartsNewFetch pins the dedup side of read-your-writes: a
// fetch of k is on the wire and held, this executor's Put(k) acks at version
// 2, and a read submitted after that ack must not pile onto the held fetch —
// it was sent before the write and answers with the value just replaced. The
// old fetch still serves the waiter it already had (a read racing a write may
// see either side) but is fenced out of the cache.
func TestReadAfterPutAckStartsNewFetch(t *testing.T) {
	var fetches atomic.Int64
	held := make(chan struct{}, 1)
	release := make(chan struct{})
	fake := newFakeNode(t, func(req Request) *Response {
		one := func(v string, version int64) *Response {
			return &Response{Values: [][]byte{[]byte(v)}, Computed: []bool{false},
				Metas: []Meta{{ValueSize: int64(len(v)), Version: version}}}
		}
		switch {
		case req.Op == OpPut:
			return &Response{Metas: []Meta{{Version: 2}}}
		case fetches.Add(1) == 1:
			held <- struct{}{}
			<-release // read the row before the put, answers after it
			return one("old", 1)
		default:
			return one("new", 2)
		}
	})
	e := singleNodeExec(t, fake.addr(), func(cfg *ExecConfig) {
		cfg.Shards = 1
		cfg.BatchSize = 1 // a fetch ships on enqueue
		cfg.BatchWait = time.Hour
	})
	tbl, ctx := e.Table("t"), context.Background()

	before := tbl.Submit(ctx, "k0", []byte("p"), WithRoute(ForceFetch))
	<-held
	if v, err := tbl.Put(ctx, "k0", []byte("new")); err != nil || v != 2 {
		t.Fatalf("put: version %d, %v", v, err)
	}
	after, err := waitOrHang(t, tbl.Submit(ctx, "k0", []byte("p"), WithRoute(ForceFetch)), 10*time.Second)
	if err != nil || !bytes.Equal(after, []byte("new/p")) {
		t.Fatalf("read submitted after the put's ack: %q, %v; want the written value", after, err)
	}
	close(release)
	if v, err := waitOrHang(t, before, 10*time.Second); err != nil || !bytes.Equal(v, []byte("old/p")) {
		t.Fatalf("read racing the put: %q, %v", v, err)
	}
	if n := fetches.Load(); n != 2 {
		t.Fatalf("%d wire fetches, want 2 (the second read must start its own)", n)
	}
	sh, opt := tbl.shard("k0")
	sh.mu.Lock()
	item, _, cached := opt.Cache.Lookup("k0")
	joinable := len(sh.inflight)
	sh.mu.Unlock()
	if cached && !bytes.Equal(item.Value.([]byte), []byte("new")) {
		t.Fatalf("cache holds %q after both fetches settled", item.Value)
	}
	if joinable != 0 {
		t.Fatalf("%d dedup record(s) left behind", joinable)
	}
	invariantSum(t, e, 2)
}

// registryHarness serves table "t" (k0..k7) from one node and builds a
// one-connection executor over it under policy, counting the pushed
// invalidations it applies. other is a second client's connection to the
// same node, for writes the executor did not make.
func registryHarness(t *testing.T, policy core.Policy) (srv *Server, e *Executor, other *Conn, invalidations *atomic.Int64) {
	t.Helper()
	reg := NewRegistry()
	reg.Register("join", upperUDF)
	srv = NewServer(reg, false)
	rows := make(map[string][]byte)
	for i := range 8 {
		rows[fmt.Sprintf("k%d", i)] = []byte("v")
	}
	srv.AddTable(TableSpec{Name: "t", UDF: "join", Rows: rows})
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	invalidations = new(atomic.Int64)
	e = singleNodeExec(t, addr, func(cfg *ExecConfig) {
		cfg.ConnsPerNode = 1 // a later round trip orders every notification before it
		cfg.Optimizer.Policy = policy
		cfg.Trace = func(ev TraceEvent) {
			if ev.Kind == TraceInvalidate {
				invalidations.Add(1)
			}
		}
	})
	if other, err = DialNode(addr, nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { other.Close() })
	return srv, e, other, invalidations
}

// putFromOther writes every key through other, then runs one round trip on
// the executor's only connection: a notification pushed for those writes is
// framed before their acks, so by the time that round trip answers, the
// executor has applied it.
func putFromOther(t *testing.T, e *Executor, other *Conn, keys []string) {
	t.Helper()
	for i, k := range keys {
		if _, err := other.Call(putReq(uint64(i+1), k, "new")); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}
	if _, err := e.Table("t").Call(context.Background(), keys[0], nil, WithRoute(ForceCompute)); err != nil {
		t.Fatalf("barrier: %v", err)
	}
}

// TestUncachedFetchRegistersNoCacher: a fetch nothing caches — every fetch
// under NO, the fetch half of FR, a WithNoCache call under the caching
// policy — leaves the node's cacher registry empty, so a later put of the
// key from another connection notifies the fetcher of nothing.
func TestUncachedFetchRegistersNoCacher(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy core.Policy
		opts   []CallOption
	}{
		{"NO", core.Policy{AlwaysFetch: true}, nil},
		{"FR", core.Policy{RandomChoice: true}, nil},
		{"WithNoCache", core.Policy{Caching: true}, []CallOption{WithNoCache()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, e, other, invalidations := registryHarness(t, tc.policy)
			tbl, ctx := e.Table("t"), context.Background()
			keys := keysN(8)
			for range 4 {
				for _, k := range keys {
					if v, err := tbl.Call(ctx, k, []byte("p"), tc.opts...); err != nil || string(v) != "v/p" {
						t.Fatalf("read %s: %q, %v", k, v, err)
					}
				}
			}
			if srv.Gets.Load() == 0 {
				t.Fatal("no read reached the node as a fetch")
			}
			if n := srv.table("t").cachers.size(); n != 0 {
				t.Fatalf("the node registered %d keys for fetches nothing caches, want 0", n)
			}
			putFromOther(t, e, other, keys)
			if n := invalidations.Load(); n != 0 {
				t.Fatalf("the puts pushed %d notifications to a client that caches nothing, want 0", n)
			}
		})
	}
}

// TestCachingFetchStillRegistered is the contract the uncached flag keeps: a
// fetch the client caches registers its connection, and a put from another
// connection invalidates it.
func TestCachingFetchStillRegistered(t *testing.T) {
	srv, e, other, invalidations := registryHarness(t, core.Policy{Caching: true})
	tbl, ctx := e.Table("t"), context.Background()
	if v, err := tbl.Call(ctx, "k0", []byte("p"), WithRoute(ForceFetch)); err != nil || string(v) != "v/p" {
		t.Fatalf("fetch: %q, %v", v, err)
	}
	if c := &srv.table("t").cachers; c.size() != 1 || c.holders("k0") != 1 {
		t.Fatalf("registry holds %d keys, %d cachers of k0; want 1 and 1", c.size(), c.holders("k0"))
	}
	putFromOther(t, e, other, []string{"k0"})
	if n := invalidations.Load(); n != 1 {
		t.Fatalf("the put pushed %d notifications to the caching client, want 1", n)
	}
	if n := srv.table("t").cachers.size(); n != 0 {
		t.Fatalf("the registry holds %d keys after the put took them, want 0", n)
	}
	if v, err := tbl.Call(ctx, "k0", []byte("p")); err != nil || string(v) != "new/p" {
		t.Fatalf("read after the invalidation: %q, %v; want the new value", v, err)
	}
}
