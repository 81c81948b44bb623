package live

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPutPacesLikeAnyOtherSend pins what sending puts through callNode changes
// on purpose: a Table.Put to a node that advertises credit 0, with the pool's
// advertised window already full, waits for credit like a batch would — but no
// longer than paceMaxWait, after which it goes out anyway — and is attempted
// exactly once (a put that failed at the wire is maybe committed, so it is
// never re-sent).
func TestPutPacesLikeAnyOtherSend(t *testing.T) {
	var puts atomic.Int64
	held := make(chan struct{}, 1)
	release := make(chan struct{})
	fake := newFakeNode(t, func(req Request) *Response {
		resp := &Response{Credit: 0, Window: 1} // saturated: one op per conn, none free
		switch {
		case req.Op == OpPut:
			puts.Add(1)
			resp.Metas = []Meta{{Version: 1}}
			return resp
		case req.Keys[0] == "held":
			held <- struct{}{}
			<-release
		}
		resp.Values, resp.Computed = [][]byte{[]byte("v")}, []bool{false}
		resp.Metas = []Meta{{ValueSize: 1, Version: 1}}
		return resp
	})
	e := singleNodeExec(t, fake.addr(), func(cfg *ExecConfig) {
		cfg.ConnsPerNode = 1 // budget = window × conns = 1 op
		cfg.BatchSize = 1
	})
	tbl, ctx := e.Table("t"), context.Background()
	pool := e.pool(0)

	// Learn the node's credit pair, then fill the window with one held fetch.
	if _, err := tbl.Call(ctx, "prime", nil, WithRoute(ForceFetch)); err != nil {
		t.Fatalf("priming call: %v", err)
	}
	if !pool.starved() {
		t.Fatal("pool did not learn the advertised credit 0")
	}
	inFlight := tbl.Submit(ctx, "held", nil, WithRoute(ForceFetch))
	<-held
	if n := pool.paceWaits.Load(); n != 0 {
		t.Fatalf("%d sends paced before the window was full", n)
	}

	done := make(chan error, 1)
	go func() {
		_, err := tbl.Put(ctx, "k0", []byte("x"))
		done <- err
	}()
	// The put holds for credit, then goes out with the window still full:
	// pacing delays a send, it never wedges one.
	waitUntil(t, 5*time.Second, "the paced put to go out at the pacing bound", func() bool {
		return pool.outstanding.Load() == 2
	})
	if n := pool.paceWaits.Load(); n != 1 {
		t.Fatalf("paceWaits = %d, want the put's 1", n)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("put: %v", err)
	}
	if _, err := waitOrHang(t, inFlight, 5*time.Second); err != nil {
		t.Fatalf("held fetch: %v", err)
	}
	if n := puts.Load(); n != 1 {
		t.Fatalf("the node saw %d put requests, want exactly 1", n)
	}
}

// TestFetchBatchesShipKeysOnly: a fetch batch ships keys and no params — the
// node reads none for an OpGet — while each entry keeps its params for the
// local UDF run. A fetch nothing caches carries prioNoCache and never shares
// a batch with a caching fetch; an exec batch still ships its params.
func TestFetchBatchesShipKeysOnly(t *testing.T) {
	type seen struct {
		op           Op
		prio         Priority
		keys, params int
	}
	var mu sync.Mutex
	var reqs []seen
	fake := newFakeNode(t, func(req Request) *Response {
		mu.Lock()
		reqs = append(reqs, seen{req.Op, req.Priority, len(req.Keys), len(req.Params)})
		mu.Unlock()
		resp := &Response{}
		for range req.Keys {
			resp.Values = append(resp.Values, []byte("v"))
			resp.Computed = append(resp.Computed, false) // an exec slot comes back bounced
			resp.Metas = append(resp.Metas, Meta{ValueSize: 1, Version: 1})
		}
		return resp
	})
	e := singleNodeExec(t, fake.addr(), func(cfg *ExecConfig) {
		cfg.BatchSize = 8
		cfg.BatchWait = time.Hour // every batch ships on its first wait
	})
	tbl, ctx := e.Table("t"), context.Background()
	futs := []*Future{
		tbl.Submit(ctx, "k0", []byte("p0"), WithRoute(ForceFetch)),
		tbl.Submit(ctx, "k1", []byte("p1"), WithNoCache()),
		tbl.Submit(ctx, "k2", []byte("p2"), WithRoute(ForceFetch)),
		tbl.Submit(ctx, "k3", []byte("p3"), WithNoCache()),
		tbl.Submit(ctx, "k4", []byte("p4"), WithRoute(ForceCompute)),
	}
	for i, f := range futs {
		if v, err := waitOrHang(t, f, 10*time.Second); err != nil || string(v) != fmt.Sprintf("v/p%d", i) {
			t.Fatalf("k%d: %q, %v; want the local UDF over its own params", i, v, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	want := []seen{
		{OpGet, PriorityNormal, 2, 0},
		{OpGet, PriorityNormal | prioNoCache, 2, 0},
		{OpExec, PriorityNormal, 1, 1},
	}
	if !slices.Equal(reqs, want) {
		t.Fatalf("the node saw %+v, want %+v", reqs, want)
	}
}
