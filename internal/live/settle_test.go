package live

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

// settleExec is socketlessExec plus a node record for node 0 whose pool has
// no conn: handleResponse can read the pool's disconnect epoch, and nothing
// can reach a wire. The tests below take a parked batch by hand and answer it
// with a fabricated response, the way ship's flush goroutine would.
func settleExec(t *testing.T, shards int) *Executor {
	t.Helper()
	e := socketlessExec(t, shards)
	ns := nodeSet{0: {pool: scriptedPool(replicaState{})}}
	e.nodes.Store(&ns)
	return e
}

// fetched fabricates the OpGet reply for a batch: every key answers value at
// version.
func fetched(b *liveBatch, value string, version int64) *Response {
	resp := &Response{}
	for range b.entries {
		resp.Values = append(resp.Values, []byte(value))
		resp.Metas = append(resp.Metas, Meta{ValueSize: int64(len(value)), Version: version})
	}
	return resp
}

// answer settles a taken batch with resp, as ship's flush goroutine does once
// callNode returns: the link is given back, then the results are distributed.
func answer(e *Executor, b *liveBatch, resp *Response) {
	b.acc.done()
	e.handleResponse(b.bk, b.entries, resp, 0, 0)
}

func wantCode(t *testing.T, f *Future, code ErrCode, what string) {
	t.Helper()
	_, err := waitOrHang(t, f, 5*time.Second)
	var le *Error
	if !errors.As(err, &le) || le.Code != code {
		t.Fatalf("%s: %v, want code %v", what, err, code)
	}
}

func cachedValue(tbl *Table, key string) ([]byte, bool) {
	sh, opt := tbl.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	item, _, ok := opt.Cache.Lookup(key)
	if !ok {
		return nil, false
	}
	return item.Value.([]byte), true
}

// TestSettleMalformedReplyFailsBatch: a reply whose parallel slices do not
// match the batch fails every entry — piled-on waiters included — with
// CodeServer instead of indexing past a slice end, and leaves no dedup record.
func TestSettleMalformedReplyFailsBatch(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		e := settleExec(t, shards)
		tbl, ctx := e.Table("t"), context.Background()

		execs := []*Future{tbl.Submit(ctx, "k0", nil), tbl.Submit(ctx, "k1", nil), tbl.Submit(ctx, "k2", nil)}
		b := take(t, e, liveBatchKey{t: tbl, node: 0, op: OpExec})
		short := &Response{Values: make([][]byte, 2), Metas: make([]Meta, 2), Computed: make([]bool, 2)}
		answer(e, b, short)
		for i, f := range execs {
			wantCode(t, f, CodeServer, "exec op of a short reply "+string(rune('0'+i)))
		}

		execs = []*Future{tbl.Submit(ctx, "k0", nil)}
		b = take(t, e, liveBatchKey{t: tbl, node: 0, op: OpExec})
		answer(e, b, &Response{Values: make([][]byte, 1), Metas: make([]Meta, 1)})
		wantCode(t, execs[0], CodeServer, "exec op of a reply without computed flags")

		lead := tbl.Submit(ctx, "f0", nil, WithRoute(ForceFetch))
		follower := tbl.Submit(ctx, "f0", nil, WithRoute(ForceFetch))
		b = take(t, e, liveBatchKey{t: tbl, node: 0, op: OpGet})
		if len(b.entries) != 1 {
			t.Fatalf("the piled-on read made its own entry: %d entries", len(b.entries))
		}
		answer(e, b, &Response{Values: make([][]byte, 1)})
		wantCode(t, lead, CodeServer, "lead of a fetch answered without metas")
		wantCode(t, follower, CodeServer, "follower of a fetch answered without metas")
		sh, _ := tbl.shard("f0")
		sh.mu.Lock()
		stale := len(sh.inflight)
		sh.mu.Unlock()
		if stale != 0 {
			t.Fatalf("%d dedup record(s) survive the failed fetch", stale)
		}
		if n := e.Failed.Load(); n != 6 {
			t.Fatalf("Failed = %d, want all 6 ops", n)
		}
		invariantSum(t, e, 6)
	})
}

// TestSettleSkipsCanceledFollower: one of three followers cancels while the
// fetch is on the wire. The answer serves the lead and the other two, counts
// the canceled one once (in Canceled), and installs the value.
func TestSettleSkipsCanceledFollower(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		e := settleExec(t, shards)
		tbl, bg := e.Table("t"), context.Background()
		ctx, cancel := context.WithCancel(bg)
		defer cancel()

		served := []*Future{
			tbl.Submit(bg, "k0", nil, WithRoute(ForceFetch)),
			tbl.Submit(bg, "k0", nil, WithRoute(ForceFetch)),
		}
		gone := tbl.Submit(ctx, "k0", nil, WithRoute(ForceFetch))
		served = append(served, tbl.Submit(bg, "k0", nil, WithRoute(ForceFetch)))
		b := take(t, e, liveBatchKey{t: tbl, node: 0, op: OpGet})
		cancel()
		wantCode(t, gone, CodeCanceled, "follower canceled mid-flight")

		answer(e, b, fetched(b, "fresh", 1))
		for i, f := range served {
			if v, err := waitOrHang(t, f, 5*time.Second); err != nil || !bytes.Equal(v, []byte("fresh")) {
				t.Fatalf("waiter %d of the answered fetch: %q, %v", i, v, err)
			}
		}
		if f, s, c := e.Fetches.Load(), e.FetchServed.Load(), e.Canceled.Load(); f != 1 || s != 3 || c != 1 {
			t.Fatalf("Fetches %d FetchServed %d Canceled %d, want 1, 3, 1", f, s, c)
		}
		if v, ok := cachedValue(tbl, "k0"); !ok || !bytes.Equal(v, []byte("fresh")) {
			t.Fatalf("cache after the fill: %q, cached %v", v, ok)
		}
		invariantSum(t, e, 4)
	})
}

// TestSettleFetchAnsweredAfterInvalidate: an invalidation lands while a fetch
// is on the wire. The fetch stops being joinable — a read submitted afterwards
// parks a fetch of its own — but its answer still serves the waiters it had,
// stays out of the cache (it is older than the version the invalidation left),
// and does not unmap the newer fetch's record.
func TestSettleFetchAnsweredAfterInvalidate(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		e := settleExec(t, shards)
		tbl, ctx := e.Table("t"), context.Background()
		bk := liveBatchKey{t: tbl, node: 0, op: OpGet}

		before := []*Future{
			tbl.Submit(ctx, "k0", nil, WithRoute(ForceFetch)),
			tbl.Submit(ctx, "k0", nil, WithRoute(ForceFetch)),
		}
		old := take(t, e, bk)
		e.invalidate(tbl, "k0", 2)
		after := tbl.Submit(ctx, "k0", nil, WithRoute(ForceFetch))
		if n := parked(e, bk); n != 1 {
			t.Fatalf("%d fetches parked after the invalidation, want the new read's own", n)
		}

		answer(e, old, fetched(old, "old", 1))
		for i, f := range before {
			if v, err := waitOrHang(t, f, 5*time.Second); err != nil || !bytes.Equal(v, []byte("old")) {
				t.Fatalf("waiter %d of the pre-invalidation fetch: %q, %v", i, v, err)
			}
		}
		if v, ok := cachedValue(tbl, "k0"); ok {
			t.Fatalf("the pre-invalidation value %q was installed", v)
		}
		sh, _ := tbl.shard("k0")
		sh.mu.Lock()
		joinable := len(sh.inflight)
		sh.mu.Unlock()
		if joinable != 1 {
			t.Fatalf("%d joinable fetches after the old one settled, want the new read's", joinable)
		}

		fresh := take(t, e, bk)
		answer(e, fresh, fetched(fresh, "new", 2))
		if v, err := waitOrHang(t, after, 5*time.Second); err != nil || !bytes.Equal(v, []byte("new")) {
			t.Fatalf("read submitted after the invalidation: %q, %v", v, err)
		}
		if v, ok := cachedValue(tbl, "k0"); !ok || !bytes.Equal(v, []byte("new")) {
			t.Fatalf("cache after the newer fetch: %q, cached %v", v, ok)
		}
		if f, s := e.Fetches.Load(), e.FetchServed.Load(); f != 2 || s != 3 {
			t.Fatalf("Fetches %d FetchServed %d, want 2 and 3", f, s)
		}
		invariantSum(t, e, 3)
	})
}
