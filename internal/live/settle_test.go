package live

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/core"
	"joinopt/internal/store"
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

// localExec is a socketless executor whose every key is a cache hit: the
// Caching policy with the given keys installed in memory at version 1, so a
// Submit of one of them takes the local path straight to the UDF workers and
// never reaches a wire. udf runs as table t's UDF.
func localExec(t *testing.T, workers int, udf UDF, trace func(TraceEvent), keys ...string) *Executor {
	t.Helper()
	reg := NewRegistry()
	reg.Register("u", udf)
	catalog := store.CatalogFunc(func(string) store.RowMeta { return store.RowMeta{ValueSize: 32} })
	e, err := NewExecutor(ExecConfig{
		Tables:    map[string]*store.Table{"t": store.NewTable("t", catalog, 2, []cluster.NodeID{0})},
		Registry:  reg,
		TableUDF:  map[string]string{"t": "u"},
		Optimizer: core.Config{Policy: core.Policy{Caching: true}, MemCacheBytes: 1 << 20},
		Shards:    1,
		Workers:   workers,
		BatchWait: time.Hour,
		Trace:     trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	tbl := e.Table("t")
	for _, k := range keys {
		sh, opt := tbl.shard(k)
		sh.mu.Lock()
		opt.OnValueFetched(k, 1, 1, []byte("v"), true)
		sh.mu.Unlock()
	}
	return e
}

func copyUDF(_ string, _, value []byte) []byte { return append([]byte(nil), value...) }

// TestLocalJobsResolveAcrossClose: submitters race Close on cached keys.
// Every future resolves, with the UDF's value or a typed error, the ops
// invariant holds, and once the queue drains every worker goroutine is gone —
// including the one a run queued after the workers exited starts for itself.
func TestLocalJobsResolveAcrossClose(t *testing.T) {
	baseline := runtime.NumGoroutine()
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"}
	e := localExec(t, 2, copyUDF, nil, keys...)
	tbl, ctx := e.Table("t"), context.Background()

	const submitters, perSubmitter = 4, 400
	futs := make([][]*Future, submitters)
	started := make(chan struct{}, submitters)
	var wg sync.WaitGroup
	for g := range submitters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perSubmitter {
				futs[g] = append(futs[g], tbl.Submit(ctx, keys[(g+i)%len(keys)], nil))
				if i == perSubmitter/8 {
					started <- struct{}{}
				}
			}
		}()
	}
	for range submitters {
		<-started
	}
	e.Close()
	wg.Wait()

	resolved := make(chan struct{})
	var served, refused int
	go func() {
		defer close(resolved)
		for _, fs := range futs {
			for _, f := range fs {
				v, err := f.WaitErr()
				var le *Error
				switch {
				case err == nil && string(v) == "v":
					served++
				case errors.As(err, &le) && le.Code == CodeClosed:
					refused++
				default:
					t.Errorf("future resolved with %q, %v; want the value or CodeClosed", v, err)
				}
			}
		}
	}()
	select {
	case <-resolved:
	case <-time.After(10 * time.Second):
		t.Fatal("a future submitted across Close never resolved")
	}
	if served == 0 {
		t.Fatal("no op ran before Close: the race was not exercised")
	}
	invariantSum(t, e, submitters*perSubmitter)

	// A run queued once every worker has exited (a local hit that raced past
	// Submit's closed check) still runs, on a worker it starts for itself.
	waitGoroutines(t, baseline)
	f := newFuture()
	e.computeLocal(tbl, 0, "k0", nil, []byte("late"), f)
	if v, err := waitOrHang(t, f, 5*time.Second); err != nil || string(v) != "late" {
		t.Fatalf("run queued after the workers exited: %q, %v", v, err)
	}
	waitGoroutines(t, baseline)
	if n := e.pendingLocal.Load(); n != 0 {
		t.Fatalf("pendingLocal = %d after every run finished", n)
	}
}

// waitGoroutines polls until the goroutine count is back to baseline.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive Close, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLocalRunsInSubmissionOrder: with one worker, local UDFs run in the
// order they were submitted — the total order the cross-plane and migration
// replay tests read their traces in — also once the queue has grown past its
// first ring while the worker was held.
func TestLocalRunsInSubmissionOrder(t *testing.T) {
	var mu sync.Mutex
	var ran []string
	hold, holding := make(chan struct{}), make(chan struct{})
	keys := []string{"hold"}
	for i := range 100 {
		keys = append(keys, fmt.Sprintf("k%d", i))
	}
	e := localExec(t, 1, func(key string, _, value []byte) []byte {
		if key == "hold" {
			close(holding)
			<-hold
		}
		mu.Lock()
		ran = append(ran, key)
		mu.Unlock()
		return value
	}, nil, keys...)
	tbl, ctx := e.Table("t"), context.Background()

	futs := []*Future{tbl.Submit(ctx, "hold", nil)}
	<-holding
	for _, k := range keys[1:] {
		futs = append(futs, tbl.Submit(ctx, k, nil))
	}
	close(hold)
	for i, f := range futs {
		if _, err := waitOrHang(t, f, 5*time.Second); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(ran, keys) {
		t.Fatalf("UDFs ran in order %v, want submission order %v", ran, keys)
	}
}

// TestLocalQueueStatsAndSojourn: with the one worker held by a UDF, the
// shipped ComputeStats.PendingLocal counts the running run plus the queued
// ones, and a queued run's sojourn includes the service of the run ahead of
// it.
func TestLocalQueueStatsAndSojourn(t *testing.T) {
	const slow = 20 * time.Millisecond
	var mu sync.Mutex
	observed := map[string]TraceEvent{}
	hold, holding := make(chan struct{}), make(chan struct{})
	e := localExec(t, 1, func(key string, _, value []byte) []byte {
		switch key {
		case "hold":
			close(holding)
			<-hold
		case "slow":
			time.Sleep(slow)
		}
		return value
	}, func(ev TraceEvent) {
		if ev.Kind == TraceLocalCompute {
			mu.Lock()
			observed[ev.Key] = ev
			mu.Unlock()
		}
	}, "hold", "slow", "queued")
	tbl, ctx := e.Table("t"), context.Background()

	futs := []*Future{tbl.Submit(ctx, "hold", nil)}
	<-holding
	if n := e.stats().PendingLocal; n != 1 {
		t.Fatalf("PendingLocal = %d with one run in service, want 1", n)
	}
	futs = append(futs, tbl.Submit(ctx, "slow", nil), tbl.Submit(ctx, "queued", nil))
	if n := e.stats().PendingLocal; n != 3 {
		t.Fatalf("PendingLocal = %d with one run in service and two queued, want 3", n)
	}
	close(hold)
	for i, f := range futs {
		if _, err := waitOrHang(t, f, 5*time.Second); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if n := e.stats().PendingLocal; n != 0 {
		t.Fatalf("PendingLocal = %d once every run returned, want 0", n)
	}
	mu.Lock()
	defer mu.Unlock()
	s, q := observed["slow"], observed["queued"]
	if s.Service < slow.Seconds() {
		t.Fatalf("slow run's service %.4fs, want at least %v", s.Service, slow)
	}
	if q.Sojourn < s.Service || q.Sojourn < q.Service {
		t.Fatalf("queued run's sojourn %.4fs, want at least the slow run's service %.4fs and its own %.4fs",
			q.Sojourn, s.Service, q.Service)
	}
}

// TestChunkedFuturesKeepTheirResults cuts more futures than two chunks hold
// and resolves them out of order with distinct values, while two waiters
// block on each, one in WaitErr and one in WaitCtx: every future, on either
// side of a chunk boundary, answers its own value to each of them, and again
// to later repeated calls. A header cut twice, or recycled, would hand one
// future's result to another.
func TestChunkedFuturesKeepTheirResults(t *testing.T) {
	n := 2*int(futChunkLen) + 7
	futs := make([]*Future, n)
	for i := range futs {
		futs[i] = newFuture()
	}
	want := func(i int) string { return fmt.Sprintf("v%d", i) }
	check := func(i int, how string, v []byte, err error) {
		if err != nil || string(v) != want(i) {
			t.Errorf("future %d: %s = %q, %v; want %q", i, how, v, err, want(i))
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i, f := range futs {
		wg.Add(2)
		go func() {
			defer wg.Done()
			v, err := f.WaitErr()
			check(i, "WaitErr", v, err)
		}()
		go func() {
			defer wg.Done()
			v, err := f.WaitCtx(ctx)
			check(i, "WaitCtx", v, err)
		}()
	}
	for _, i := range rand.New(rand.NewPCG(1, 2)).Perm(n) {
		if !futs[i].resolve([]byte(want(i))) {
			t.Fatalf("future %d was already resolved", i)
		}
	}
	wg.Wait()
	for i, f := range futs {
		v, err := f.WaitErr()
		check(i, "repeated WaitErr", v, err)
		v, err = f.WaitCtx(ctx)
		check(i, "repeated WaitCtx", v, err)
	}
}
