package live

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"joinopt/internal/core"
)

// The cancellation suite: a canceled context must resolve its future with
// CodeCanceled — never a hang, never a nil-value masquerade — wherever the
// op is parked (pre-routing, batch accumulator, dedup waiter list, or on
// the wire), the server must skip UDF work canceled before dispatch, and
// the extended counter invariant (now including Canceled) must hold under
// every race the byte-level fault proxy can provoke.

func wantCanceled(t *testing.T, err error, what string) {
	t.Helper()
	var le *Error
	if !errors.As(err, &le) || le.Code != CodeCanceled {
		t.Fatalf("%s: error %v, want CodeCanceled", what, err)
	}
}

// TestCancelPreCanceled pins the cheapest path: a context canceled before
// Submit rejects at the door, counts Canceled, and never touches a batch.
func TestCancelPreCanceled(t *testing.T) {
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
	e := singleNodeExec(t, addr, nil)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, werr := waitOrHang(t, e.Table("t").Submit(ctx, "k0", []byte("p")), 10*time.Second)
	wantCanceled(t, werr, "pre-canceled Submit")
	if n := e.Canceled.Load(); n != 1 {
		t.Fatalf("Canceled = %d, want 1", n)
	}
	if execs := srv.Execs.Load() + srv.Gets.Load(); execs != 0 {
		t.Fatalf("pre-canceled submission reached the server (%d ops)", execs)
	}
	invariantSum(t, e, 1)
}

// TestCancelInAccumulator cancels an op parked in a batch accumulator whose
// timer is an hour out: the future must reject immediately (not at flush
// time), the entry must leave the batch, and the wire must never carry it.
func TestCancelInAccumulator(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
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

		e := singleNodeExec(t, addr, func(cfg *ExecConfig) {
			cfg.Optimizer = core.Config{Policy: core.Policy{AlwaysCompute: true}}
			cfg.Shards = shards
			cfg.BatchSize = 64
			cfg.BatchWait = time.Hour // nothing flushes unless full
		})

		ctx, cancel := context.WithCancel(context.Background())
		fCancel := e.Table("t").Submit(ctx, "k0", []byte("p"))
		fKeep := e.Table("t").Submit(context.Background(), "k1", []byte("p"))
		cancel()
		// The canceled entry must leave the pending batch (the future rejects
		// first, the removal follows). Only then wait on it: a wait that
		// blocked before the cancel landed would ship the batch, k0 included,
		// and collecting the rejection afterwards must not ship k1 either.
		bk := liveBatchKey{t: e.Table("t"), node: 0, op: OpExec}
		waitUntil(t, 10*time.Second, "the canceled entry to leave its accumulator", func() bool { return parked(e, bk) == 1 })
		_, werr := waitOrHang(t, fCancel, 10*time.Second)
		wantCanceled(t, werr, "accumulator cancel")
		if n := parked(e, bk); n != 1 {
			t.Fatalf("waiting on the canceled future left %d entries parked, want k1 untouched", n)
		}
		// Flush what remains so fKeep resolves.
		flush(e, bk)
		if v, err := waitOrHang(t, fKeep, 10*time.Second); err != nil || !bytes.Equal(v, []byte("v1/p")) {
			t.Fatalf("surviving batch entry: %q, %v", v, err)
		}
		if got := srv.Execs.Load(); got != 1 {
			t.Fatalf("server executed %d ops, want 1 (canceled entry filtered from the wire)", got)
		}
		if n := e.Canceled.Load(); n != 1 {
			t.Fatalf("Canceled = %d, want 1", n)
		}
		invariantSum(t, e, 2)
	})
}

// TestCancelAfterFlushServerSkips is the wire-level contract: ops canceled
// after their exec batch shipped are chased by cancel frames, and the
// server — busy with a deliberately slow UDF — skips the UDFs it has not
// dispatched yet, observably via ExecCanceled.
func TestCancelAfterFlushServerSkips(t *testing.T) {
	const batch = 48
	reg := NewRegistry()
	reg.Register("slow", func(key string, params, value []byte) []byte {
		time.Sleep(2 * time.Millisecond)
		return append([]byte{}, value...)
	})
	rows := make(map[string][]byte, batch)
	for i := 0; i < batch; i++ {
		rows[fmt.Sprintf("k%d", i)] = []byte("v")
	}
	srv := NewServer(reg, false)
	srv.AddTable(TableSpec{Name: "t", UDF: "slow", Rows: rows})
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(srv.Close)

	e := singleNodeExec(t, addr, func(cfg *ExecConfig) {
		cfg.Optimizer = core.Config{Policy: core.Policy{AlwaysCompute: true}}
		cfg.Registry = reg // the slow UDF, same as the server's
		cfg.TableUDF = map[string]string{"t": "slow"}
		cfg.BatchSize = batch // one full batch flushes on the last Submit
		cfg.BatchWait = time.Hour
	})

	ctx, cancel := context.WithCancel(context.Background())
	futs := make([]*Future, batch)
	for i := range futs {
		futs[i] = e.Table("t").Submit(ctx, fmt.Sprintf("k%d", i), nil)
	}
	// The batch is on the wire (flushed by size); the server is grinding
	// through ~2ms UDFs. Cancel everything mid-flight.
	time.Sleep(5 * time.Millisecond)
	cancel()

	for i, f := range futs {
		v, err := waitOrHang(t, f, 30*time.Second)
		if err != nil {
			wantCanceled(t, err, fmt.Sprintf("op %d", i))
		} else if !bytes.Equal(v, []byte("v")) {
			t.Fatalf("op %d completed with %q, want %q", i, v, "v")
		}
	}
	// The futures reject the instant the context cancels; the cancel
	// frames and the server's skips land asynchronously while it grinds
	// through the rest of the batch. Poll until the skips show.
	deadline := time.Now().Add(10 * time.Second)
	for srv.ExecCanceled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server skipped no UDFs; cancel frames never landed before dispatch")
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Logf("server skipped %d/%d UDFs on cancel", srv.ExecCanceled.Load(), batch)
	invariantSum(t, e, batch)
}

// TestCancelPiledOnDedupWaiter cancels one of several waiters piled on a
// single in-flight fetch: the canceled waiter rejects immediately, the
// survivors still get the value when the (slow) fetch lands, and the
// inflight record is left consistent.
func TestCancelPiledOnDedupWaiter(t *testing.T) {
	release := make(chan struct{})
	fake := newFakeNode(t, func(req Request) *Response {
		<-release // hold the fetch in flight until the test says go
		resp := &Response{}
		for range req.Keys {
			resp.Values = append(resp.Values, []byte("fresh"))
			resp.Computed = append(resp.Computed, false)
			resp.Metas = append(resp.Metas, Meta{ValueSize: 5, Version: 1})
		}
		return resp
	})
	e := singleNodeExec(t, fake.addr(), func(cfg *ExecConfig) {
		cfg.Shards = 1
		cfg.BatchSize = 1 // the fetch flushes on enqueue
		cfg.BatchWait = time.Hour
	})

	ctx, cancel := context.WithCancel(context.Background())
	tbl := e.Table("t")
	// ForceFetch routes both through the data-request dedup path; the
	// first issues the wire fetch, the second piles on.
	f1 := tbl.Submit(context.Background(), "k0", []byte("p1"), WithRoute(ForceFetch))
	f2 := tbl.Submit(ctx, "k0", []byte("p2"), WithRoute(ForceFetch))
	cancel()
	_, werr := waitOrHang(t, f2, 10*time.Second)
	wantCanceled(t, werr, "piled-on waiter")

	close(release)
	v, err := waitOrHang(t, f1, 10*time.Second)
	if err != nil || !bytes.Equal(v, []byte("fresh/p1")) {
		t.Fatalf("surviving waiter: %q, %v (the canceled waiter took the fetch down with it?)", v, err)
	}
	sh, _ := e.Table("t").shard("k0")
	sh.mu.Lock()
	stale := len(sh.inflight)
	sh.mu.Unlock()
	if stale != 0 {
		t.Fatalf("%d stale inflight record(s) after the fetch resolved", stale)
	}
	invariantSum(t, e, 2)
}

// TestCancelLastDedupWaiterDropsFetch cancels the ONLY waiter while its
// fetch still sits in the accumulator: the fetch must be withdrawn (never
// hit the wire) and the dedup record cleared so the next Submit re-issues.
func TestCancelLastDedupWaiterDropsFetch(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		var served atomic.Int64
		fake := newFakeNode(t, func(req Request) *Response {
			served.Add(int64(len(req.Keys)))
			resp := &Response{}
			for range req.Keys {
				resp.Values = append(resp.Values, []byte("fresh"))
				resp.Computed = append(resp.Computed, false)
				resp.Metas = append(resp.Metas, Meta{ValueSize: 5, Version: 1})
			}
			return resp
		})
		e := singleNodeExec(t, fake.addr(), func(cfg *ExecConfig) {
			cfg.Shards = shards
			cfg.BatchSize = 64
			cfg.BatchWait = time.Hour // the fetch parks in the accumulator
		})

		ctx, cancel := context.WithCancel(context.Background())
		f := e.Table("t").Submit(ctx, "k0", []byte("p"), WithRoute(ForceFetch))
		cancel()
		// Collect the rejection only once the fetch is withdrawn: a wait that
		// blocked before the cancel landed would have shipped it.
		sh, _ := e.Table("t").shard("k0")
		bk := liveBatchKey{t: e.Table("t"), node: 0, op: OpGet}
		waitUntil(t, 10*time.Second, "the withdrawn fetch to leave no record", func() bool {
			sh.mu.Lock()
			defer sh.mu.Unlock()
			return len(sh.inflight) == 0 && parked(e, bk) == 0
		})
		_, werr := waitOrHang(t, f, 10*time.Second)
		wantCanceled(t, werr, "lone waiter")
		assertIdle(t, e)

		// A fresh Submit must re-issue the fetch from scratch and succeed
		// (flushed by hand; this executor's timer is parked an hour out).
		f2 := e.Table("t").Submit(context.Background(), "k0", []byte("q"), WithRoute(ForceFetch))
		flush(e, bk)
		v, err := waitOrHang(t, f2, 10*time.Second)
		if err != nil || !bytes.Equal(v, []byte("fresh/q")) {
			t.Fatalf("re-issued fetch: %q, %v", v, err)
		}
		if n := served.Load(); n != 1 {
			t.Fatalf("server served %d keys, want 1 (the canceled fetch must never ship)", n)
		}
		invariantSum(t, e, 2)
	})
}

// TestCancelRacingResponsesUnderProxy is the stress half: through the
// byte-level fault proxy, hundreds of ops race their cancels against real
// responses (and one mid-run kill-all). Every future must resolve — value,
// CodeCanceled, or a typed transport error — and the extended invariant
// must balance to the op count.
func TestCancelRacingResponsesUnderProxy(t *testing.T) {
	const (
		keys       = 64
		submitters = 4
		opsPer     = 300
	)
	reg := NewRegistry()
	reg.Register("join", upperUDF)
	rows := make(map[string][]byte, keys)
	for i := 0; i < keys; i++ {
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
		cfg.Shards = 4
		cfg.ConnsPerNode = 2
		cfg.MaxRetries = 3
		cfg.RequestTimeout = 2 * time.Second
		cfg.BatchWait = 200 * time.Microsecond
	})

	var values, canceled, failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < submitters; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 77))
			tbl := e.Table("t")
			for i := 0; i < opsPer; i++ {
				k := fmt.Sprintf("k%d", rng.Intn(keys))
				var (
					f      *Future
					cancel context.CancelFunc
				)
				if rng.Intn(2) == 0 {
					ctx, cf := context.WithCancel(context.Background())
					f = tbl.Submit(ctx, k, []byte("p"))
					cancel = cf
					if rng.Intn(2) == 0 {
						// Let the response race harder: yield first.
						time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
					}
					cf()
				} else {
					f = tbl.Submit(context.Background(), k, []byte("p"))
				}
				v, err := waitOrHang(t, f, 30*time.Second)
				switch {
				case err == nil:
					values.Add(1)
					want := []byte("v-" + k + "/p")
					if !bytes.Equal(v, want) {
						t.Errorf("result %q, want %q", v, want)
					}
				default:
					var le *Error
					if !errors.As(err, &le) {
						t.Errorf("untyped error %v", err)
					} else if le.Code == CodeCanceled {
						canceled.Add(1)
					} else if le.Code == CodeTransport || le.Code == CodeTimeout {
						failed.Add(1)
					} else {
						t.Errorf("unexpected code %v (%v)", le.Code, le)
					}
				}
				if cancel != nil {
					cancel()
				}
				if c == 0 && i == opsPer/2 {
					proxy.killAll() // one mid-run cut under the cancel storm
				}
			}
		}(c)
	}
	wg.Wait()

	const ops = submitters * opsPer
	invariantSum(t, e, ops)
	t.Logf("proxy cancel race: %d values, %d canceled, %d transport/timeout; server skipped %d UDFs; Canceled counter %d",
		values.Load(), canceled.Load(), failed.Load(), srv.ExecCanceled.Load(), e.Canceled.Load())
	if canceled.Load() == 0 {
		t.Fatal("no op observed CodeCanceled; the race never exercised cancellation")
	}
}

// TestWaitCtxAbandonsWithoutResolving pins WaitCtx's contract: an abandoned
// wait returns CodeCanceled but leaves the future intact — the value is
// still there for the next WaitErr.
func TestWaitCtxAbandonsWithoutResolving(t *testing.T) {
	release := make(chan struct{})
	fake := newFakeNode(t, func(req Request) *Response {
		<-release
		resp := &Response{}
		for range req.Keys {
			resp.Values = append(resp.Values, []byte("late"))
			resp.Computed = append(resp.Computed, false)
			resp.Metas = append(resp.Metas, Meta{ValueSize: 4, Version: 1})
		}
		return resp
	})
	e := singleNodeExec(t, fake.addr(), func(cfg *ExecConfig) {
		cfg.Shards = 1
		cfg.BatchSize = 1
	})

	// Submitted under background: the wait's ctx must not cancel the op.
	f := e.Table("t").Submit(context.Background(), "k0", []byte("p"), WithRoute(ForceFetch))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := f.WaitCtx(ctx)
	wantCanceled(t, err, "abandoned WaitCtx")

	close(release)
	v, err := waitOrHang(t, f, 10*time.Second)
	if err != nil || !bytes.Equal(v, []byte("late/p")) {
		t.Fatalf("post-abandon WaitErr: %q, %v (abandoning a wait must not kill the op)", v, err)
	}
	invariantSum(t, e, 1)
}

// TestPerCallOptions pins the CallOption semantics: ForceCompute and NoCache
// land in their own counters, and a call's own bound is its context's
// deadline, which beats the executor default against a blackholed node.
func TestPerCallOptions(t *testing.T) {
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
		cfg.Shards = 1
		cfg.ConnsPerNode = 1
		cfg.BatchSize = 1
		cfg.MaxRetries = 0
		cfg.RequestTimeout = time.Hour // only a per-call deadline can fail fast
	})
	tbl := e.Table("t")
	ctx := context.Background()

	// ForceCompute: the op must execute at the data node.
	if v, err := tbl.Call(ctx, "k0", []byte("p"), WithRoute(ForceCompute)); err != nil || !bytes.Equal(v, []byte("v0/p")) {
		t.Fatalf("ForceCompute: %q, %v", v, err)
	}
	if n := e.RemoteComputed.Load(); n != 1 {
		t.Fatalf("RemoteComputed = %d, want 1", n)
	}
	// NoCache: a wire fetch that must not install anything.
	if v, err := tbl.Call(ctx, "k1", []byte("p"), WithNoCache()); err != nil || !bytes.Equal(v, []byte("v1/p")) {
		t.Fatalf("NoCache: %q, %v", v, err)
	}
	sh, opt := e.Table("t").shard("k1")
	sh.mu.Lock()
	_, _, cached := opt.Cache.Lookup("k1")
	sh.mu.Unlock()
	if cached {
		t.Fatal("WithNoCache installed the fetched value")
	}
	// ForceFetch (cacheable): the dedup/cache-fill path.
	if v, err := tbl.Call(ctx, "k1", []byte("p"), WithRoute(ForceFetch)); err != nil || !bytes.Equal(v, []byte("v1/p")) {
		t.Fatalf("ForceFetch: %q, %v", v, err)
	}
	if n := e.FetchServed.Load(); n != 2 {
		t.Fatalf("FetchServed = %d, want 2 (NoCache + ForceFetch)", n)
	}

	// A call's own deadline is its context's: with responses blackholed and
	// the executor's default at an hour, only the context can fail this
	// quickly.
	proxy.dropResponses.Store(true)
	start := time.Now()
	dctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	_, err = tbl.Call(dctx, "k0", []byte("p"), WithRoute(ForceCompute))
	wantCanceled(t, err, "context deadline")
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("context deadline took %v; the executor default leaked through", waited)
	}
	// The op is counted before Call returns.
	if n := e.Canceled.Load(); n != 1 {
		t.Fatalf("Canceled = %d right after the expired Call returned, want 1", n)
	}
	invariantSum(t, e, 4)
}

// TestWireOptionsSplitDedup pins the dedup half of the per-call wire
// policy: a fetch never piles onto one parked or flying in another priority
// class — each class gets its own wire request, carrying its own class — and
// an invalidation cuts the key's records in every class.
func TestWireOptionsSplitDedup(t *testing.T) {
	var mu sync.Mutex
	var seen []Priority
	fake := newFakeNode(t, func(req Request) *Response {
		mu.Lock()
		seen = append(seen, req.Priority)
		mu.Unlock()
		resp := &Response{}
		for range req.Keys {
			resp.Values = append(resp.Values, []byte("v"))
			resp.Computed = append(resp.Computed, false)
			resp.Metas = append(resp.Metas, Meta{ValueSize: 1, Version: 1})
		}
		return resp
	})
	e := singleNodeExec(t, fake.addr(), func(cfg *ExecConfig) {
		cfg.Shards = 1
		cfg.BatchWait = time.Hour
	})
	tbl := e.Table("t")
	ctx := context.Background()

	f1 := tbl.Submit(ctx, "k0", []byte("p"), WithRoute(ForceFetch))
	f2 := tbl.Submit(ctx, "k0", []byte("p"), WithRoute(ForceFetch), WithPriority(PriorityHigh))
	f3 := tbl.Submit(ctx, "k0", []byte("p"), WithRoute(ForceFetch), WithPriority(PriorityHigh)) // piles onto f2
	sh, _ := tbl.shard("k0")
	sh.mu.Lock()
	records := len(sh.inflight)
	sh.cut(tbl, "k0")
	cut := len(sh.inflight)
	sh.mu.Unlock()
	if records != 2 || cut != 0 {
		t.Fatalf("dedup records: %d before the cut, %d after; want 2 (one per class), then 0", records, cut)
	}
	if batches := flushAll(e); batches != 2 {
		t.Fatalf("accumulated %d batch(es), want 2 (one fetch per class)", batches)
	}
	for i, f := range []*Future{f1, f2, f3} {
		if v, err := waitOrHang(t, f, 10*time.Second); err != nil || !bytes.Equal(v, []byte("v/p")) {
			t.Fatalf("future %d: %q, %v", i, v, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	slices.Sort(seen)
	if !slices.Equal(seen, []Priority{PriorityNormal, PriorityHigh}) {
		t.Fatalf("the node saw requests of classes %v, want one Normal and one High", seen)
	}
}

// TestWireOptionsSplitBatches pins the batch-key contract: submissions of
// different priorities must never ride the same wire batch (the class is
// carried per request, so one batch has exactly one).
func TestWireOptionsSplitBatches(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
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

		e := singleNodeExec(t, addr, func(cfg *ExecConfig) {
			cfg.Optimizer = core.Config{Policy: core.Policy{AlwaysCompute: true}}
			cfg.Shards = shards
			cfg.BatchSize = 64
			cfg.BatchWait = time.Hour
		})
		tbl := e.Table("t")
		ctx := context.Background()

		f1 := tbl.Submit(ctx, "k0", []byte("p"))                            // default priority
		f2 := tbl.Submit(ctx, "k1", []byte("p"), WithPriority(PriorityLow)) // its own batch
		if batches := flushAll(e); batches != 2 {
			t.Fatalf("accumulated %d batch(es), want 2 (differing priorities must split)", batches)
		}
		for i, f := range []*Future{f1, f2} {
			if _, err := waitOrHang(t, f, 10*time.Second); err != nil {
				t.Fatalf("future %d: %v", i, err)
			}
		}
	})
}
