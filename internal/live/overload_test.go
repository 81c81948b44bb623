package live

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"joinopt/internal/core"
)

// --- Run queue unit tests ----------------------------------------------------

func rqReq(p Priority) *Request {
	return &Request{Op: OpExec, Priority: p}
}

// TestRunQueueEvictsLowBeforeHigh pins the eviction contract: a full queue
// admits a higher-priority arrival by evicting the newest queued item of a
// strictly lower priority, and rejects arrivals with nothing below them.
func TestRunQueueEvictsLowBeforeHigh(t *testing.T) {
	rq := newRunQueue(3)
	now := time.Now()
	lows := []*Request{rqReq(PriorityLow), rqReq(PriorityLow), rqReq(PriorityLow)}
	for _, r := range lows {
		if ok, _, ev := rq.push(nil, r, now); !ok || ev {
			t.Fatalf("push low below limit: admitted=%v evicted=%v", ok, ev)
		}
	}
	// A low arrival into a full all-low queue has nothing below it: shed.
	if ok, _, ev := rq.push(nil, rqReq(PriorityLow), now); ok || ev {
		t.Fatalf("low into full low queue: admitted=%v evicted=%v, want rejection", ok, ev)
	}
	// A normal arrival evicts the NEWEST low.
	ok, victim, ev := rq.push(nil, rqReq(PriorityNormal), now)
	if !ok || !ev {
		t.Fatalf("normal into full low queue: admitted=%v evicted=%v, want eviction", ok, ev)
	}
	if victim.req != lows[2] {
		t.Fatalf("evicted the wrong item: got %p, want the newest low %p", victim.req, lows[2])
	}
	if rq.len() != 3 {
		t.Fatalf("depth after eviction = %d, want 3 (evict swaps, never grows)", rq.len())
	}
	// A high arrival still finds lows to evict before normals.
	ok, victim, ev = rq.push(nil, rqReq(PriorityHigh), now)
	if !ok || !ev || victim.req.Priority != PriorityLow {
		t.Fatalf("high eviction: admitted=%v evicted=%v victim prio=%d, want a low victim", ok, ev, victim.req.Priority)
	}
	// Drain the remaining low, then highs can only evict the normal.
	ok, victim, ev = rq.push(nil, rqReq(PriorityHigh), now)
	if !ok || !ev || victim.req.Priority != PriorityLow {
		t.Fatalf("second high eviction: victim prio=%d, want low", victim.req.Priority)
	}
	ok, victim, ev = rq.push(nil, rqReq(PriorityHigh), now)
	if !ok || !ev || victim.req.Priority != PriorityNormal {
		t.Fatalf("third high eviction: victim prio=%d, want normal", victim.req.Priority)
	}
	// Full of high: another high has nothing to evict.
	if ok, _, ev := rq.push(nil, rqReq(PriorityHigh), now); ok || ev {
		t.Fatalf("high into full high queue: admitted=%v evicted=%v, want rejection", ok, ev)
	}
}

// TestRunQueueWeightedFairDequeue pins the dequeue schedule: per refill
// round, high drains 4 items, normal 2, low 1 — so low is served last but
// never starved.
func TestRunQueueWeightedFairDequeue(t *testing.T) {
	rq := newRunQueue(100)
	now := time.Now()
	for i := 0; i < 8; i++ {
		rq.push(nil, rqReq(PriorityHigh), now)
		rq.push(nil, rqReq(PriorityNormal), now)
		rq.push(nil, rqReq(PriorityLow), now)
	}
	var got []Priority
	for i := 0; i < 14; i++ {
		it, ok := rq.pop()
		if !ok {
			t.Fatalf("pop %d: queue reported closed", i)
		}
		got = append(got, it.req.Priority)
	}
	want := []Priority{
		PriorityHigh, PriorityHigh, PriorityHigh, PriorityHigh,
		PriorityNormal, PriorityNormal, PriorityLow, // round 1: 4/2/1
		PriorityHigh, PriorityHigh, PriorityHigh, PriorityHigh,
		PriorityNormal, PriorityNormal, PriorityLow, // round 2
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dequeue order mismatch at %d: got %v, want %v", i, got, want)
		}
	}
}

// TestRunQueueCloseDrains pins shutdown: close wakes dispatchers, queued
// items still drain, then pop reports done.
func TestRunQueueCloseDrains(t *testing.T) {
	rq := newRunQueue(8)
	now := time.Now()
	for i := 0; i < 3; i++ {
		rq.push(nil, rqReq(PriorityNormal), now)
	}
	rq.close()
	for i := 0; i < 3; i++ {
		if _, ok := rq.pop(); !ok {
			t.Fatalf("pop %d after close: queue dropped a queued item", i)
		}
	}
	if _, ok := rq.pop(); ok {
		t.Fatal("pop on closed drained queue returned an item")
	}
	if ok, _, _ := rq.push(nil, rqReq(PriorityHigh), now); ok {
		t.Fatal("push after close admitted")
	}
}

// --- Wire-level shed contract ------------------------------------------------

// overloadNode starts a real server whose exec worker pool is a single
// goroutine running a UDF that blocks until release is closed, with the
// given exec queue bound. Every other class is minimal too.
func overloadNode(t *testing.T, execQueue int, started chan<- struct{}, release <-chan struct{}) (*Server, string) {
	t.Helper()
	reg := NewRegistry()
	reg.Register("block", func(key string, params, value []byte) []byte {
		if started != nil {
			started <- struct{}{}
		}
		<-release
		return append([]byte{}, value...)
	})
	srv := NewServer(reg, false)
	srv.SetAdmission(AdmissionConfig{
		ExecQueue: execQueue, ExecWorkers: 1,
		PutQueue: 16, PutWorkers: 1,
		FetchQueue: 16, FetchWorkers: 1,
	})
	srv.AddTable(TableSpec{Name: "t", UDF: "block",
		Rows: map[string][]byte{"k0": []byte("v0"), "k1": []byte("v1"), "k2": []byte("v2")}})
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(srv.Close)
	return srv, addr
}

func execReq(key string) Request {
	return Request{Op: OpExec, Table: "t", Keys: []string{key}, Params: [][]byte{[]byte("p")}}
}

// TestOverloadShedTypedWithRetryAfter drives the raw wire: with the single
// exec worker blocked and the one-deep exec queue occupied, the next request
// is shed immediately with CodeOverloaded, a positive retry-after hint, and
// the Overload flag — never an opaque timeout — and the server performed
// none of its work.
func TestOverloadShedTypedWithRetryAfter(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	srv, addr := overloadNode(t, 1, started, release)

	p, err := DialPool(addr, 1, nil)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { p.Close() })

	type callRes struct {
		resp *Response
		err  error
	}
	occupant := make(chan callRes, 2)
	// First call occupies the worker...
	go func() {
		r, cerr := p.Call(execReq("k0"))
		occupant <- callRes{r, cerr}
	}()
	<-started
	// ...second fills the one-deep queue.
	go func() {
		r, cerr := p.Call(execReq("k1"))
		occupant <- callRes{r, cerr}
	}()
	waitUntil(t, 5*time.Second, "queued request admitted", func() bool {
		return srv.admission[classExec].len() == 1
	})

	// Third request must be shed at admission, synchronously.
	shedStart := time.Now()
	_, err = p.Call(execReq("k2"))
	shedLat := time.Since(shedStart)
	var le *Error
	if !errors.As(err, &le) {
		t.Fatalf("shed call error = %v, want *Error", err)
	}
	if le.Code != CodeOverloaded {
		t.Fatalf("shed code = %v, want CodeOverloaded", le.Code)
	}
	if !le.Overload {
		t.Fatal("shed error does not carry the Overload flag")
	}
	if le.RetryAfter() < time.Millisecond {
		t.Fatalf("RetryAfter = %v, want >= 1ms", le.RetryAfter())
	}
	if le.Retryable() {
		t.Fatal("CodeOverloaded must not be transport-retryable")
	}
	if shedLat > 2*time.Second {
		t.Fatalf("shed took %v — admission must reject immediately, not time out", shedLat)
	}
	if n := srv.Shed.Load(); n != 1 {
		t.Fatalf("server Shed = %d, want 1", n)
	}
	if n := srv.Execs.Load(); n > 2 {
		t.Fatalf("server executed %d ops — a shed request must cost zero work", n)
	}

	// Release the worker: the occupant and the queued request both finish,
	// and the node serves new traffic again.
	close(release)
	for i := 0; i < 2; i++ {
		select {
		case r := <-occupant:
			if r.err != nil {
				t.Fatalf("occupant call %d failed after release: %v", i, r.err)
			}
			putResponse(r.resp)
		case <-time.After(10 * time.Second):
			t.Fatal("occupant call never resolved after release")
		}
	}
	if resp, cerr := p.Call(execReq("k0")); cerr != nil {
		t.Fatalf("post-recovery call failed: %v", cerr)
	} else {
		putResponse(resp)
	}
}

// TestOverloadAdvertisesCreditWindow pins the v3 feedback loop at the pool:
// a served response stamps a nonzero window, the saturated node advertises
// zero credit, and both surface through PoolHealth.
func TestOverloadAdvertisesCreditWindow(t *testing.T) {
	release := make(chan struct{})
	close(release) // UDF never blocks in this test
	_, addr := overloadNode(t, 8, nil, release)

	p, err := DialPool(addr, 1, nil)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { p.Close() })

	resp, err := p.Call(execReq("k0"))
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	putResponse(resp)
	credit, window := p.lastCredits()
	if window == 0 {
		t.Fatal("served response advertised window 0 — a v3 server must always signal")
	}
	if credit == 0 {
		t.Fatalf("idle node advertised credit 0 of window %d", window)
	}
	h := p.Health()
	if h.Window != window || h.Credit != credit {
		t.Fatalf("PoolHealth credit/window = %d/%d, want %d/%d", h.Credit, h.Window, credit, window)
	}
	if p.budget() != int64(window) {
		t.Fatalf("budget = %d, want %d (window x 1 slot)", p.budget(), window)
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// --- Executor-level storm tests ----------------------------------------------

// slowNode starts a real server with a deliberately slow UDF and a tiny
// exec queue drained by one worker: capacity is ~1/(udfDelay) ops/sec, so
// an open-loop storm is far past 2x capacity.
func slowNode(t *testing.T, execQueue int, udfDelay time.Duration) (*Server, string) {
	t.Helper()
	reg := NewRegistry()
	reg.Register("slow", func(key string, params, value []byte) []byte {
		time.Sleep(udfDelay)
		out := append([]byte{}, value...)
		out = append(out, '/')
		return append(out, params...)
	})
	srv := NewServer(reg, false)
	srv.SetAdmission(AdmissionConfig{
		ExecQueue: execQueue, ExecWorkers: 1,
		PutQueue: 16, PutWorkers: 1,
		FetchQueue: 64, FetchWorkers: 2,
	})
	rows := make(map[string][]byte, 64)
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("k%d", i)
		rows[k] = []byte("v-" + k)
	}
	srv.AddTable(TableSpec{Name: "t", UDF: "slow", Rows: rows})
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(srv.Close)
	return srv, addr
}

// stormExec builds an executor tuned for open-loop overload: batches of one,
// retries disabled, compute-always routing so every op rides the exec queue.
func stormExec(t *testing.T, addr string) *Executor {
	return singleNodeExec(t, addr, func(cfg *ExecConfig) {
		cfg.Optimizer = core.Config{Policy: core.Policy{AlwaysCompute: true}}
		cfg.Shards = 1
		cfg.Workers = 4
		cfg.BatchSize = 1
		cfg.MaxRetries = -1
		cfg.RequestTimeout = 10 * time.Second
	})
}

// TestOverloadStormShedsNeverHangs is the tentpole acceptance test: an
// open-loop storm far past the node's capacity. Every op must resolve —
// served, or shed with the typed CodeOverloaded — with zero opaque
// timeouts, the extended counter invariant intact, client goroutines back
// to baseline after the storm, and the node serving normally again once the
// storm passes.
func TestOverloadStormShedsNeverHangs(t *testing.T) {
	const storm = 400
	srv, addr := slowNode(t, 4, 5*time.Millisecond)
	e := stormExec(t, addr)
	tbl := e.Table("t")

	// Warm up one op end to end, then take the goroutine baseline.
	if _, err := waitOrHang(t, tbl.Submit(context.Background(), "k0", []byte("w")), 10*time.Second); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	baseline := runtime.NumGoroutine()

	futs := make([]*Future, storm)
	for i := range futs {
		futs[i] = tbl.Submit(context.Background(), fmt.Sprintf("k%d", i%64), []byte("p"))
	}
	var served, shed, timeouts, other int64
	for i, f := range futs {
		_, err := waitOrHang(t, f, 60*time.Second)
		var le *Error
		switch {
		case err == nil:
			served++
		case errors.As(err, &le) && le.Code == CodeOverloaded:
			shed++
		case errors.As(err, &le) && le.Code == CodeTimeout:
			timeouts++
		default:
			other++
			t.Errorf("op %d: unexpected error %v", i, err)
		}
	}
	if served+shed+timeouts+other != storm {
		t.Fatalf("accounting: %d+%d+%d+%d != %d", served, shed, timeouts, other, storm)
	}
	if timeouts != 0 {
		t.Fatalf("%d ops timed out — overload must surface as typed sheds, never opaque timeouts", timeouts)
	}
	if shed == 0 {
		t.Fatalf("storm of %d ops against ~200 ops/sec capacity shed nothing (served=%d)", storm, served)
	}
	if served == 0 {
		t.Fatal("shedding must protect service, not replace it: zero ops served during the storm")
	}
	if got := e.Shed.Load(); got != shed {
		t.Fatalf("Stats Shed = %d, want %d (one per shed op, none in Failed)", got, shed)
	}
	if got := e.Failed.Load(); got != 0 {
		t.Fatalf("Failed = %d, want 0 — sheds must not masquerade as failures", got)
	}
	if srv.Shed.Load() == 0 {
		t.Fatal("server shed counter is zero after a storm")
	}
	invariantSum(t, e, storm+1) // +1 warmup

	// Bounded memory/goroutines: the storm's transient flush goroutines
	// must drain back to (about) the warm baseline.
	waitUntil(t, 10*time.Second, "goroutines to return to baseline", func() bool {
		return runtime.NumGoroutine() <= baseline+16
	})

	// Throughput recovers: with the storm gone, closed-loop traffic is
	// served without sheds.
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%d", i)
		v, err := waitOrHang(t, tbl.Submit(context.Background(), k, []byte("q")), 10*time.Second)
		if err != nil {
			t.Fatalf("post-storm op %d: %v", i, err)
		}
		if want := "v-" + k + "/q"; string(v) != want {
			t.Fatalf("post-storm op %d: %q, want %q", i, v, want)
		}
	}
	invariantSum(t, e, storm+11)
}

// TestOverloadLowPriorityShedsFirst runs a sustained low-priority storm and
// threads sequential high-priority calls through it: the highs must all be
// served (admission evicts queued low work to admit them) while the storm
// sheds, and only low-priority ops pay for the overload.
func TestOverloadLowPriorityShedsFirst(t *testing.T) {
	_, addr := slowNode(t, 4, 3*time.Millisecond)
	e := stormExec(t, addr)
	tbl := e.Table("t")

	var (
		mu       sync.Mutex
		lowFuts  []*Future
		stopLow  atomic.Bool
		lowsDone = make(chan struct{})
	)
	go func() {
		defer close(lowsDone)
		for !stopLow.Load() {
			mu.Lock()
			for i := 0; i < 16; i++ {
				lowFuts = append(lowFuts, tbl.Submit(context.Background(),
					fmt.Sprintf("k%d", len(lowFuts)%64), []byte("lo"), WithPriority(PriorityLow)))
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
		}
	}()

	const highs = 12
	var highErrs []error
	for i := 0; i < highs; i++ {
		_, err := waitOrHang(t, tbl.Submit(context.Background(),
			fmt.Sprintf("k%d", i), []byte("hi"), WithPriority(PriorityHigh)), 20*time.Second)
		if err != nil {
			highErrs = append(highErrs, err)
		}
	}
	stopLow.Store(true)
	<-lowsDone

	var lowShed, lowServed int64
	mu.Lock()
	futs := lowFuts
	mu.Unlock()
	for _, f := range futs {
		_, err := waitOrHang(t, f, 60*time.Second)
		var le *Error
		switch {
		case err == nil:
			lowServed++
		case errors.As(err, &le) && le.Code == CodeOverloaded:
			lowShed++
		default:
			t.Errorf("low op: unexpected error %v", err)
		}
	}
	if len(highErrs) != 0 {
		t.Fatalf("%d/%d high-priority ops failed under a low-priority storm (first: %v) — high must be shed last",
			len(highErrs), highs, highErrs[0])
	}
	if lowShed == 0 {
		t.Fatalf("low-priority storm shed nothing (%d served) — the storm never saturated admission", lowServed)
	}
	invariantSum(t, e, int64(len(futs))+highs)
}

// TestTimeoutMessageSplitsQueueFromService pins satellite contract: a
// deadline that expires while the node advertises zero credit is attributed
// to queueing (and flagged Overload), one that expires with credits
// available is attributed to service — so "server never dequeued it" and
// "UDF ran long" are distinguishable without string-diffing wire dumps.
func TestTimeoutMessageSplitsQueueFromService(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	_, addr := overloadNode(t, 8, started, release)
	// The occupant's executor keeps the default deadline; the probes' has a
	// short one.
	executor := func(timeout time.Duration) *Executor {
		return singleNodeExec(t, addr, func(cfg *ExecConfig) {
			cfg.Optimizer = core.Config{Policy: core.Policy{AlwaysCompute: true}}
			cfg.Shards = 1
			cfg.BatchSize = 1
			cfg.MaxRetries = -1
			cfg.RequestTimeout = timeout
		})
	}
	e, tbl := executor(0), executor(150*time.Millisecond).Table("t")

	// Occupy the single worker so later ops sit in the run queue.
	occupant := e.Table("t").Submit(context.Background(), "k0", []byte("p"))
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("occupant UDF never started")
	}

	// The node is saturated: fabricate its last advertisement accordingly
	// (a real storm would deliver this through a shed or served response).
	tbl.e.pool(0).observeCredit(0, 4)
	_, err := tbl.Call(context.Background(), "k1", []byte("p"))
	var le *Error
	if !errors.As(err, &le) || le.Code != CodeTimeout {
		t.Fatalf("saturated timeout: %v, want CodeTimeout", err)
	}
	if !le.Overload {
		t.Fatal("timeout under zero credit must carry the Overload attribution")
	}
	if !containsStr(le.Msg, "queued") {
		t.Fatalf("saturated timeout message %q does not attribute queueing", le.Msg)
	}

	// With credits available the same deadline is attributed to service.
	tbl.e.pool(0).observeCredit(3, 4)
	_, err = tbl.Call(context.Background(), "k2", []byte("p"))
	if !errors.As(err, &le) || le.Code != CodeTimeout {
		t.Fatalf("in-service timeout: %v, want CodeTimeout", err)
	}
	if le.Overload {
		t.Fatal("timeout with credits available must not be attributed to overload")
	}
	if !containsStr(le.Msg, "in service") {
		t.Fatalf("in-service timeout message %q does not attribute service time", le.Msg)
	}

	close(release)
	if _, err := waitOrHang(t, occupant, 10*time.Second); err != nil {
		t.Fatalf("occupant after release: %v", err)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestAdaptBatchFeedback pins the client's batch-size adaptation: zero
// credit halves the node's target down to the floor, plentiful credit grows
// it back to the configured size.
func TestAdaptBatchFeedback(t *testing.T) {
	release := make(chan struct{})
	close(release)
	_, addr := overloadNode(t, 8, nil, release)
	e := singleNodeExec(t, addr, func(cfg *ExecConfig) {
		cfg.BatchSize = 64
	})
	if got := e.batchLimit(0); got != 64 {
		t.Fatalf("unadapted batch limit = %d, want 64", got)
	}
	// The pool is the one holder of the node's credit/window pair: advertise
	// through it, as a response would.
	adapt := func(credit, window uint8) {
		e.pool(0).observeCredit(credit, window)
		e.adaptBatch(0)
	}
	adapt(0, 16) // starved
	if got := e.batchLimit(0); got != 32 {
		t.Fatalf("after one starved response: %d, want 32", got)
	}
	for i := 0; i < 10; i++ {
		adapt(0, 16)
	}
	if got := e.batchLimit(0); got != 8 {
		t.Fatalf("starvation floor = %d, want 8", got)
	}
	for i := 0; i < 32; i++ {
		adapt(12, 16) // plentiful credit
	}
	if got := e.batchLimit(0); got != 64 {
		t.Fatalf("after recovery: %d, want the configured 64", got)
	}
	adapt(1, 16) // scarce but nonzero credit: hold
	if got := e.batchLimit(0); got != 64 {
		t.Fatalf("scarce credit changed the target to %d, want hold at 64", got)
	}
}

// TestServerRetryHintGrowsWithQueue pins the retry-after pricing: a deeper
// queue advertises a longer hint, clamped to the maximum. The queue is
// assembled directly (no Serve, no dispatchers) so depth is controlled.
func TestServerRetryHintGrowsWithQueue(t *testing.T) {
	srv := NewServer(NewRegistry(), false)
	srv.admission[classExec] = newRunQueue(64)
	srv.admWorkers[classExec] = 1
	for i := 0; i < 8; i++ {
		srv.classSvc[classExec].observe(0.010) // settle the EWMA at ~10ms/op
	}
	shallow := srv.retryAfterHint(classExec)
	for i := 0; i < 32; i++ {
		srv.admission[classExec].push(nil, rqReq(PriorityNormal), time.Now())
	}
	deep := srv.retryAfterHint(classExec)
	if deep <= shallow {
		t.Fatalf("retry-after hint did not grow with queue depth: shallow=%dms deep=%dms", shallow, deep)
	}
	if deep > maxRetryAfterMillis {
		t.Fatalf("hint %dms exceeds the %dms clamp", deep, maxRetryAfterMillis)
	}
}
