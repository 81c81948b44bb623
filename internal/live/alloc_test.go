package live

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
	"unsafe"

	"joinopt/internal/cluster"
	"joinopt/internal/core"
	"joinopt/internal/store"
)

// The allocation budgets of the hot path, locked in by testing.AllocsPerRun
// so a future change cannot silently reintroduce per-op garbage. The
// encode and decode budgets are exact; the end-to-end round trip asserts a
// ceiling (roundTripAllocBudget) documented in DESIGN.md.
const (
	encodeRequestAllocs  = 0
	encodeResponseAllocs = 0
	decodeIntoAllocs     = 0
	// roundTripAllocBudget bounds a steady-state Submit→WaitErr crossing
	// the wire as a batch of one: the flush goroutine and the response
	// frame (an exact-size GC allocation because its values escape into
	// futures); the Future header is cut from a chunk of 51, so it costs
	// no allocation of its own. Half the 11 allocs/op the pre-pooling
	// lifecycle paid in the batched throughput benchmark — and that was
	// amortized over 64-op batches; this budget is per unamortized round
	// trip.
	roundTripAllocBudget = 5.5
	// localHitAllocBudget bounds a steady-state Submit→WaitErr of a cached
	// key, which never leaves the process: the UDF's output. The run is a
	// value in the local workers' queue, not a goroutine or a closure, and
	// the Future header comes from a chunk.
	localHitAllocBudget = 1
	// putRoundTripAllocs is a steady-state Table.Put of an unreplicated key:
	// the flush goroutine of the put's wire call. The ack carries no value,
	// so the client decodes it in place in its read buffer, and a put that
	// nobody caches owes no notification.
	putRoundTripAllocs = 1
)

// noGC pins the garbage collector off for the duration of an AllocsPerRun
// measurement: a GC pass clears sync.Pools, and a pool refill mid-run
// would count as a (spurious, unreproducible) allocation. It also skips
// the test under the race detector, whose instrumentation allocates on its
// own and would blow any budget.
func noGC(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

func TestEncodeRequestAllocFree(t *testing.T) {
	noGC(t)
	req := benchRequest()
	buf := make([]byte, 0, 64<<10)
	if n := testing.AllocsPerRun(200, func() {
		buf = appendRequest(buf[:0], req)
	}); n > encodeRequestAllocs {
		t.Errorf("appendRequest allocates %.1f/op, budget %d", n, encodeRequestAllocs)
	}
}

func TestEncodeResponseAllocFree(t *testing.T) {
	noGC(t)
	resp := benchResponse()
	buf := make([]byte, 0, 256<<10)
	if n := testing.AllocsPerRun(200, func() {
		buf = appendResponse(buf[:0], resp)
	}); n > encodeResponseAllocs {
		t.Errorf("appendResponse allocates %.1f/op, budget %d", n, encodeResponseAllocs)
	}
}

// TestDecodeIntoAllocFree locks in the pooled decode paths: decoding into
// a reused message reuses its slice capacities (and, for requests, the
// connection's interned strings), so the steady state allocates nothing.
func TestDecodeIntoAllocFree(t *testing.T) {
	noGC(t)
	respPayload := appendResponse(nil, benchResponse())
	var resp Response
	if err := decodeResponseInto(respPayload, &resp); err != nil { // warm capacities
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := decodeResponseInto(respPayload, &resp); err != nil {
			t.Fatal(err)
		}
	}); n > decodeIntoAllocs {
		t.Errorf("decodeResponseInto allocates %.1f/op, budget %d", n, decodeIntoAllocs)
	}

	reqPayload := appendRequest(nil, benchRequest())
	var req Request
	var in interner
	if err := decodeRequestInto(reqPayload, &req, &in); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := decodeRequestInto(reqPayload, &req, &in); err != nil {
			t.Fatal(err)
		}
	}); n > decodeIntoAllocs {
		t.Errorf("decodeRequestInto (interned) allocates %.1f/op, budget %d", n, decodeIntoAllocs)
	}
}

// allocHarness builds the round-trip measurement rig: one server, one
// single-shard batch-of-one executor under the given ExecConfig.RequestTimeout
// (0: the default), warmed pools and interner.
func allocHarness(t *testing.T, requestTimeout time.Duration) (e *Executor, keyNames []string) {
	t.Helper()
	reg := NewRegistry()
	reg.Register("id", Identity)

	const keys = 64
	ids := []cluster.NodeID{0}
	catalog := store.CatalogFunc(func(string) store.RowMeta {
		return store.RowMeta{ValueSize: 256}
	})
	table := store.NewTable("t", catalog, 1, ids)
	rows := make(map[string][]byte, keys)
	keyNames = make([]string, keys)
	val := bytes.Repeat([]byte("v"), 256)
	for i := range keyNames {
		keyNames[i] = fmt.Sprintf("k%d", i)
		rows[keyNames[i]] = val
	}

	srv := NewServer(reg, false)
	srv.AddTable(TableSpec{Name: "t", UDF: "id", Rows: rows})
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	e, err = NewExecutor(ExecConfig{
		Tables:    map[string]*store.Table{"t": table},
		Addrs:     map[cluster.NodeID]string{0: addr},
		Registry:  reg,
		TableUDF:  map[string]string{"t": "id"},
		Optimizer: core.Config{Policy: core.Policy{AlwaysCompute: true}},
		// A batch of one flushes inline on Submit (no max-wait timer is
		// ever armed) and one state shard: the measured loop is exactly
		// the request lifecycle.
		BatchSize:      1,
		BatchWait:      time.Millisecond,
		Shards:         1,
		RequestTimeout: requestTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)

	// Warm every pool, the conns and the server-side interner.
	for i := 0; i < 3; i++ {
		for _, k := range keyNames {
			if _, err := e.Table("t").Submit(context.Background(), k, nil).WaitErr(); err != nil {
				t.Fatalf("warm-up: %v", err)
			}
		}
	}
	return e, keyNames
}

// TestRoundTripAllocBudget measures a full steady-state Submit→WaitErr
// round trip — executor, wire, server, UDF, response, resolve — as an
// unamortized batch of one with a background context and no options, under
// a RequestTimeout the executor sets, and asserts the documented budget:
// handle resolution, the context plumbing and the per-attempt deadline
// timer must not add per-op allocations.
func TestRoundTripAllocBudget(t *testing.T) {
	roundTripAllocs(t, time.Minute)
}

// TestRoundTripAllocBudgetDefaultTimeout holds the round trip to the same
// budget under the default RequestTimeout. Every wire attempt waits under a
// deadline timer, and the timer is pooled: a lone caller's batch of one is
// the normal case, so its cost would be per op, not per 64.
func TestRoundTripAllocBudgetDefaultTimeout(t *testing.T) {
	roundTripAllocs(t, 0)
}

func roundTripAllocs(t *testing.T, requestTimeout time.Duration, opts ...CallOption) {
	e, keyNames := allocHarness(t, requestTimeout)
	tbl := e.Table("t")
	ctx := context.Background()
	noGC(t)
	i := 0
	n := testing.AllocsPerRun(300, func() {
		if _, err := tbl.Submit(ctx, keyNames[i%len(keyNames)], nil, opts...).WaitErr(); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("steady-state round trip: %.2f allocs/op (budget %.1f)", n, roundTripAllocBudget)
	if n > roundTripAllocBudget {
		t.Errorf("round trip allocates %.2f/op, budget %.1f", n, roundTripAllocBudget)
	}
}

// TestPriorityRoundTripAllocBudget is the same round trip under the
// priorities, alternating: their accumulators must stay mapped between
// calls, so the steady state never re-enters newAccumulator (table clone,
// accumulator, limit closure, timer) and costs what the default policy
// costs. The option is a value, so passing it allocates nothing.
func TestPriorityRoundTripAllocBudget(t *testing.T) {
	e, keyNames := allocHarness(t, 0)
	tbl := e.Table("t")
	ctx := context.Background()
	prios := []CallOption{WithPriority(PriorityLow), WithPriority(PriorityHigh)}
	submit := func(i int) {
		if _, err := tbl.Submit(ctx, keyNames[i%len(keyNames)], nil, prios[i%2]).WaitErr(); err != nil {
			t.Fatal(err)
		}
	}
	submit(0)
	submit(1)
	accs := e.accs.Load()
	noGC(t)
	i := 0
	n := testing.AllocsPerRun(300, func() { submit(i); i++ })
	t.Logf("steady-state round trip under alternating priorities: %.2f allocs/op", n)
	if n > roundTripAllocBudget {
		t.Errorf("priority round trip allocates %.2f/op, budget %.1f", n, roundTripAllocBudget)
	}
	if e.accs.Load() != accs {
		t.Error("the accumulator table was republished in steady state: a priority's accumulator was evicted")
	}
}

// TestLocalHitAllocBudget measures a steady-state Submit→WaitErr of a key the
// optimizer has bought, the compute-node join the paper's skewed workloads
// live on, and asserts the documented budget: routing to the local cache,
// queuing the UDF run for a worker and resolving the future add nothing to
// what the caller and the UDF allocate themselves.
func TestLocalHitAllocBudget(t *testing.T) {
	e := localExec(t, 8, copyUDF, nil, "k0", "k1", "k2", "k3")
	tbl, ctx := e.Table("t"), context.Background()
	keys := []string{"k0", "k1", "k2", "k3"}
	submit := func(i int) {
		if _, err := tbl.Submit(ctx, keys[i%len(keys)], nil).WaitErr(); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 64 {
		submit(i)
	}
	hits := e.LocalHits.Load()
	noGC(t)
	i := 0
	n := testing.AllocsPerRun(300, func() { submit(i); i++ })
	t.Logf("steady-state local hit: %.2f allocs/op (budget %d)", n, localHitAllocBudget)
	if got := e.LocalHits.Load() - hits; got != 301 {
		t.Fatalf("%d of 301 measured ops were local hits", got)
	}
	if n > localHitAllocBudget {
		t.Errorf("local hit allocates %.2f/op, budget %d", n, localHitAllocBudget)
	}
}

// TestPutRoundTripAllocBudget measures a steady-state Table.Put — executor,
// wire, server commit, ack — and pins the measured count: the ack frame is
// decoded where it lies in the client's read buffer (readMessage), so it
// costs no frame allocation.
func TestPutRoundTripAllocBudget(t *testing.T) {
	e, keyNames := allocHarness(t, 0)
	tbl := e.Table("t")
	ctx := context.Background()
	val := []byte("value")
	for _, k := range keyNames {
		if _, err := tbl.Put(ctx, k, val); err != nil {
			t.Fatal(err)
		}
	}
	noGC(t)
	i := 0
	n := testing.AllocsPerRun(300, func() {
		if _, err := tbl.Put(ctx, keyNames[i%len(keyNames)], val); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("steady-state put round trip: %.2f allocs/op (budget %d)", n, putRoundTripAllocs)
	if n > putRoundTripAllocs {
		t.Errorf("put round trip allocates %.2f/op, budget %d", n, putRoundTripAllocs)
	}
}

// TestNoCacheFetchRoundTripAllocBudget is the round trip of a WithNoCache
// call: a flagged fetch, which the node answers without registering a
// cacher, then the UDF on a local worker. The flag changes what the node
// keeps, not what the client allocates: the value still arrives in an
// exact-size frame it aliases.
func TestNoCacheFetchRoundTripAllocBudget(t *testing.T) {
	roundTripAllocs(t, 0, WithNoCache())
}

// futChunkSink keeps the chunks TestFutChunkAllocFillsSizeClass allocates on
// the heap, where the size classes apply.
var futChunkSink []*futChunk

// TestFutChunkAllocFillsSizeClass measures what one futChunk costs the
// allocator, malloc header and size-class rounding included: the headers cut
// from it may waste less than 1 B each, and the chunk stays within 4 KiB.
func TestFutChunkAllocFillsSizeClass(t *testing.T) {
	noGC(t)
	const chunks = 256
	futChunkSink = make([]*futChunk, 0, chunks)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range chunks {
		futChunkSink = append(futChunkSink, new(futChunk))
	}
	runtime.ReadMemStats(&after)
	futChunkSink = nil
	per := float64(after.TotalAlloc-before.TotalAlloc) / chunks
	waste := (per - float64(futChunkLen*unsafe.Sizeof(Future{}))) / float64(futChunkLen)
	t.Logf("a chunk of %d futures costs %.0f B, %.2f B of waste per future", futChunkLen, per, waste)
	if per > futChunkClass || waste >= 1 {
		t.Errorf("a chunk of %d futures costs %.0f B (%.2f B of waste per future), want <= %d B and < 1 B",
			futChunkLen, per, waste, futChunkClass)
	}
}
