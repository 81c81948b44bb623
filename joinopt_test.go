package joinopt

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
)

func startTestCluster(t *testing.T, policy Policy) (*Cluster, *Client) {
	t.Helper()
	c := NewCluster(3, policy)
	c.RegisterUDF("greet", func(key string, params, value []byte) []byte {
		out := append([]byte("hello "), value...)
		out = append(out, params...)
		return out
	})
	rows := map[string][]byte{}
	for i := 0; i < 60; i++ {
		rows[fmt.Sprintf("user%d", i)] = []byte(fmt.Sprintf("u%d", i))
	}
	c.AddTable(TableSpec{Name: "users", UDFName: "greet", Rows: rows})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cl, err := c.NewClient(ClientOptions{MemCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return c, cl
}

func TestClusterEndToEnd(t *testing.T) {
	_, cl := startTestCluster(t, Full)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("user%d", i%60)
		got, err := cl.CallCtx(context.Background(), "users", k, []byte("!"))
		want := []byte(fmt.Sprintf("hello u%d!", i%60))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Call(%s) = %q, %v, want %q", k, got, err, want)
		}
	}
}

func TestAsyncSubmit(t *testing.T) {
	_, cl := startTestCluster(t, Full)
	var futs []*Future
	for i := 0; i < 50; i++ {
		futs = append(futs, cl.Table("users").Submit(context.Background(), fmt.Sprintf("user%d", i), nil))
	}
	for i, f := range futs {
		want := []byte(fmt.Sprintf("hello u%d", i))
		if got, err := f.WaitErr(); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("future %d = %q, %v, want %q", i, got, err, want)
		}
	}
}

func TestHotKeyCachingReducesServerLoad(t *testing.T) {
	c, cl := startTestCluster(t, Full)
	for i := 0; i < 400; i++ {
		cl.CallCtx(context.Background(), "users", "user7", []byte("x"))
	}
	if cl.Stats().LocalHits == 0 {
		t.Fatal("hot key never hit the local cache")
	}
	var remote int64
	for _, s := range c.Servers() {
		remote += s.Execs.Load() + s.Gets.Load()
	}
	if remote > 350 {
		t.Fatalf("servers handled %d of 400 hot-key requests; caching ineffective", remote)
	}
}

func TestFetchAlwaysPolicyNeverCaches(t *testing.T) {
	_, cl := startTestCluster(t, FetchAlways)
	for i := 0; i < 50; i++ {
		cl.CallCtx(context.Background(), "users", "user3", nil)
	}
	st := cl.Stats()
	if st.LocalHits != 0 {
		t.Fatalf("FetchAlways produced %d cache hits", st.LocalHits)
	}
	if st.Fetches != 50 {
		t.Fatalf("FetchAlways fetched %d times, want 50", st.Fetches)
	}
}

func TestComputeAtDataPolicy(t *testing.T) {
	_, cl := startTestCluster(t, ComputeAtData)
	for i := 0; i < 50; i++ {
		cl.CallCtx(context.Background(), "users", fmt.Sprintf("user%d", i), nil)
	}
	st := cl.Stats()
	if st.RemoteComputed != 50 {
		t.Fatalf("ComputeAtData computed %d remotely, want 50 (%+v)", st.RemoteComputed, st)
	}
}

func TestMapReduceEngineViaFacade(t *testing.T) {
	_, cl := startTestCluster(t, Full)
	job := &MapReduceJob{
		Input: []Record{
			{Key: "user1", Value: []byte("?")},
			{Key: "user2", Value: []byte("?")},
		},
		Store: cl.Executor(),
		PreMap: func(r Record, pf *MapPrefetcher) {
			pf.Submit("users", r.Key, r.Value)
		},
		Map: func(r Record, pf *MapPrefetcher, out Emitter) {
			out.Emit(r.Key, pf.Fetch("users", r.Key, r.Value))
		},
	}
	got := job.Run()
	if len(got) != 2 || !bytes.Equal(got[0].Value, []byte("hello u1?")) {
		t.Fatalf("mapreduce output %v", got)
	}
}

func TestRDDEngineViaFacade(t *testing.T) {
	_, cl := startTestCluster(t, Full)
	ctx := NewRDDContext(cl, 2)
	out := ctx.FromRows([]Row{{"k": "user5"}, {"k": "user6"}}).
		MapWithPremap(
			func(r Row, a *Async) { a.Submit("users", r["k"], nil) },
			func(r Row, a *Async) Row {
				r["greeting"] = string(a.Fetch("users", r["k"], nil))
				return r
			}).
		Collect()
	if len(out) != 2 || out[0]["greeting"] != "hello u5" {
		t.Fatalf("rdd output %v", out)
	}
}

func TestStreamEngineViaFacade(t *testing.T) {
	_, cl := startTestCluster(t, Full)
	results := make(chan []byte, 100)
	pool := NewStreamPool(StreamConfig{
		Store: cl.Executor(),
		PreMap: func(e Event, pf *StreamPrefetcher) {
			pf.Submit("users", e.Key, e.Value)
		},
		Update: func(e Event, pf *StreamPrefetcher) {
			results <- pf.Fetch("users", e.Key, e.Value)
		},
	})
	for i := 0; i < 100; i++ {
		pool.Feed(Event{Key: fmt.Sprintf("user%d", i%60)})
	}
	pool.Drain()
	close(results)
	n := 0
	for r := range results {
		if !bytes.HasPrefix(r, []byte("hello u")) {
			t.Fatalf("bad stream result %q", r)
		}
		n++
	}
	if n != 100 {
		t.Fatalf("stream produced %d results, want 100", n)
	}
}

func TestSimulateFacade(t *testing.T) {
	tuples := make([]SimTuple, 2000)
	for i := range tuples {
		tuples[i] = SimTuple{Keys: []string{fmt.Sprintf("k%d", i%100)}, ParamSize: 64}
	}
	rep := Simulate(SimConfig{
		ComputeNodes: 4,
		DataNodes:    4,
		Strategy:     StrategyFO,
		Tables: []SimTable{{
			Name: "t",
			Row: func(string) (int64, int64, float64) {
				return 10_000, 256, 1e-3
			},
		}},
		Seed: 5,
	}, tuples)
	if rep.Tuples != 2000 {
		t.Fatalf("simulated %d tuples, want 2000", rep.Tuples)
	}
	if rep.Throughput <= 0 {
		t.Fatal("no throughput")
	}
	// 100 hot keys out of 2000 tuples: caching must engage.
	if rep.MemHits+rep.DiskHits == 0 {
		t.Fatal("simulation produced no cache hits for 20x-repeated keys")
	}
}

func TestClusterValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCluster(0) did not panic")
		}
	}()
	NewCluster(0, Full)
}

func TestClientBeforeStartFails(t *testing.T) {
	c := NewCluster(1, Full)
	if _, err := c.NewClient(ClientOptions{}); err == nil {
		t.Fatal("NewClient before Start succeeded")
	}
}

// Compute nodes hold no state besides cached data (Section 1's elasticity
// claim): clients can join and leave a running cluster freely.
func TestElasticComputeNodes(t *testing.T) {
	c, first := startTestCluster(t, Full)
	for i := 0; i < 50; i++ {
		first.CallCtx(context.Background(), "users", fmt.Sprintf("user%d", i%60), nil)
	}
	// Scale up: a second compute node joins mid-run.
	second, err := c.NewClient(ClientOptions{MemCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		want := fmt.Sprintf("hello u%d", i%60)
		if got, err := second.CallCtx(context.Background(), "users", fmt.Sprintf("user%d", i%60), nil); err != nil || string(got) != want {
			t.Fatalf("new client got %q, %v, want %q", got, err, want)
		}
	}
	// Scale down: the first client leaves; the second keeps working.
	first.Close()
	for i := 0; i < 20; i++ {
		if got, err := second.CallCtx(context.Background(), "users", "user1", nil); err != nil || string(got) != "hello u1" {
			t.Fatalf("surviving client got %q, %v", got, err)
		}
	}
	second.Close()
}

func TestShardsKnobAndOpAccounting(t *testing.T) {
	c := NewCluster(2, Full)
	c.RegisterUDF("echo", func(key string, params, value []byte) []byte {
		return append(append([]byte{}, value...), params...)
	})
	rows := map[string][]byte{}
	for i := 0; i < 40; i++ {
		rows[fmt.Sprintf("k%d", i)] = []byte(fmt.Sprintf("v%d", i))
	}
	c.AddTable(TableSpec{Name: "t", UDFName: "echo", Rows: rows})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	cl, err := c.NewClient(ClientOptions{MemCacheBytes: 1 << 20, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if got := cl.Executor().Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}

	const ops = 300
	var futs []*Future
	for i := 0; i < ops; i++ {
		futs = append(futs, cl.Table("t").Submit(context.Background(), fmt.Sprintf("k%d", i%40), []byte("!")))
	}
	for i, f := range futs {
		want := []byte(fmt.Sprintf("v%d!", i%40))
		if got, err := f.WaitErr(); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("op %d = %q, %v, want %q", i, got, err, want)
		}
	}

	// Every completed op lands in exactly one Stats bucket.
	s := cl.Stats()
	if sum := s.LocalHits + s.RemoteComputed + s.RemoteRaw + s.FetchServed; sum != ops {
		t.Fatalf("stats account for %d ops (%+v), want %d", sum, s, ops)
	}
}

// TestTableHandle drives the client surface end to end through the public
// API: handle resolution, context-scoped Submit/Call, WaitCtx, per-call
// route hints, and the extended Stats accounting.
func TestTableHandle(t *testing.T) {
	_, cl := startTestCluster(t, Full)
	ctx := context.Background()
	users := cl.Table("users")
	if users != cl.Table("users") {
		t.Fatal("Table() must return the same resolved handle")
	}

	v, err := users.Call(ctx, "user3", []byte("!"))
	if err != nil || !bytes.Equal(v, []byte("hello u3!")) {
		t.Fatalf("handle Call: %q, %v", v, err)
	}
	// A missing key is not an error (the greet UDF runs on the nil row).
	if v, err := users.Call(ctx, "ghost", nil); err != nil || !bytes.Equal(v, []byte("hello ")) {
		t.Fatalf("missing key through handle: %q, %v (want the UDF's nil-row output, nil error)", v, err)
	}
	// Per-call FD: the op must ship to a data node as a compute request
	// (whose balancer may still bounce it back: RemoteRaw).
	pre := cl.Stats()
	if _, err := users.Call(ctx, "user4", []byte("?"), WithRoute(ForceCompute)); err != nil {
		t.Fatal(err)
	}
	post := cl.Stats()
	if post.RemoteComputed+post.RemoteRaw != pre.RemoteComputed+pre.RemoteRaw+1 {
		t.Fatalf("ForceCompute did not ship a compute request (stats %+v -> %+v)", pre, post)
	}
	// Async + WaitCtx.
	f := users.Submit(ctx, "user5", []byte("."))
	if v, err := f.WaitCtx(ctx); err != nil || !bytes.Equal(v, []byte("hello u5.")) {
		t.Fatalf("WaitCtx: %q, %v", v, err)
	}

	// Cancellation surfaces as ErrCanceled and lands in Stats.Canceled.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	_, err = users.Call(cctx, "user6", nil)
	var je *Error
	if !errors.As(err, &je) || je.Code != ErrCanceled {
		t.Fatalf("canceled ctx: %v, want ErrCanceled", err)
	}
	s := cl.Stats()
	if s.Canceled != 1 {
		t.Fatalf("Stats.Canceled = %d, want 1", s.Canceled)
	}
	const ops = 5 // user3, ghost, user4, user5, user6
	if sum := s.LocalHits + s.RemoteComputed + s.RemoteRaw + s.FetchServed + s.Failed + s.Canceled; sum != ops {
		t.Fatalf("stats account for %d ops (%+v), want %d", sum, s, ops)
	}
}

// TestFailedCallCounted pins that a failed request is never silently
// identical to a missing key: it comes back as a typed error AND is counted
// in Stats.Failed, so a caller that drops the error still sees the loss.
func TestFailedCallCounted(t *testing.T) {
	c, cl := startTestCluster(t, Full)
	ctx := context.Background()
	// A healthy call: nothing failed.
	if v, err := cl.CallCtx(ctx, "users", "user1", nil); err != nil || !bytes.Equal(v, []byte("hello u1")) {
		t.Fatalf("healthy call = %q, %v, want %q", v, err, "hello u1")
	}
	if s := cl.Stats(); s.Failed != 0 {
		t.Fatalf("healthy call counted as Failed (%d)", s.Failed)
	}
	// Kill the cluster: the call fails typed and shows in Stats.Failed.
	c.Close()
	var je *Error
	if v, err := cl.CallCtx(ctx, "users", "user1", nil); v != nil || !errors.As(err, &je) {
		t.Fatalf("dead-cluster call = %q, %v, want nil and a typed *Error", v, err)
	}
	if s := cl.Stats(); s.Failed == 0 {
		t.Fatal("dead-cluster call failed without being counted in Stats.Failed")
	}
}
