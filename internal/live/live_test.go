package live

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/core"
	"joinopt/internal/store"
)

// testCluster spins up n store servers on loopback with one table holding
// rows for keys "k0".."k{rows-1}" and the given UDF.
func testCluster(t *testing.T, n, rows int, udfName string, udf UDF, balanced bool) (ExecConfig, []*Server) {
	t.Helper()
	reg := NewRegistry()
	reg.Register(udfName, udf)

	nodes := make([]cluster.NodeID, n)
	for i := range nodes {
		nodes[i] = cluster.NodeID(i)
	}
	catalog := store.CatalogFunc(func(string) store.RowMeta {
		return store.RowMeta{ValueSize: 32}
	})
	table := store.NewTable("t", catalog, 2, nodes)

	// Partition rows by table.Locate so every server holds its shard.
	shards := make([]map[string][]byte, n)
	for i := range shards {
		shards[i] = make(map[string][]byte)
	}
	for i := 0; i < rows; i++ {
		k := fmt.Sprintf("k%d", i)
		shards[table.Locate(k)][k] = []byte("value-of-" + k)
	}

	addrs := make(map[cluster.NodeID]string)
	var servers []*Server
	for i := 0; i < n; i++ {
		s := NewServer(reg, balanced)
		s.AddTable(TableSpec{Name: "t", UDF: udfName, Rows: shards[i]})
		addr, err := s.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
		addrs[cluster.NodeID(i)] = addr
		servers = append(servers, s)
		t.Cleanup(s.Close)
	}

	cfg := ExecConfig{
		Tables:    map[string]*store.Table{"t": table},
		Addrs:     addrs,
		Registry:  reg,
		TableUDF:  map[string]string{"t": udfName},
		BatchWait: time.Millisecond,
	}
	return cfg, servers
}

func upperUDF(key string, params, value []byte) []byte {
	out := append([]byte{}, value...)
	out = append(out, '/')
	out = append(out, params...)
	return out
}

func TestLiveEndToEndFO(t *testing.T) {
	cfg, _ := testCluster(t, 3, 100, "upper", upperUDF, true)
	cfg.Optimizer = core.Config{Policy: core.Policy{Caching: true}, MemCacheBytes: 1 << 20}
	e, err := NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	var futs []*Future
	var wants [][]byte
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("k%d", i%100)
		p := []byte(fmt.Sprintf("p%d", i))
		futs = append(futs, e.Table("t").Submit(context.Background(), k, p))
		wants = append(wants, []byte("value-of-"+k+"/"+string(p)))
	}
	for i, f := range futs {
		if got := mustWait(t, f); !bytes.Equal(got, wants[i]) {
			t.Fatalf("result %d = %q, want %q", i, got, wants[i])
		}
	}
}

func TestLiveHotKeyGetsCached(t *testing.T) {
	cfg, servers := testCluster(t, 2, 10, "upper", upperUDF, false)
	cfg.Optimizer = core.Config{Policy: core.Policy{Caching: true}, MemCacheBytes: 1 << 20}
	e, err := NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Hammer one key; wait for each result so counters advance.
	for i := 0; i < 300; i++ {
		mustWait(t, e.Table("t").Submit(context.Background(), "k1", []byte("p")))
	}
	if e.LocalHits.Load() == 0 {
		t.Fatal("hot key never served from local cache")
	}
	if e.Fetches.Load() == 0 {
		t.Fatal("hot key was never bought")
	}
	// The servers must have seen far fewer than 300 requests for k1.
	var execs int64
	for _, s := range servers {
		execs += s.Execs.Load()
	}
	if execs > 250 {
		t.Fatalf("servers saw %d exec requests; caching ineffective", execs)
	}
}

func TestLiveAlwaysFetchPolicy(t *testing.T) {
	cfg, servers := testCluster(t, 2, 10, "upper", upperUDF, false)
	cfg.Optimizer = core.Config{Policy: core.Policy{AlwaysFetch: true}}
	e, err := NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 100; i++ {
		got := mustWait(t, e.Table("t").Submit(context.Background(), "k2", []byte("x")))
		if !bytes.Equal(got, []byte("value-of-k2/x")) {
			t.Fatalf("bad result %q", got)
		}
	}
	var gets int64
	for _, s := range servers {
		gets += s.Gets.Load()
	}
	if gets != 100 {
		t.Fatalf("FC policy issued %d gets, want 100 (no caching)", gets)
	}
}

func TestLivePutInvalidatesCachers(t *testing.T) {
	cfg, _ := testCluster(t, 2, 10, "upper", upperUDF, false)
	cfg.Optimizer = core.Config{Policy: core.Policy{Caching: true}, MemCacheBytes: 1 << 20}
	e, err := NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	for i := 0; i < 200; i++ {
		mustWait(t, e.Table("t").Submit(context.Background(), "k3", []byte("p")))
	}
	sh, opt := e.Table("t").shard("k3")
	lookup := func() bool {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		_, _, ok := opt.Cache.Lookup("k3")
		return ok
	}
	if !lookup() {
		t.Skip("key not cached under this timing; nothing to invalidate")
	}

	// Write through a second connection (another client updates the row).
	table := cfg.Tables["t"]
	node := table.Locate("k3")
	conn, err := DialNode(cfg.Addrs[node], nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Call(Request{Op: OpPut, Table: "t",
		Keys: []string{"k3"}, Params: [][]byte{[]byte("new-value")}}); err != nil {
		t.Fatal(err)
	}

	// The executor should receive the invalidation push shortly.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if !lookup() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if lookup() {
		t.Fatal("cached key not invalidated after update")
	}

	// Fresh reads must see the new value.
	got := mustWait(t, e.Table("t").Submit(context.Background(), "k3", []byte("q")))
	if !bytes.Equal(got, []byte("new-value/q")) {
		t.Fatalf("post-update result %q", got)
	}
}

func TestLiveBalancerBouncesUnderLoad(t *testing.T) {
	// Slow UDF + busy server: the balancer should return some raw values.
	slow := func(key string, params, value []byte) []byte {
		time.Sleep(2 * time.Millisecond)
		return value
	}
	cfg, servers := testCluster(t, 1, 50, "slow", slow, true)
	cfg.Optimizer = core.Config{Policy: core.Policy{AlwaysCompute: true}}
	e, err := NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	var wg sync.WaitGroup
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("k%d", i%50)
		f := e.Table("t").Submit(context.Background(), k, nil)
		wg.Add(1)
		go func() { defer wg.Done(); mustWait(t, f) }()
	}
	wg.Wait()
	if servers[0].Bounced.Load() == 0 {
		t.Fatal("balancer never bounced work despite overload")
	}
	if e.RemoteComputed.Load() == 0 {
		t.Fatal("server computed nothing")
	}
}

// TestEvictionRefetchServesCachedValue drives skewed reads through a memory
// tier too small for the hot set, so purchases evict each other and evicted
// keys are fetched again: every read — first contact, wire fetch, memory
// hit, re-fetch after an eviction — must return the stored bytes. The
// config asks for a disk tier, which a live client ignores: nothing may
// land there.
func TestEvictionRefetchServesCachedValue(t *testing.T) {
	const keys = 32
	cfg, _ := testCluster(t, 1, keys, "upper", upperUDF, false)
	cfg.Optimizer = core.Config{Policy: core.Policy{Caching: true},
		MemCacheBytes: 40, DiskCacheBytes: 1 << 20} // memory holds ~3 of the rows
	cfg.Shards = 1
	e, err := NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tbl := e.Table("t")
	for i := 0; i < 4000; i++ {
		// Skew: key j is read about twice as often as key 2j.
		j := i % keys
		for j > 0 && (i/keys+j)%2 == 0 {
			j /= 2
		}
		k := fmt.Sprintf("k%d", j)
		got, err := tbl.Call(context.Background(), k, []byte("p"))
		if want := "value-of-" + k + "/p"; err != nil || string(got) != want {
			t.Fatalf("read %d of %s = %q, %v, want %q", i, k, got, err, want)
		}
	}
	opt := tbl.opts[0]
	st, cs := opt.Stats(), opt.Cache.Stats()
	// Nothing writes, so a fetch beyond one per key re-fetches an evicted
	// value.
	if st.LocalMem == 0 || cs.EvictToDisk == 0 || st.DataReqs <= keys {
		t.Fatalf("no memory hit, eviction or re-fetch (%+v, %+v); the test exercised nothing", st, cs)
	}
	if st.LocalDisk != 0 || opt.Cache.DiskLen() != 0 || opt.Cache.MemUsed() > 40 {
		t.Fatalf("cache outgrew its memory tier: %d disk hits, %d on disk, %d B in memory",
			st.LocalDisk, opt.Cache.DiskLen(), opt.Cache.MemUsed())
	}
}

// TestClientCacheStaysInMemoryBudget: a client with a small memory tier and
// no disk setting fetches far more distinct values than the tier holds. What
// it keeps cached, summed over its shards, stays within MemCacheBytes, and
// nothing spills to a disk tier.
func TestClientCacheStaysInMemoryBudget(t *testing.T) {
	const keys, budget = 20_000, 16 << 10
	cfg, _ := testCluster(t, 2, keys, "upper", upperUDF, false)
	cfg.Optimizer = core.Config{Policy: core.Policy{Caching: true}, MemCacheBytes: budget}
	e, err := NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tbl := e.Table("t")
	futs := make([]*Future, 0, 1000)
	for pass := 0; pass < 2; pass++ {
		for lo := 0; lo < keys; lo += cap(futs) {
			futs = futs[:0]
			for i := lo; i < lo+cap(futs); i++ {
				futs = append(futs, tbl.Submit(context.Background(), fmt.Sprintf("k%d", i), []byte("p"), WithRoute(ForceFetch)))
			}
			for _, f := range futs {
				mustWait(t, f)
			}
		}
	}
	var mem, disk int64
	for i, sh := range e.shards {
		sh.mu.Lock()
		c := tbl.opts[i].Cache
		mem += c.MemUsed()
		disk += c.DiskUsed()
		if c.DiskLen() != 0 {
			t.Errorf("shard %d holds %d values in its disk tier", i, c.DiskLen())
		}
		sh.mu.Unlock()
	}
	if mem == 0 || mem+disk > budget {
		t.Fatalf("client caches %d B in memory and %d B on disk, want at most %d B in all", mem, disk, budget)
	}
}

// mustWait returns f's value, reporting a typed failure as a test error so a
// value assertion can never mistake a failed request for a missing key.
func mustWait(t testing.TB, f *Future) []byte {
	t.Helper()
	v, err := f.WaitErr()
	if err != nil {
		t.Errorf("submission failed: %v", err)
	}
	return v
}

func TestResultMapFIFO(t *testing.T) {
	rm := NewResultMap()
	f1, f2 := newFuture(), newFuture()
	rm.Put("t", "k", []byte("p"), f1)
	rm.Put("t", "k", []byte("p"), f2)
	if rm.Take("t", "k", []byte("p")) != f1 {
		t.Fatal("Take did not return oldest future")
	}
	if rm.Take("t", "k", []byte("p")) != f2 {
		t.Fatal("Take did not return second future")
	}
	if rm.Take("t", "k", []byte("p")) != nil {
		t.Fatal("Take on empty map returned a future")
	}
	if rm.Take("t", "k", []byte("other")) != nil {
		t.Fatal("params must distinguish futures")
	}
}

func TestConnFailurePropagates(t *testing.T) {
	cfg, servers := testCluster(t, 1, 10, "upper", upperUDF, false)
	conn, err := DialNode(cfg.Addrs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Kill the server mid-flight: pending calls must fail, not hang.
	if _, err := conn.Call(Request{Op: OpGet, Table: "t", Keys: []string{"k1"}}); err != nil {
		t.Fatalf("first call: %v", err)
	}
	servers[0].Close()
	done := make(chan error, 1)
	go func() {
		_, err := conn.Call(Request{Op: OpGet, Table: "t", Keys: []string{"k1"}})
		done <- err // either an error or a late success is fine
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("call against dead server hung")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.Register("f", Identity)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	reg.Register("f", Identity)
}

func TestIdentityUDF(t *testing.T) {
	if got := Identity("k", []byte("p"), []byte("v")); !bytes.Equal(got, []byte("v")) {
		t.Fatalf("Identity = %q", got)
	}
}

// TestRequestTimeoutHasNoUnboundedMode: a zero or negative RequestTimeout
// means the default, never "no deadline".
func TestRequestTimeoutHasNoUnboundedMode(t *testing.T) {
	for _, d := range []time.Duration{0, -1} {
		e, err := NewExecutor(ExecConfig{RequestTimeout: d})
		if err != nil {
			t.Fatal(err)
		}
		e.Close()
		if got := e.cfg.RequestTimeout; got != 10*time.Second {
			t.Errorf("RequestTimeout %v resolved to %v, want the 10s default", d, got)
		}
	}
}
