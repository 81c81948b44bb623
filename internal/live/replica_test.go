package live

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/core"
	"joinopt/internal/history"
	"joinopt/internal/membership"
	"joinopt/internal/storage"
	"joinopt/internal/store"
)

func TestPutReplCodecRoundTrip(t *testing.T) {
	cases := []struct {
		ver int64
		val []byte
	}{
		{1, []byte("hello")},
		{1 << 40, bytes.Repeat([]byte("x"), 4096)},
		{7, nil},
		{9, []byte{}},
	}
	for _, c := range cases {
		ver, val, ok := decodePutRepl(encodePutRepl(c.ver, c.val))
		if !ok || ver != c.ver || !bytes.Equal(val, c.val) || (val == nil) != (c.val == nil) {
			t.Fatalf("roundtrip(%d, %q) = (%d, %q, %v)", c.ver, c.val, ver, val, ok)
		}
	}
	if _, _, ok := decodePutRepl([]byte{0x81}); ok {
		t.Fatal("decodePutRepl accepted a truncated varint")
	}
	if _, _, ok := decodePutRepl(nil); ok {
		t.Fatal("decodePutRepl accepted an empty blob")
	}
}

func TestScanRowCodecRoundTrip(t *testing.T) {
	key, ver, val, ok := decodeScanRow(encodeScanRow("k/with|bytes", 42, []byte("v")))
	if !ok || key != "k/with|bytes" || ver != 42 || string(val) != "v" {
		t.Fatalf("roundtrip = (%q, %d, %q, %v)", key, ver, val, ok)
	}
	if _, _, _, ok := decodeScanRow([]byte{0xff}); ok {
		t.Fatal("decodeScanRow accepted a truncated row")
	}
}

// faultServer boots one server on a fault-injecting memory engine.
func faultServer(t *testing.T, reg *Registry, rows map[string][]byte) (*Server, *storage.Fault, string) {
	t.Helper()
	fault := storage.WrapFault(storage.NewMem())
	srv := NewServer(reg, false)
	srv.SetEngine(fault)
	srv.AddTable(TableSpec{Name: "t", UDF: "join", Rows: rows})
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(srv.Close)
	return srv, fault, addr
}

// TestFaultPutFlushFailureKeepsCacherRegistry pins the stale-cache fix at
// the put/flush barrier: a put batch that fails at the acknowledgment
// barrier must leave the tracked-cacher registry intact, so the next
// acknowledged write of the key still invalidates every cacher. (The old
// handlePut deregistered cachers inside the put loop, before the barrier;
// a failed flush then stranded them with stale values and no notification
// ever arriving.)
func TestFaultPutFlushFailureKeepsCacherRegistry(t *testing.T) {
	reg := NewRegistry()
	_, fault, addr := faultServer(t, reg, map[string][]byte{"a": []byte("seed")})

	notifs := make(chan Notification, 8)
	cacher, err := DialNode(addr, func(n Notification) { notifs <- n })
	if err != nil {
		t.Fatal(err)
	}
	defer cacher.Close()
	// Fetch "a": registers this conn as a tracked cacher (Section 4.2.3).
	if _, err := cacher.Call(Request{Op: OpGet, Table: "t", Keys: []string{"a"}}); err != nil {
		t.Fatalf("get: %v", err)
	}

	writer, err := DialNode(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()

	// A put failing at the flush barrier is unacknowledged: it must send
	// no invalidation and deregister nobody.
	fault.FailFlush.Store(true)
	if _, err := writer.Call(Request{Op: OpPut, Table: "t",
		Keys: []string{"a"}, Params: [][]byte{[]byte("v1")}}); err == nil {
		t.Fatal("put acknowledged despite a failing flush barrier")
	}
	select {
	case n := <-notifs:
		t.Fatalf("failed put sent invalidation %+v", n)
	case <-time.After(50 * time.Millisecond):
	}

	// The next acknowledged put must still find the registration.
	fault.FailFlush.Store(false)
	resp, err := writer.Call(Request{Op: OpPut, Table: "t",
		Keys: []string{"a"}, Params: [][]byte{[]byte("v2")}})
	if err != nil {
		t.Fatalf("recovered put: %v", err)
	}
	select {
	case n := <-notifs:
		if n.Table != "t" || n.Key != "a" || n.Version != resp.Metas[0].Version {
			t.Fatalf("notification = %+v, want table t key a version %d", n, resp.Metas[0].Version)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("acknowledged put never notified the cacher: the failed batch stranded its registration")
	}
}

// TestFaultFailedPutStillVisible pins the failed-put visibility contract
// (storage.Table.Put): a put that fails at the acknowledgment barrier is
// already applied to the memtable and is NOT rolled back — the client is
// told "unacknowledged", which means maybe-committed, never "rolled back".
func TestFaultFailedPutStillVisible(t *testing.T) {
	reg := NewRegistry()
	_, fault, addr := faultServer(t, reg, nil)
	conn, err := DialNode(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	put := func(val string) (*Response, error) {
		return conn.Call(Request{Op: OpPut, Table: "t",
			Keys: []string{"k"}, Params: [][]byte{[]byte(val)}})
	}
	if resp, err := put("v1"); err != nil || resp.Metas[0].Version != 1 {
		t.Fatalf("baseline put: %v", err)
	}

	fault.FailFlush.Store(true)
	if _, err := put("v2"); err == nil {
		t.Fatal("put acknowledged despite a failing flush barrier")
	}
	fault.FailFlush.Store(false)

	// The failed put is visible: maybe-committed, not rolled back.
	resp, err := conn.Call(Request{Op: OpGet, Table: "t", Keys: []string{"k"}})
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if got, ver := string(resp.Values[0]), resp.Metas[0].Version; got != "v2" || ver != 2 {
		t.Fatalf("after failed put: value %q v%d, want the maybe-committed %q v2", got, ver, "v2")
	}
	// Versioning continues past the maybe-committed row.
	if resp, err := put("v3"); err != nil || resp.Metas[0].Version != 3 {
		t.Fatalf("put after failure: %v (resp %+v)", err, resp)
	}
}

// replicaTrio is a three-node cluster serving table "t" replicated 3 ways,
// with a fault-injecting engine and a per-node reboot handle.
type replicaTrio struct {
	t       *testing.T
	reg     *Registry
	place   *membership.View // the static R=3 placement of table "t"
	exec    *Executor
	servers []*Server
	faults  []*storage.Fault
	addrs   map[cluster.NodeID]string
	rows    []map[string][]byte
}

func bootReplicaTrio(t *testing.T, seedKeys int) *replicaTrio {
	t.Helper()
	tr := &replicaTrio{
		t:       t,
		reg:     NewRegistry(),
		servers: make([]*Server, 3),
		faults:  make([]*storage.Fault, 3),
		addrs:   make(map[cluster.NodeID]string),
		rows:    make([]map[string][]byte, 3),
	}
	tr.reg.Register("join", func(key string, params, value []byte) []byte {
		out := append([]byte{}, value...)
		out = append(out, '/')
		return append(out, params...)
	})
	catalog := store.CatalogFunc(func(string) store.RowMeta {
		return store.RowMeta{ValueSize: 32}
	})
	tables := map[string]*store.Table{"t": store.NewTable("t", catalog, 2, []cluster.NodeID{0, 1, 2})}
	tr.place = membership.NewStatic(nil, tables, 3).View()
	for i := range tr.rows {
		tr.rows[i] = make(map[string][]byte)
	}
	for i := 0; i < seedKeys; i++ {
		k := fmt.Sprintf("k%d", i)
		for _, n := range tr.place.ReplicasForKey("t", k) {
			tr.rows[n][k] = []byte("seed-" + k)
		}
	}
	for i := 0; i < 3; i++ {
		tr.boot(i, "127.0.0.1:0", nil)
	}
	e, err := NewExecutor(ExecConfig{
		Tables:     tables,
		Addrs:      tr.addrs,
		Membership: membership.NewStatic(tr.addrs, tables, 3),
		Registry:   tr.reg,
		TableUDF:   map[string]string{"t": "join"},
		Optimizer:  core.Config{Policy: core.Policy{Caching: true}, MemCacheBytes: 1 << 20},
		BatchWait:  time.Millisecond,
	})
	if err != nil {
		t.Fatalf("executor: %v", err)
	}
	t.Cleanup(e.Close)
	tr.exec = e
	return tr
}

// boot (re)starts node i on addr with a fresh fault engine, catching up
// from peers first when given (the rejoin path: scan before serve).
func (tr *replicaTrio) boot(i int, addr string, peers []string) {
	tr.t.Helper()
	fault := storage.WrapFault(storage.NewMem())
	srv := NewServer(tr.reg, false)
	srv.SetEngine(fault)
	srv.AddTable(TableSpec{Name: "t", UDF: "join", Rows: tr.rows[i]})
	if len(peers) > 0 {
		if _, err := srv.CatchUp(peers); err != nil {
			tr.t.Fatalf("catch-up node %d: %v", i, err)
		}
	}
	bound, err := srv.Serve(addr)
	if err != nil {
		tr.t.Fatalf("serve node %d: %v", i, err)
	}
	tr.t.Cleanup(srv.Close)
	tr.servers[i], tr.faults[i], tr.addrs[cluster.NodeID(i)] = srv, fault, bound
}

// TestFaultReplicationQuorum pins the write-quorum arithmetic: with R=3 a
// put survives one failing backup (2/3 acks) and errors with two (1/3).
func TestFaultReplicationQuorum(t *testing.T) {
	tr := bootReplicaTrio(t, 0)
	tbl := tr.exec.Table("t")
	ctx := context.Background()
	key := "quorum-key"
	nodes := tr.place.ReplicasForKey("t", key) // placement order; nodes[0] sequences

	// One failing backup: the sequencer plus the healthy backup are a
	// majority, so the put still acknowledges.
	tr.faults[nodes[1]].FailPuts.Store(true)
	ver, err := tbl.Put(ctx, key, []byte("v1"))
	if err != nil {
		t.Fatalf("put with one failing backup: %v", err)
	}
	if ver != 1 {
		t.Fatalf("version = %d, want 1", ver)
	}

	// Two failing backups: 1/3 acks misses the majority; the put must
	// surface the quorum failure (maybe committed at the sequencer).
	tr.faults[nodes[2]].FailPuts.Store(true)
	if _, err := tbl.Put(ctx, key, []byte("v2")); err == nil {
		t.Fatal("put acknowledged without a write quorum")
	}

	// Healed: the retry assigns a fresh, newer version — the sequencer's
	// maybe-committed v2 is superseded, and quorum is reachable again.
	tr.faults[nodes[1]].FailPuts.Store(false)
	tr.faults[nodes[2]].FailPuts.Store(false)
	ver, err = tbl.Put(ctx, key, []byte("v3"))
	if err != nil {
		t.Fatalf("put after heal: %v", err)
	}
	if ver != 3 {
		t.Fatalf("healed version = %d, want 3 (continuous past the maybe-committed v2)", ver)
	}
}

// TestFaultReplicaFailoverKillOne is the replication acceptance test: one
// of three replicas dies under load and no read failure ever reaches a
// caller — routing skips the dead node, in-flight batches fail over to
// survivors — while quorum puts keep acknowledging. The node then rejoins
// on the same address, catches up from its peers, and must serve every put
// acknowledged during its outage at (at least) the acked version.
func TestFaultReplicaFailoverKillOne(t *testing.T) {
	const keys = 24
	tr := bootReplicaTrio(t, keys)
	tbl := tr.exec.Table("t")
	ctx := context.Background()
	params := []byte("p")

	read := func(stage string) {
		t.Helper()
		for i := 0; i < keys; i++ {
			k := fmt.Sprintf("k%d", i)
			if _, err := tbl.Call(ctx, k, params); err != nil {
				t.Fatalf("%s: caller-visible read failure on %s: %v", stage, k, err)
			}
			if _, err := tbl.Call(ctx, k, params, WithNoCache()); err != nil {
				t.Fatalf("%s: caller-visible no-cache fetch failure on %s: %v", stage, k, err)
			}
		}
	}
	read("warm-up")

	tr.servers[1].Close()
	for round := 0; round < 3; round++ {
		read(fmt.Sprintf("outage round %d", round))
	}
	// Quorum puts ride out the outage on the two survivors.
	var led history.Ledger
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%d", i)
		v := []byte("outage-" + k)
		ver, err := tbl.Put(ctx, k, v)
		if err != nil {
			t.Fatalf("quorum put during outage: %s: %v", k, err)
		}
		led.Ack(k, v, ver)
	}

	// Rejoin: fresh empty engine on the same address, catch up from the
	// survivors before serving (storeserver -peers does the same).
	peers := []string{tr.addrs[0], tr.addrs[2]}
	tr.boot(1, tr.addrs[1], peers)
	read("post-rejoin")

	// Audit the rejoined node directly: every put acknowledged during its
	// outage must be readable there at (at least) its acked version.
	conn, err := DialNode(tr.addrs[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, v := range led.Audit(nodeReader(conn, "t")) {
		t.Errorf("rejoined node: %v", v)
	}
	if n := tr.exec.Failed.Load(); n != 0 {
		t.Fatalf("executor counted %d failed submissions; failover must absorb the outage", n)
	}
}

// TestFaultCatchUpPagesLargeTable drives CatchUp across multiple OpScan
// pages: more rows than one page, applied set-if-newer on a cold replica.
func TestFaultCatchUpPagesLargeTable(t *testing.T) {
	const rows = scanPageRows + 137
	reg := NewRegistry()
	_, _, srcAddr := faultServer(t, reg, nil)
	conn, err := DialNode(srcAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ks := make([]string, rows)
	vs := make([][]byte, rows)
	for i := range ks {
		ks[i] = fmt.Sprintf("row-%05d", i)
		vs[i] = []byte(fmt.Sprintf("val-%d", i))
	}
	if _, err := conn.Call(Request{Op: OpPut, Table: "t", Keys: ks, Params: vs}); err != nil {
		t.Fatalf("bulk put: %v", err)
	}

	cold := NewServer(reg, false)
	cold.AddTable(TableSpec{Name: "t", UDF: "join"})
	applied, err := cold.CatchUp([]string{srcAddr})
	if err != nil {
		t.Fatalf("catch-up: %v", err)
	}
	if applied != rows {
		t.Fatalf("catch-up applied %d rows, want %d", applied, rows)
	}
	// Idempotent: a second pass applies nothing (set-if-newer rejects).
	if applied, err = cold.CatchUp([]string{srcAddr}); err != nil || applied != 0 {
		t.Fatalf("second catch-up = (%d, %v), want (0, nil)", applied, err)
	}
}
