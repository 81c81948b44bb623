package live

import (
	"context"
	"fmt"
	"maps"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/core"
	"joinopt/internal/history"
	"joinopt/internal/membership"
	"joinopt/internal/storage"
	"joinopt/internal/store"
)

// migCluster boots n store nodes sharing one membership map, with every
// region of table "t" initially owned by node 0, and returns an executor
// whose map is a deliberately STALE clone — ownership changes reach it only
// through CodeMoved redirects, exactly like a real client.
type migCluster struct {
	m       *membership.Map
	stale   *membership.Map
	servers map[cluster.NodeID]*Server
	addrs   map[cluster.NodeID]string
	exec    *Executor
	tbl     *Table
	mig     *Migrator
}

const migRegions = 4

func newMigCluster(t *testing.T, n int, udf string, rows map[string][]byte, cfgEdit func(*ExecConfig)) *migCluster {
	t.Helper()
	reg := NewRegistry()
	reg.Register("tag", func(key string, p, value []byte) []byte {
		o := append([]byte{}, value...)
		o = append(o, '#')
		return append(o, p...)
	})
	// digest summarizes the stored value into a fixed 4KB result: the
	// paper's motivating shape for compute requests, where the computed
	// value is much smaller than a large stored value (s_cv << s_v).
	reg.Register("digest", func(key string, p, value []byte) []byte {
		var sum byte
		for _, b := range value {
			sum += b
		}
		o := make([]byte, 4096)
		for j := range o {
			o[j] = sum
		}
		return o
	})
	c := &migCluster{
		m:       membership.NewMap(),
		servers: map[cluster.NodeID]*Server{},
		addrs:   map[cluster.NodeID]string{},
	}
	for i := 0; i < n; i++ {
		id := cluster.NodeID(i)
		srv := NewServer(reg, false)
		srv.AddTable(TableSpec{Name: "t", UDF: udf, Rows: rows})
		addr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatalf("serve node %d: %v", i, err)
		}
		t.Cleanup(srv.Close)
		c.servers[id] = srv
		c.addrs[id] = addr
		c.m.AddNode(id, addr)
	}
	c.m.SetTable("t", make([]cluster.NodeID, migRegions)) // all regions → node 0
	for _, srv := range c.servers {
		srv.SetMembership(c.m)
	}
	c.stale = c.m.Clone()

	catalog := store.CatalogFunc(func(k string) store.RowMeta {
		if v, ok := rows[k]; ok {
			return store.RowMeta{ValueSize: int64(len(v))}
		}
		return store.RowMeta{ValueSize: 32}
	})
	cfg := ExecConfig{
		Tables:     map[string]*store.Table{"t": store.NewTable("t", catalog, migRegions, []cluster.NodeID{0})},
		Addrs:      map[cluster.NodeID]string{0: c.addrs[0]},
		Registry:   reg,
		TableUDF:   map[string]string{"t": udf},
		Membership: c.stale,
		Optimizer: core.Config{
			Policy:        core.Policy{Caching: true},
			MemCacheBytes: 32 << 20,
		},
		BatchWait:      200 * time.Microsecond,
		RequestTimeout: 2 * time.Second,
	}
	if cfgEdit != nil {
		cfgEdit(&cfg)
	}
	e, err := NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	c.exec = e
	c.tbl = e.Table("t")
	c.mig = &Migrator{Map: c.m, Servers: c.servers}
	return c
}

// TestMigrateUnderLoad moves every region of a live table to a second node
// while concurrent puts and reads keep running against a stale-map client:
// the end-to-end contract of the fenced handoff. Afterwards every
// acknowledged put must be present on the new owner at (at least) its
// acked version, reads must never have surfaced an error or a CodeMoved,
// and the client must have converged through redirects alone.
func TestMigrateUnderLoad(t *testing.T) {
	rows := map[string][]byte{}
	for i := 0; i < 64; i++ {
		rows[fmt.Sprintf("k%d", i)] = []byte(fmt.Sprintf("v-%d", i))
	}
	c := newMigCluster(t, 2, "tag", rows, nil)
	ctx := context.Background()

	var (
		led     history.Ledger
		stop    atomic.Bool
		readErr atomic.Int64
	)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: records every acked put, retries fence bounces
		defer wg.Done()
		for i := 1; !stop.Load(); i++ {
			k := fmt.Sprintf("w%d", i%48)
			v := fmt.Sprintf("seq%d", i)
			ver, err := c.tbl.Put(ctx, k, []byte(v))
			if err != nil {
				// Fence bounce or redirect-era transport blip: both are
				// retry-safe (zero work done / fresh newer version).
				time.Sleep(time.Millisecond)
				continue
			}
			led.Ack(k, []byte(v), ver)
		}
	}()
	wg.Add(1)
	go func() { // reader: errors must never surface through a migration
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			k := fmt.Sprintf("k%d", i%64)
			if _, err := c.tbl.Call(ctx, k, []byte("p")); err != nil {
				readErr.Add(1)
				t.Errorf("read %s surfaced: %v", k, err)
				return
			}
		}
	}()

	for led.Acked() < 200 { // let the load establish itself
		time.Sleep(time.Millisecond)
	}
	for region := 0; region < migRegions; region++ {
		if err := c.mig.Migrate("t", region, 0, 1); err != nil {
			t.Fatalf("migrate region %d: %v", region, err)
		}
	}
	// Keep the load running against the new placement for a while.
	target := led.Acked() + 200
	for led.Acked() < target {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if readErr.Load() > 0 {
		t.Fatalf("%d reads surfaced errors through the migration", readErr.Load())
	}
	if c.exec.Moved.Load() == 0 {
		t.Fatal("no CodeMoved redirect was exercised; the stale client never had to learn")
	}

	// Every acked put must be on the new owner at >= its acked version.
	conn, err := DialNode(c.addrs[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, v := range led.Audit(nodeReader(conn, "t")) {
		t.Errorf("new owner: %v", v)
	}

	// The client's map must have converged onto node 1 for every region.
	tv := c.stale.View().Tables["t"]
	for r, set := range tv.Sets {
		if len(set) != 1 || set[0] != 1 {
			t.Errorf("client still believes region %d is held by %v", r, set)
		}
	}
}

// TestMigratePhasesCarryMidCopyPut drives the handoff one phase at a time:
// begin, bulk copy, a put at the source to a key below the region's highest
// version, fence with its delta copy, cutover. The put lands after the bulk
// copy, so only the delta copy can carry it, and that copy finds it only
// because begin raised the source's version floor: the new owner must hold
// it at its acked version, and the new owner's next put of the key must be
// assigned a higher one.
func TestMigratePhasesCarryMidCopyPut(t *testing.T) {
	c := newMigCluster(t, 2, "tag", nil, nil)
	hot := "k0"
	region := store.RegionIndex(hot, migRegions)
	cold := ""
	for i := 1; cold == ""; i++ {
		if k := fmt.Sprintf("k%d", i); store.RegionIndex(k, migRegions) == region {
			cold = k
		}
	}
	conns := map[cluster.NodeID]*Conn{}
	for id, addr := range c.addrs {
		conn, err := DialNode(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conns[id] = conn
	}
	put := func(node cluster.NodeID, k, v string) int64 {
		t.Helper()
		resp, err := conns[node].Call(Request{Op: OpPut, Table: "t", Keys: []string{k}, Params: [][]byte{[]byte(v)}})
		if err != nil {
			t.Fatalf("put %s at node %d: %v", k, node, err)
		}
		return resp.Metas[0].Version
	}
	for i := 0; i < 5; i++ {
		put(0, hot, "h") // the region's highest version: 5
	}
	put(0, cold, "c") // version 1

	h, err := c.mig.plan("t", region, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.begin(); err != nil || h.floor != 5 {
		t.Fatalf("begin: floor %d, err %v; want floor 5", h.floor, err)
	}
	if err := h.copy(); err != nil {
		t.Fatalf("bulk copy: %v", err)
	}
	acked := put(0, cold, "mid-copy")
	if err := h.fence(); err != nil {
		t.Fatalf("fence and delta copy: %v", err)
	}
	h.cutover()

	val, ver, err := nodeReader(conns[1], "t")(cold)
	if err != nil || ver != acked || string(val) != "mid-copy" {
		t.Fatalf("new owner holds %s at v%d %q (err %v); want the mid-copy put at its acked v%d", cold, ver, val, err, acked)
	}
	if next := put(1, cold, "after"); next <= acked {
		t.Fatalf("new owner's next put of %s got v%d, not above the acked v%d", cold, next, acked)
	}
}

// stallTable parks the Put of one value until release is closed. The put
// batch carrying it has passed commit's migration check, and stalls before
// its row is written.
type stallTable struct {
	storage.Table
	value           string
	parked, release chan struct{}
}

func (t *stallTable) Put(key string, value []byte) (int64, error) {
	if string(value) == t.value {
		close(t.parked)
		<-t.release
	}
	return t.Table.Put(key, value)
}

// TestFenceWaitsOutInFlightPut parks a put batch that found no migration
// active between that check and its write, then drives a migration of the
// put's region through every phase and releases the put. Begin does not
// wait for the parked batch; the fence does, since the batch holds putGate
// shared, so the acked put reaches the new owner at its acked version.
func TestFenceWaitsOutInFlightPut(t *testing.T) {
	c := newMigCluster(t, 2, "tag", nil, nil)
	key := "k0"
	region := store.RegionIndex(key, migRegions)
	conns := map[cluster.NodeID]*Conn{}
	for id, addr := range c.addrs {
		conn, err := DialNode(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conns[id] = conn
	}
	for i := 0; i < 5; i++ {
		if _, err := conns[0].Call(Request{Op: OpPut, Table: "t", Keys: []string{key}, Params: [][]byte{[]byte("old")}}); err != nil {
			t.Fatal(err)
		}
	}

	parked, release := make(chan struct{}), make(chan struct{})
	tb := c.servers[0].table("t")
	tb.store = &stallTable{Table: tb.store, value: "stalled", parked: parked, release: release}
	type ack struct {
		ver int64
		err error
	}
	acked := make(chan ack, 1)
	go func() {
		resp, err := conns[0].Call(Request{Op: OpPut, Table: "t", Keys: []string{key}, Params: [][]byte{[]byte("stalled")}})
		if err != nil {
			acked <- ack{err: err}
			return
		}
		acked <- ack{ver: resp.Metas[0].Version}
	}()
	<-parked

	migrated := make(chan error, 1)
	go func() {
		h, err := c.mig.plan("t", region, 0, 1)
		if err == nil {
			err = h.begin()
		}
		if err == nil {
			err = h.copy()
		}
		if err == nil {
			err = h.fence()
		}
		if err == nil {
			h.cutover()
		}
		migrated <- err
	}()
	// Release the put once the migration has finished without it, or has
	// waited for it long enough to show that it waits.
	var err error
	select {
	case err = <-migrated:
		close(release)
	case <-time.After(200 * time.Millisecond):
		close(release)
		err = <-migrated
	}
	if err != nil {
		t.Fatalf("migration: %v", err)
	}
	a := <-acked
	if a.err != nil {
		t.Fatalf("parked put: %v", a.err)
	}
	val, ver, err := nodeReader(conns[1], "t")(key)
	if err != nil || ver < a.ver {
		t.Fatalf("new owner holds %s at v%d %q (err %v); the parked put was acked at v%d", key, ver, val, err, a.ver)
	}
}

// TestCommitRedirectsPutToMovedRegion hands commit a put batch for a region
// that moved away after the batch passed handle: commit must check the
// route itself, under putGate, and answer CodeMoved without writing the row.
// A batch that checked only before the cutover would find no fence (the
// cutover drops it) and write at the old owner, where its ack is lost.
func TestCommitRedirectsPutToMovedRegion(t *testing.T) {
	s := socketlessServer(t, false, AdmissionConfig{})
	key := "k0"
	region := store.RegionIndex(key, migRegions)
	if _, err := s.beginMigration("t", region, migRegions); err != nil {
		t.Fatal(err)
	}
	s.fenceRegion("t", region)
	s.completeMove("t", region, 1, 1, "new-owner:1")

	tb := s.table("t")
	wc, _ := socketlessConn()
	resp := s.commit(wc, tb, &Request{ID: 1, Op: OpPut, Table: "t", Epoch: 1,
		Keys: []string{key}, Params: [][]byte{[]byte("late")}})
	if resp.Code != CodeMoved {
		t.Fatalf("put to a moved region answered %v, want CodeMoved", resp.Code)
	}
	if val, ver, _ := tb.store.Get(key); ver != 0 {
		t.Fatalf("the old owner wrote %s at v%d %q after the cutover", key, ver, val)
	}
}

// TestMigrateRedirectEpochFencing pins the redirect protocol: any request
// for a moved region arriving at the old owner earns CodeMoved with a
// decodable payload (the node holds a moved record, so no stamp can match
// its routing state), while a request for an unmoved region is served
// normally despite a stale stamp — an epoch mismatch alone is not an error.
func TestMigrateRedirectEpochFencing(t *testing.T) {
	rows := map[string][]byte{"a": []byte("va")}
	c := newMigCluster(t, 2, "tag", rows, nil)
	region := store.RegionIndex("a", migRegions)
	if err := c.mig.Migrate("t", region, 0, 1); err != nil {
		t.Fatalf("migrate: %v", err)
	}

	conn, err := DialNode(c.addrs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Stale epoch (0 = pre-membership client): the old owner must redirect.
	// Conn.Call converts error responses into *Error (dropping the payload),
	// so read the raw response the way the executor's wire path does.
	sc := conn.send(&Request{Op: OpGet, Table: "t", Keys: []string{"a"}})
	resp := <-sc.cl.ch
	putCall(sc.cl)
	defer putResponse(resp)
	if resp.Code != CodeMoved {
		t.Fatalf("stale get answered %v, want CodeMoved", resp.Code)
	}
	moved, ok := decodeMoved(resp.Values[0])
	if !ok || len(moved) != 1 {
		t.Fatalf("redirect payload: ok=%v entries=%d", ok, len(moved))
	}
	if m := moved[0]; m.region != region || m.owner != 1 || m.addr != c.addrs[1] || m.epoch != c.m.Epoch() {
		t.Fatalf("redirect payload = %+v, want region %d owner 1 addr %s epoch %d",
			m, region, c.addrs[1], c.m.Epoch())
	}

	// A key whose region did NOT move is served normally despite the stale
	// stamp: an epoch mismatch alone is not an error.
	var other string
	for i := 0; ; i++ {
		k := fmt.Sprintf("k%d", i)
		if store.RegionIndex(k, migRegions) != region {
			other = k
			break
		}
	}
	if _, err := c.tbl.Put(context.Background(), other, []byte("x")); err != nil {
		t.Fatalf("put to unmoved region: %v", err)
	}
	okResp, err := conn.Call(Request{Op: OpGet, Table: "t", Keys: []string{other}})
	if err != nil || okResp.Code != CodeOK {
		t.Fatalf("get of unmoved region: resp=%+v err=%v", okResp, err)
	}
}

// TestMigrateTraceReplay is the membership plane's optimizer-state
// contract, satellite to the migration work: an executor whose partition
// migrated mid-trace must make the SAME fetch-vs-compute decisions
// afterwards as an executor that never saw a migration. The learned state
// Algorithm 1 runs on — ski-rental counters, learned sizes and costs on the
// client — must survive the move: the client keeps its counters through the
// version-0 invalidations (the value moved, it did not change). The server's
// UDF and service EWMAs stay behind: each node prices from its own traffic.
//
// Both executors replay the identical single-threaded trace (Shards=1,
// Workers=1 — a total order of optimizer interactions). Decisions are
// compared by CLASS — RouteCompute (ship the computation) vs everything
// else (serve from the fetch/cache side) — because cache residency itself
// legitimately differs after a move (the moved copy is invalidated), which
// turns a LocalMem hit into a re-fetch without changing where Algorithm 1
// says the work belongs.
func TestMigrateTraceReplay(t *testing.T) {
	// Two value populations with wide margins under the "digest" UDF
	// (fixed 4KB result): small rows cost ~nothing to fetch, so ski-rental
	// buys them after a couple of repeats (fetch class); large rows cost
	// 256ms to fetch at the modeled bandwidth vs ~4ms per compute request,
	// a buy threshold of ~64 that ~22 accesses per key never reach
	// (compute class).
	const probeKeys = 32
	rows := map[string][]byte{}
	for i := 0; i < probeKeys; i++ {
		size := 32
		if i%2 == 1 {
			size = 256 << 10
		}
		v := make([]byte, size)
		for j := range v {
			v[j] = byte('a' + i%26)
		}
		rows[fmt.Sprintf("k%d", i)] = v
	}

	type traced struct {
		mu     sync.Mutex
		events []TraceEvent
	}
	build := func(nodes int) (*migCluster, *traced) {
		tr := &traced{}
		c := newMigCluster(t, nodes, "digest", rows, func(cfg *ExecConfig) {
			cfg.Shards = 1
			cfg.Workers = 1
			cfg.ConnsPerNode = 1
			cfg.NetBw = 1e6 // modeled: fetching 256KB costs 256ms, computing ships 4KB (~4ms)
			cfg.Trace = func(ev TraceEvent) {
				tr.mu.Lock()
				tr.events = append(tr.events, ev)
				tr.mu.Unlock()
			}
		})
		return c, tr
	}
	control, ctrTr := build(1) // never migrates
	moved, movTr := build(2)   // will move every region mid-trace

	ctx := context.Background()
	// drive replays one deterministic skewed slice of the trace through
	// both executors: reads on the probe keys, writes in a disjoint
	// keyspace (w%06d) so the put traffic dirties the migration machinery
	// without touching the probed optimizer state.
	drive := func(lo, hi int) {
		for _, c := range []*migCluster{control, moved} {
			for i := lo; i < hi; i++ {
				k := fmt.Sprintf("k%d", (i*7)%probeKeys) // uniform coverage, odd stride
				if _, err := c.tbl.Call(ctx, k, []byte("p")); err != nil {
					t.Fatalf("call %s: %v", k, err)
				}
				if i%8 == 0 {
					wk := fmt.Sprintf("w%06d", i%64)
					if _, err := c.tbl.Put(ctx, wk, []byte(fmt.Sprintf("s%d", i))); err != nil {
						t.Fatalf("put %s: %v", wk, err)
					}
				}
			}
		}
	}

	drive(0, 400) // warm-up: both executors learn identical state
	for region := 0; region < migRegions; region++ {
		if err := moved.mig.Migrate("t", region, 0, 1); err != nil {
			t.Fatalf("migrate region %d: %v", region, err)
		}
	}
	ctrTr.mu.Lock()
	ctrMark := len(ctrTr.events)
	ctrTr.mu.Unlock()
	movTr.mu.Lock()
	movMark := len(movTr.events)
	movTr.mu.Unlock()
	drive(400, 700) // post-cutover slice: decisions must match

	// Compare the post-cutover probe decisions class by class, in order.
	classes := func(tr *traced, from int) (cls []bool, keys []string) {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		for _, ev := range tr.events[from:] {
			if ev.Kind != TraceRoute || len(ev.Key) == 0 || ev.Key[0] != 'k' {
				continue
			}
			cls = append(cls, ev.Route == core.RouteCompute)
			keys = append(keys, ev.Key)
		}
		return cls, keys
	}
	ctrCls, ctrKeys := classes(ctrTr, ctrMark)
	movCls, movKeys := classes(movTr, movMark)
	if len(ctrCls) != len(movCls) {
		t.Fatalf("trace lengths diverged: control %d decisions, migrated %d", len(ctrCls), len(movCls))
	}
	sawCompute, sawFetch := false, false
	for i := range ctrCls {
		if ctrKeys[i] != movKeys[i] {
			t.Fatalf("decision %d: traces desynchronized (%s vs %s)", i, ctrKeys[i], movKeys[i])
		}
		if ctrCls[i] != movCls[i] {
			t.Errorf("decision %d (%s): control compute=%v, migrated compute=%v — learned state did not survive the move",
				i, ctrKeys[i], ctrCls[i], movCls[i])
		}
		if ctrCls[i] {
			sawCompute = true
		} else {
			sawFetch = true
		}
	}
	if !sawCompute || !sawFetch {
		t.Fatalf("degenerate trace (compute=%v fetch=%v): the equivalence proves nothing", sawCompute, sawFetch)
	}
	if moved.exec.Moved.Load() == 0 {
		t.Fatal("migrated executor resolved no redirect; the trace never exercised the move")
	}
}

// TestServerDrain pins graceful shutdown: Drain stops the listener, lets
// in-flight requests finish, and only then closes — a request the server
// already accepted gets its answer, and new dials are refused.
func TestServerDrain(t *testing.T) {
	reg := NewRegistry()
	release := make(chan struct{})
	reg.Register("slow", func(key string, p, value []byte) []byte {
		<-release
		return append([]byte{}, value...)
	})
	srv := NewServer(reg, false)
	srv.AddTable(TableSpec{Name: "t", UDF: "slow", Rows: map[string][]byte{"a": []byte("v")}})
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := DialNode(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	type result struct {
		resp *Response
		err  error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := conn.Call(Request{Op: OpExec, Table: "t", Keys: []string{"a"}})
		inflight <- result{resp, err}
	}()
	// Wait until the server has the request admitted, then drain while the
	// UDF is still blocked; release it mid-drain.
	for srv.Execs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	drained := make(chan bool, 1)
	go func() { drained <- srv.Drain(5 * time.Second) }()
	time.Sleep(20 * time.Millisecond) // listener closed, request in flight
	close(release)
	if idle := <-drained; !idle {
		t.Fatal("Drain timed out with one releasable request in flight")
	}
	r := <-inflight
	if r.err != nil || r.resp.Code != CodeOK {
		t.Fatalf("in-flight request during drain: resp=%+v err=%v", r.resp, r.err)
	}
	if _, err := DialNode(addr, nil); err == nil {
		t.Fatal("dial succeeded after drain closed the listener")
	}
}

// TestFaultMembershipServesReplicatedTable exercises what the old
// Membership × Replicas rejection forbade: one membership cluster serving a
// replicated table "r" (R=3 on nodes 0–2) beside an unreplicated table "s"
// (every region on node 0), through one stale-clone client. Node 2 is killed
// under load — reads of "r" fail over, its quorum puts keep acking on the
// two survivors — while node 3 joins and every region of "s" is drained to
// it, reaching the client as redirects alone. No read error may surface, no
// acked put of either table may be lost, and Migrate of a region of "r"
// must refuse, saying why, before it changes anything.
func TestFaultMembershipServesReplicatedTable(t *testing.T) {
	const keys = 32
	reg := NewRegistry()
	reg.Register("tag", func(key string, p, value []byte) []byte {
		return append(append(append([]byte{}, value...), '#'), p...)
	})
	rows := map[string][]byte{}
	for i := 0; i < keys; i++ {
		rows[fmt.Sprintf("k%d", i)] = []byte(fmt.Sprintf("v-%d", i))
	}
	m := membership.NewMap()
	servers := map[cluster.NodeID]*Server{}
	addrs := map[cluster.NodeID]string{}
	boot := func(id cluster.NodeID) {
		srv := NewServer(reg, false)
		for _, name := range []string{"r", "s"} {
			srv.AddTable(TableSpec{Name: name, UDF: "tag", Rows: rows})
		}
		addr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatalf("serve node %d: %v", id, err)
		}
		t.Cleanup(srv.Close)
		servers[id], addrs[id] = srv, addr
		m.AddNode(id, addr)
	}
	trio := []cluster.NodeID{0, 1, 2}
	for _, id := range trio {
		boot(id)
	}
	tables := map[string]*store.Table{
		"r": store.NewTable("r", rerouteCatalog, 2, trio),
		"s": store.NewTable("s", rerouteCatalog, migRegions, []cluster.NodeID{0}),
	}
	m.SetTableSets("r", membership.ReplicaSets(tables["r"], 3))
	m.SetTable("s", make([]cluster.NodeID, migRegions)) // every region → node 0
	for _, srv := range servers {
		srv.SetMembership(m)
	}
	e, err := NewExecutor(ExecConfig{
		Tables:         tables,
		Addrs:          maps.Clone(addrs),
		Membership:     m.Clone(), // stale from here on: node 3 and the drain arrive as redirects
		Registry:       reg,
		TableUDF:       map[string]string{"r": "tag", "s": "tag"},
		Optimizer:      core.Config{Policy: core.Policy{Caching: true}, MemCacheBytes: 1 << 20},
		BatchWait:      200 * time.Microsecond,
		RequestTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("a membership map holding a replicated table was rejected: %v", err)
	}
	t.Cleanup(e.Close)
	ctx := context.Background()

	var (
		ledgers = map[string]*history.Ledger{"r": {}, "s": {}}
		stop    atomic.Bool
		readErr atomic.Int64
		wg      sync.WaitGroup
	)
	for _, name := range []string{"r", "s"} {
		tbl := e.Table(name)
		wg.Add(2)
		go func() { // writer: a failed put is maybe committed; the retry is a newer version
			defer wg.Done()
			for i := 1; !stop.Load(); i++ {
				k, v := fmt.Sprintf("w%d", i%24), fmt.Sprintf("seq%d", i)
				ver, err := tbl.Put(ctx, k, []byte(v))
				if err != nil {
					time.Sleep(time.Millisecond)
					continue
				}
				ledgers[name].Ack(k, []byte(v), ver)
			}
		}()
		go func() { // reader: failover and redirects must absorb everything
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				k := fmt.Sprintf("k%d", i%keys)
				opts := []CallOption{}
				if i%3 == 0 {
					opts = append(opts, WithNoCache())
				}
				if _, err := tbl.Call(ctx, k, []byte("p"), opts...); err != nil {
					readErr.Add(1)
					t.Errorf("read %s/%s surfaced: %v", name, k, err)
					return
				}
			}
		}()
	}
	acked := func() int64 { return ledgers["r"].Acked() + ledgers["s"].Acked() }
	runUntil := func(n int64) {
		for target := acked() + n; acked() < target; {
			time.Sleep(time.Millisecond)
		}
	}
	runUntil(100)

	// A replicated region does not migrate: refused up front, nothing changed.
	mig := &Migrator{Map: m, Servers: servers}
	before := m.View()
	owner, _ := before.Owner("r", 0)
	if err := mig.Migrate("r", 0, owner, (owner+1)%3); err == nil || !strings.Contains(err.Error(), "replicated") {
		t.Fatalf("Migrate of an R=3 region: %v, want a refusal that says why", err)
	}
	if m.View() != before || servers[owner].migActive.Load() != 0 {
		t.Fatal("the refused migration changed the map or registered the region")
	}

	servers[2].Close() // one replica of every region of "r" dies under load
	boot(3)            // a node the client has never heard of
	servers[3].SetMembership(m)
	if moved, err := mig.Drain(0, 3, []string{"s"}); err != nil || moved != migRegions {
		t.Fatalf("drain of the unreplicated table: moved %d regions, err %v", moved, err)
	}
	runUntil(100)
	stop.Store(true)
	wg.Wait()

	if readErr.Load() > 0 {
		t.Fatalf("%d reads surfaced errors", readErr.Load())
	}
	if e.Moved.Load() == 0 {
		t.Fatal("no CodeMoved redirect was exercised; the stale client never had to learn")
	}
	if e.Failed.Load() != 0 {
		t.Fatalf("executor counted %d failed submissions; failover and redirects must absorb them", e.Failed.Load())
	}
	// Every acked put is held at >= its acked version: an "s" row by the
	// node its region drained to, an "r" row by a surviving member of its set.
	for name, holders := range map[string][]cluster.NodeID{"r": {0, 1}, "s": {3}} {
		reads := make([]func(string) ([]byte, int64, error), len(holders))
		for i, n := range holders {
			conn, err := DialNode(addrs[n], nil)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			reads[i] = nodeReader(conn, name)
		}
		newest := func(k string) (val []byte, ver int64, err error) {
			for i, read := range reads {
				v, vv, err := read(k)
				if err != nil {
					return nil, 0, fmt.Errorf("node %d: %w", holders[i], err)
				}
				if vv > ver {
					val, ver = v, vv
				}
			}
			return val, ver, nil
		}
		for _, v := range ledgers[name].Audit(newest) {
			t.Errorf("table %s on %v: %v", name, holders, v)
		}
	}
}
