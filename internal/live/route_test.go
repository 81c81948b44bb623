package live

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"joinopt/internal/cluster"
	"joinopt/internal/loadbalance"
	"joinopt/internal/membership"
	"joinopt/internal/store"
)

// replicaState scripts what pickReplica can know about one node.
type replicaState struct {
	dialed, live bool
	credit, win  uint8   // the node's last advertised pair; win 0 = never signaled
	cost         float64 // EWMA service seconds; 0 = unobserved
}

// scriptedPool is a pool pickReplica can probe but nothing may send on: its
// one slot holds a bare conn (live) or nothing (every conn down).
func scriptedPool(s replicaState) *Pool {
	p := &Pool{slots: make([]atomic.Pointer[Conn], 1)}
	if s.live {
		p.slots[0].Store(&Conn{})
	}
	p.observeCredit(s.credit, s.win)
	return p
}

// TestPickReplica drives the replica picker over scripted node states: dead
// and undialed nodes are skipped, a node advertising credit 0 loses to any
// live node with credit however cheap it looks, and a fully starved set falls
// back to its cheapest member. Rows without starvation must agree with
// loadbalance.ReplicaTracker.Pick, the cheapest-alive reference.
func TestPickReplica(t *testing.T) {
	up := replicaState{dialed: true, live: true}
	starved := func(cost float64) replicaState {
		return replicaState{dialed: true, live: true, credit: 0, win: 16, cost: cost}
	}
	costing := func(cost float64) replicaState {
		return replicaState{dialed: true, live: true, credit: 8, win: 16, cost: cost}
	}
	cases := []struct {
		name  string
		nodes []replicaState // in placement order: node i is nodes[i]
		want  cluster.NodeID
	}{
		{"unobserved set prefers the primary", []replicaState{up, up, up}, 0},
		{"cheapest observed wins", []replicaState{costing(3e-3), costing(1e-3), costing(2e-3)}, 1},
		{"unobserved beats observed", []replicaState{costing(1e-3), up, costing(2e-3)}, 1},
		{"dead primary is skipped", []replicaState{{dialed: true}, costing(2e-3), costing(1e-3)}, 2},
		{"undialed node is skipped", []replicaState{{}, up, up}, 1},
		{"every replica down: the primary takes the failure", []replicaState{{dialed: true}, {}, {dialed: true}}, 0},
		{"starved primary loses to a dearer replica", []replicaState{starved(1e-3), costing(5e-3), costing(9e-3)}, 1},
		{"starved and unobserved loses to an observed replica", []replicaState{starved(0), costing(5e-3), {dialed: true}}, 1},
		{"credit left is not starved", []replicaState{{dialed: true, live: true, credit: 1, win: 16, cost: 1e-3}, costing(5e-3)}, 0},
		{"all starved: the cheapest starved", []replicaState{starved(3e-3), starved(1e-3), {dialed: true}}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := &Executor{tracker: loadbalance.NewReplicaTracker()}
			ns := nodeSet{}
			var ids []cluster.NodeID
			var ints []int
			anyStarved := false
			for i, s := range tc.nodes {
				ids, ints = append(ids, cluster.NodeID(i)), append(ints, i)
				if s.dialed {
					ns[cluster.NodeID(i)] = &nodeState{pool: scriptedPool(s)}
				}
				if s.cost > 0 {
					e.tracker.Observe(i, s.cost)
				}
				anyStarved = anyStarved || (s.live && s.win > 0 && s.credit == 0)
			}
			e.nodes.Store(&ns)
			got := e.pickReplica(ids)
			if got != tc.want {
				t.Fatalf("pickReplica = node %d, want node %d", got, tc.want)
			}
			if !anyStarved {
				ref := e.tracker.Pick(ints, func(n int) bool { return tc.nodes[n].live })
				if cluster.NodeID(ints[ref]) != got {
					t.Fatalf("pickReplica = node %d, the reference Pick says node %d", got, ints[ref])
				}
			}
			if n := testing.AllocsPerRun(100, func() { e.pickReplica(ids) }); n != 0 {
				t.Fatalf("pickReplica allocates %.0f times per call", n)
			}
		})
	}
}

// TestPlacement pins the one placement question over the ways a map gets
// filled: the executor's private static fill (one copy), a static fill at R=3,
// a coordinator's map with sets of one that is followed as it changes, and a
// coordinator's map holding a replicated table. Every row answers through the
// same placement body: the set is the map's for the key's region, primary
// first and where the striping put it, placedOn is membership in the set, and
// neither allocates.
func TestPlacement(t *testing.T) {
	nodes := []cluster.NodeID{0, 1, 2}
	tables := map[string]*store.Table{"t": store.NewTable("t", rerouteCatalog, 2, nodes)}
	coordinator := func(sets [][]cluster.NodeID) *membership.Map {
		m := membership.NewMap()
		m.SetTableSets("t", sets)
		return m
	}
	onNode2 := [][]cluster.NodeID{{2}, {2}, {2}, {2}, {2}, {2}} // whatever the striping says
	cases := []struct {
		name   string
		member *membership.Map // nil: the executor fills its own
		want   [][]cluster.NodeID
		static bool // filled under epoch 0, primaries where the striping put them
	}{
		{"static R=1", nil, membership.ReplicaSets(tables["t"], 1), true},
		{"static R=3", membership.NewStatic(nil, tables, 3), membership.ReplicaSets(tables["t"], 3), true},
		{"coordinator R=1", coordinator(onNode2), onNode2, false},
		{"coordinator R=3", coordinator(membership.ReplicaSets(tables["t"], 3)), membership.ReplicaSets(tables["t"], 3), false},
	}
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewExecutor(ExecConfig{Tables: tables, Registry: NewRegistry(), Membership: tc.member})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(e.Close)
			if got := e.member.Epoch(); (got == 0) != tc.static {
				t.Fatalf("routing epoch %d: a static fill stamps 0, a coordinator's map never does", got)
			}
			tbl := e.Table("t")
			check := func(k string, want []cluster.NodeID) {
				t.Helper()
				set := tbl.placement(k)
				if !slices.Equal(set, want) {
					t.Fatalf("%s: placement %v, want %v", k, set, want)
				}
				for _, n := range nodes {
					if tbl.placedOn(k, n) != slices.Contains(want, n) {
						t.Fatalf("%s: placedOn(%d) = %v with the set %v", k, n, tbl.placedOn(k, n), want)
					}
				}
			}
			for _, k := range keys {
				want := tc.want[store.RegionIndex(k, len(tc.want))]
				check(k, want)
				if tc.static && want[0] != tables["t"].Locate(k) {
					t.Fatalf("%s: primary %d, the striping says %d", k, want[0], tables["t"].Locate(k))
				}
			}
			if n := testing.AllocsPerRun(100, func() { tbl.placement("k0"); tbl.placedOn("k0", 1) }); n != 0 {
				t.Fatalf("placement + placedOn allocate %.0f times per call", n)
			}
			if tc.name == "coordinator R=1" {
				// The map moves a region: the very next question follows it.
				tc.member.SetOwner("t", store.RegionIndex("k0", 6), 1)
				check("k0", []cluster.NodeID{1})
			}
		})
	}
}

// TestNewExecutorValidatesMap pins what construction asks of a given map:
// every configured table is in it (the error names the one that is not), and
// a map holding a replicated table is accepted — the old Membership × Replicas
// rejection is gone.
func TestNewExecutorValidatesMap(t *testing.T) {
	tables := map[string]*store.Table{
		"t":       store.NewTable("t", rerouteCatalog, 2, []cluster.NodeID{0, 1, 2}),
		"missing": store.NewTable("missing", rerouteCatalog, 2, []cluster.NodeID{0, 1, 2}),
	}
	m := membership.NewMap()
	m.SetTableSets("t", membership.ReplicaSets(tables["t"], 3))
	_, err := NewExecutor(ExecConfig{Tables: tables, Registry: NewRegistry(), Membership: m})
	if err == nil || !strings.Contains(err.Error(), `"missing"`) {
		t.Fatalf("NewExecutor with a table the map does not hold: %v, want an error naming it", err)
	}
	delete(tables, "missing")
	e, err := NewExecutor(ExecConfig{Tables: tables, Registry: NewRegistry(), Membership: m})
	if err != nil {
		t.Fatalf("NewExecutor with a map holding a replicated table: %v", err)
	}
	e.Close()
}

// TestSharedTablesConcurrentExecutors is the regression for a data race:
// NewExecutor used to write the replica factor into the store.Tables it was
// handed, which every client of one cluster shares. Executors are built
// concurrently against one shared map of tables while another routes through
// it; NewExecutor must only read what it is given.
func TestSharedTablesConcurrentExecutors(t *testing.T) {
	tables := map[string]*store.Table{"t": store.NewTable("t", rerouteCatalog, 2, []cluster.NodeID{0, 1, 2})}
	build := func(r int) *Executor {
		e, err := NewExecutor(ExecConfig{Tables: tables, Registry: NewRegistry(), Membership: membership.NewStatic(nil, tables, r)})
		if err != nil {
			t.Error(err)
			return nil
		}
		return e
	}
	router := build(3)
	if router == nil {
		t.FailNow()
	}
	t.Cleanup(router.Close)
	var wg sync.WaitGroup
	for _, r := range []int{3, 2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if e := build(r); e != nil {
					e.Close()
				}
			}
		}()
	}
	tbl := router.Table("t")
	for i := 0; i < 2000; i++ {
		if set := tbl.placement(fmt.Sprintf("k%d", i)); len(set) != 3 {
			t.Fatalf("placement %v changed under a concurrent NewExecutor", set)
		}
	}
	wg.Wait()
}
