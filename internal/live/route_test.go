package live

import (
	"slices"
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

// TestPlacement pins the one placement question for the three kinds of table:
// static striping, a replica set (primary first), and a membership map that
// overrules the striping and is followed as it changes.
func TestPlacement(t *testing.T) {
	nodes := []cluster.NodeID{0, 1, 2}
	replicated := store.NewTable("r", rerouteCatalog, 2, nodes)
	replicated.SetReplicas(3)
	m := membership.NewMap()
	m.SetTable("m", []cluster.NodeID{2, 2, 2, 2}) // every region on node 2, whatever the striping says
	e, err := NewExecutor(ExecConfig{
		Tables: map[string]*store.Table{
			"s": store.NewTable("s", rerouteCatalog, 2, nodes),
			"r": replicated,
			"m": store.NewTable("m", rerouteCatalog, 2, nodes[:2]),
		},
		Registry:   NewRegistry(),
		Membership: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)

	static, repl, owned := e.Table("s"), e.Table("r"), e.Table("m")
	for _, k := range []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"} {
		if owner, set := static.placement(k); set != nil || owner != static.tbl.Locate(k) {
			t.Fatalf("static %s: owner %d set %v, want the striping's node %d and no set", k, owner, set, static.tbl.Locate(k))
		}
		owner, set := repl.placement(k)
		if !slices.Equal(set, repl.tbl.ReplicaNodes(k)) || len(set) != 3 || owner != set[0] {
			t.Fatalf("replicated %s: owner %d set %v, want the replica set %v led by its primary", k, owner, set, repl.tbl.ReplicaNodes(k))
		}
		for _, n := range nodes {
			if !repl.placedOn(k, n) {
				t.Fatalf("replicated %s: not placed on replica %d", k, n)
			}
			if static.placedOn(k, n) != (n == static.tbl.Locate(k)) {
				t.Fatalf("static %s: placedOn(%d) disagrees with the striping", k, n)
			}
		}
		if owner, set := owned.placement(k); set != nil || owner != 2 {
			t.Fatalf("membership-owned %s: owner %d set %v, want the map's node 2", k, owner, set)
		}
	}
	k := "k0"
	m.SetOwner("m", store.RegionIndex(k, 4), 1)
	if owner, _ := owned.placement(k); owner != 1 || !owned.placedOn(k, 1) || owned.placedOn(k, 2) {
		t.Fatalf("membership-owned %s after the map moved its region: owner %d, want 1", k, owner)
	}
}
