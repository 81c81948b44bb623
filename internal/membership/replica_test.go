package membership

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"joinopt/internal/cluster"
	"joinopt/internal/store"
)

func testTable(nodes, regionsPerNode int) *store.Table {
	ids := make([]cluster.NodeID, nodes)
	for i := range ids {
		ids[i] = cluster.NodeID(i)
	}
	cat := store.CatalogFunc(func(string) store.RowMeta { return store.RowMeta{ValueSize: 64} })
	return store.NewTable("t", cat, regionsPerNode, ids)
}

// staticView fills a static map from tbl at factor r and returns its view.
func staticView(tbl *store.Table, r int) *View {
	return NewStatic(nil, map[string]*store.Table{tbl.Name: tbl}, r).View()
}

func TestReplicaPlacement(t *testing.T) {
	tbl := testTable(5, 2)
	v := staticView(tbl, 3)
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("key-%d", i)
		set := v.ReplicasForKey("t", k)
		if len(set) != 3 {
			t.Fatalf("key %s: replica set %v, want 3 nodes", k, set)
		}
		if set[0] != tbl.Locate(k) {
			t.Fatalf("key %s: primary %d != Locate %d", k, set[0], tbl.Locate(k))
		}
		if owner, ok := v.OwnerForKey("t", k); !ok || owner != set[0] {
			t.Fatalf("key %s: OwnerForKey %d (ok=%v) is not the set's primary %d", k, owner, ok, set[0])
		}
		seen := map[cluster.NodeID]struct{}{}
		for _, n := range set {
			if _, dup := seen[n]; dup {
				t.Fatalf("key %s: duplicate node in %v", k, set)
			}
			seen[n] = struct{}{}
		}
	}
}

func TestReplicaPlacementDeterministic(t *testing.T) {
	a, b := testTable(4, 2), testTable(4, 2)
	sa := ReplicaSets(a, 2)
	ReplicaSets(b, 2)
	// Recomputing on the same table must also be stable (every client and
	// the seeding side fill their own map from it).
	sb := ReplicaSets(b, 2)
	va, vb := staticView(a, 2), staticView(b, 2)
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key-%d", i)
		ka, kb := va.ReplicasForKey("t", k), vb.ReplicasForKey("t", k)
		if !slices.Equal(ka, kb) || len(ka) != 2 {
			t.Fatalf("key %s: placement differs: %v vs %v", k, ka, kb)
		}
	}
	for i := range sa {
		if !slices.Equal(sa[i], sb[i]) {
			t.Fatalf("region %d: placement differs: %v vs %v", i, sa[i], sb[i])
		}
	}
}

func TestReplicaFactorClamps(t *testing.T) {
	tbl := testTable(2, 2)
	factor := func(r int) int {
		sets := ReplicaSets(tbl, r)
		for _, set := range sets {
			if len(set) != len(sets[0]) {
				t.Fatalf("r=%d: uneven sets %v", r, sets)
			}
		}
		return len(sets[0])
	}
	if got := factor(5); got != 2 { // more copies than nodes
		t.Fatalf("factor(5) = %d, want clamp to 2", got)
	}
	if got := factor(0); got != cluster.DefaultReplicas { // default
		t.Fatalf("factor(0) = %d, want DefaultReplicas", got)
	}
	if got := factor(-3); got != 1 {
		t.Fatalf("factor(-3) = %d, want 1", got)
	}
	// Unreplicated: every region is a set of one, its striped primary.
	for i, set := range ReplicaSets(tbl, 1) {
		if len(set) != 1 || set[0] != tbl.Regions()[i].Node {
			t.Fatalf("R=1 region %d: set %v, want only the primary %d", i, set, tbl.Regions()[i].Node)
		}
	}
}

// TestPlacementGolden pins placement across the move of the fill policies
// out of store.Table: each digest was computed at the parent commit from
// store.Table.Locate (R=1) and the table's precomputed replica sets (R>1) over keys
// k0..k255 of table "t" on nodes 0..n-1, as sha256 of "<key>=<set>\n" lines.
// A deployed disk-engine node's rows sit where that placement put them, and
// the benchmark seeds rows with Locate: the map-derived sets must be
// identical, primary first.
func TestPlacementGolden(t *testing.T) {
	golden := []struct {
		nodes, regionsPerNode, r int
		digest                   string
	}{
		{1, 1, 1, "c786dcb15086f419"}, {1, 1, 2, "c786dcb15086f419"}, {1, 1, 3, "c786dcb15086f419"},
		{1, 2, 1, "c786dcb15086f419"}, {1, 2, 2, "c786dcb15086f419"}, {1, 2, 3, "c786dcb15086f419"},
		{2, 1, 1, "04259d5f773aa4ce"}, {2, 1, 2, "67e5e35fb5f34770"}, {2, 1, 3, "67e5e35fb5f34770"},
		{2, 2, 1, "04259d5f773aa4ce"}, {2, 2, 2, "67e5e35fb5f34770"}, {2, 2, 3, "67e5e35fb5f34770"},
		{3, 1, 1, "99dc1791d5dc3b8c"}, {3, 1, 2, "bf06cb64495f8e7d"}, {3, 1, 3, "261e5e01c65463b1"},
		{3, 2, 1, "99dc1791d5dc3b8c"}, {3, 2, 2, "569a5a2bfdd013ab"}, {3, 2, 3, "a65ddece151f431c"},
		{5, 1, 1, "b4c88dcce84d6dea"}, {5, 1, 2, "1c48546b93c91e8b"}, {5, 1, 3, "842e2fc0453ef4c1"},
		{5, 2, 1, "b4c88dcce84d6dea"}, {5, 2, 2, "9e538a87b138ed14"}, {5, 2, 3, "8d7c4ab46070585a"},
	}
	for _, g := range golden {
		tbl := testTable(g.nodes, g.regionsPerNode)
		v := staticView(tbl, g.r)
		h := sha256.New()
		for i := 0; i < 256; i++ {
			k := fmt.Sprintf("k%d", i)
			set := v.ReplicasForKey("t", k)
			if set[0] != tbl.Locate(k) {
				t.Fatalf("%+v key %s: primary %d, Locate says %d", g, k, set[0], tbl.Locate(k))
			}
			fmt.Fprintf(h, "%s=%v\n", k, set)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != g.digest {
			t.Errorf("nodes=%d regionsPerNode=%d R=%d: placement digest %s, the parent commit's is %s",
				g.nodes, g.regionsPerNode, g.r, got, g.digest)
		}
	}
}

func TestStaticMapStampsEpochZeroUntilTaught(t *testing.T) {
	tbl := testTable(2, 2)
	m := NewStatic(map[cluster.NodeID]string{0: "a:1", 1: "b:1"}, map[string]*store.Table{"t": tbl}, 1)
	if m.Epoch() != 0 {
		t.Fatalf("static map epoch = %d, want 0 (the wire's no-membership stamp)", m.Epoch())
	}
	if m.View().Addr(1) != "b:1" || m.View().Regions("t") != 4 {
		t.Fatalf("static view: addr %q, %d regions", m.View().Addr(1), m.View().Regions("t"))
	}
	if !m.LearnOwner(7, "t", 1, 5, "c:1") {
		t.Fatal("a redirect did not teach the static map")
	}
	v := m.View()
	if n, _ := v.Owner("t", 1); n != 5 || v.Epoch != 7 || v.Addr(5) != "c:1" {
		t.Fatalf("after the redirect: owner %d epoch %d addr %q, want 5, 7, c:1", n, v.Epoch, v.Addr(5))
	}
}

func TestLearnOwnerIgnoresMultiMemberRegion(t *testing.T) {
	m := NewMap()
	m.SetTableSets("t", ReplicaSets(testTable(3, 1), 3))
	before := m.View()
	if m.LearnOwner(before.Epoch+10, "t", 0, 2, "x:1") {
		t.Fatal("LearnOwner applied a redirect naming a replicated region")
	}
	if m.View() != before {
		t.Fatal("the view was replaced by an ignored redirect")
	}
}

func TestRemoveNodePanicsWhileBackup(t *testing.T) {
	m := NewMap()
	m.SetTableSets("t", [][]cluster.NodeID{{0, 1}})
	defer func() {
		if recover() == nil {
			t.Fatal("RemoveNode of a region's backup did not panic")
		}
	}()
	m.RemoveNode(1)
}
