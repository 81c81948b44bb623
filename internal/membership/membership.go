// Package membership is the live plane's placement: one epoch-versioned
// partition map answers "where does this key live" for every executor,
// replicas of a region included — the paper's client-cached region map. A
// statically configured cluster routes through an epoch-0 map filled once
// (NewStatic); an elastic one shares a coordinator's map (NewMap), so data
// nodes can join and leave a *running* cluster.
//
// # Model
//
// A Map holds one monotonically increasing epoch and, per table, a dense
// region → replica set assignment: the region's nodes in placement order,
// primary (the owner) first; an unreplicated region is a set of one. Region
// boundaries are store.RegionIndex, the FNV-1a hash static tables use. Two
// policies fill a set (ReplicaSets): the primary is the table's round-robin
// striping, the backups are the region's consistent-hash ring successors.
// Every mutation — a node joining, a region changing owners at a migration
// cutover — installs a fresh immutable View under the next epoch. Readers
// (the executor's per-op placement lookup) load the View through one atomic
// pointer: no locks, no allocation on the routing hot path.
//
// Clients stamp every wire request with their View's epoch. A store node
// compares that stamp against its own installed epoch — one comparison when
// nothing is migrating — and a node that no longer owns a key answers with a
// typed CodeMoved redirect carrying the new epoch and owner instead of a
// wrong answer. A client holding a stale Map applies redirects with
// LearnOwner, converging region by region without a coordinator round trip.
//
// # Epochs
//
// Epoch 0 is reserved on the wire for "no membership configured": a static
// map (NewStatic) stamps 0 until a redirect teaches it otherwise, and servers
// without a map expect 0, so the pre-v4 deployment shape stays a single equal
// comparison. A coordinator's Map therefore starts at epoch 1. Each mutation
// bumps the epoch by exactly one; a migration's cutover is *fenced* on that
// bump — the old owner starts redirecting and the new owner starts serving
// under the same freshly installed epoch, so there is no epoch at which both
// nodes claim the region.
//
// Each region additionally remembers the epoch at which its ownership was
// last set (TableView.Epochs), and LearnOwner compares a redirect against
// *that*, not the map's global epoch. The global epoch alone would deadlock
// a partially-learned client: one redirect jumps its global epoch to 9
// while another region's entry is still the epoch-3 assignment, and the
// epoch-5 redirect that would fix that region would compare stale against
// 9 and be dropped forever. Per-region comparison accepts exactly the
// redirects that carry newer information about the region they name.
package membership

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"joinopt/internal/cluster"
	"joinopt/internal/store"
)

// Map is the epoch-versioned partition map. The zero value is not usable;
// call NewMap or NewStatic. Writers (a membership coordinator, a client
// applying redirects) serialize on an internal mutex; readers are lock-free.
type Map struct {
	mu   sync.Mutex // serializes view replacement; never held while blocking
	view atomic.Pointer[View]
}

// View is one immutable epoch of the partition map. All fields and the maps
// and slices they reach are frozen at install time: readers may hold a View
// across any number of lookups without synchronization.
type View struct {
	// Epoch is the map version this view was installed under (0 only in a
	// static map no redirect has taught yet).
	Epoch uint64
	// Tables maps table name → its region placement.
	Tables map[string]*TableView
	// Addrs maps node → its wire address (host:port).
	Addrs map[cluster.NodeID]string
}

// TableView is one table's frozen placement: region i lives on Sets[i], in
// placement order with the primary — the region's owner — first, and
// len(Sets) is the table's region count.
type TableView struct {
	Sets [][]cluster.NodeID
	// Epochs[i] is the epoch at which region i's ownership was last set —
	// the fencing token a CodeMoved redirect for the region is compared
	// against (see LearnOwner).
	Epochs []uint64
}

// NewMap returns an empty coordinator's map at epoch 1.
func NewMap() *Map {
	m := &Map{}
	m.view.Store(&View{
		Epoch:  1,
		Tables: map[string]*TableView{},
		Addrs:  map[cluster.NodeID]string{},
	})
	return m
}

// NewStatic returns the map of a statically configured cluster: the given
// addresses (copied) and every table's ReplicaSets at factor r, under epoch
// 0, the wire's "no membership configured" stamp — servers that were never
// given a map expect exactly that, so requests routed by this map stay on
// their one-comparison fast path. The epoch leaves 0 only when a CodeMoved
// redirect teaches the map a newer owner (LearnOwner), or a coordinator's
// mutation is applied to it.
func NewStatic(addrs map[cluster.NodeID]string, tables map[string]*store.Table, r int) *Map {
	v := &View{Tables: make(map[string]*TableView, len(tables)), Addrs: make(map[cluster.NodeID]string, len(addrs))}
	maps.Copy(v.Addrs, addrs)
	for name, t := range tables {
		sets := ReplicaSets(t, r)
		v.Tables[name] = &TableView{Sets: sets, Epochs: make([]uint64, len(sets))}
	}
	m := &Map{}
	m.view.Store(v)
	return m
}

// ReplicaSets applies the two fill policies to a striped table and returns
// its regions' replica sets, r copies each. The primary of region i is the
// node store.NewTable's round-robin striping put it on (nodes[i % len(nodes)]),
// so a key's owner is Table.Locate's answer at every r; the r-1 backups are
// the first distinct ring successors of Hash("<table>#<region>") on the
// consistent-hash ring over the table's nodes, skipping the primary — every
// client and the seeding side derive identical sets from the table alone.
// r == 0 means cluster.DefaultReplicas; r is clamped to [1, distinct nodes].
func ReplicaSets(t *store.Table, r int) [][]cluster.NodeID {
	regions := t.Regions()
	if r == 0 {
		r = cluster.DefaultReplicas
	}
	var ring *cluster.Ring
	if r > 1 {
		primaries := make([]cluster.NodeID, len(regions))
		for i, reg := range regions {
			primaries[i] = reg.Node
		}
		ring = cluster.NewRing(primaries, 0) // duplicates collapse: the table's distinct nodes
		r = min(r, ring.Nodes())
	}
	sets := make([][]cluster.NodeID, len(regions))
	for i, reg := range regions {
		sets[i] = []cluster.NodeID{reg.Node}
		if r > 1 {
			h := cluster.Hash(fmt.Sprintf("%s#%d", t.Name, reg.Index))
			sets[i] = append(sets[i], ring.Successors(h, r-1, reg.Node)...)
		}
	}
	return sets
}

// View returns the current immutable view.
//
//joinopt:hotpath
func (m *Map) View() *View { return m.view.Load() }

// Epoch returns the current epoch.
//
//joinopt:hotpath
func (m *Map) Epoch() uint64 { return m.view.Load().Epoch }

// Clone returns an independent Map frozen at m's current view: the clone
// starts with the same epoch and placement but does not observe later
// mutations of m. Every client of a cluster routes through its own clone,
// and drills and tests use one to model a client whose map went stale and
// must converge through CodeMoved redirects.
func (m *Map) Clone() *Map {
	c := &Map{}
	c.view.Store(m.view.Load())
	return c
}

// next returns a copy of old under the given epoch whose table and address
// maps can be edited (a TableView is replaced copy-on-write when edited).
func (old *View) next(epoch uint64) *View {
	return &View{Epoch: epoch, Tables: maps.Clone(old.Tables), Addrs: maps.Clone(old.Addrs)}
}

// mutate installs the next view: it copies the current view, applies fn to
// the copy, bumps the epoch and swaps the pointer. Returns the new epoch.
func (m *Map) mutate(fn func(*View)) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.view.Load()
	next := old.next(old.Epoch + 1)
	fn(next)
	m.view.Store(next)
	return next.Epoch
}

// AddNode registers (or re-addresses) a data node and returns the new
// epoch. Adding a node assigns it no regions; ownership moves only through
// SetTable/SetOwner (a migration cutover).
func (m *Map) AddNode(id cluster.NodeID, addr string) uint64 {
	return m.mutate(func(v *View) { v.Addrs[id] = addr })
}

// RemoveNode forgets a node's address and returns the new epoch. The caller
// must have migrated every region away first; RemoveNode panics if the node
// is still a member of a region's set — silently black-holing a partition
// (or a copy of one) is never correct.
func (m *Map) RemoveNode(id cluster.NodeID) uint64 {
	return m.mutate(func(v *View) {
		for name, tv := range v.Tables {
			for _, set := range tv.Sets {
				for _, member := range set {
					if member == id {
						panic("membership: RemoveNode(" + name + " owner still)") //lint:allow errcode coordinator misuse is a programming error, not a request outcome
					}
				}
			}
		}
		delete(v.Addrs, id)
	})
}

// SetTable installs an unreplicated table — owners[i] alone holds region i —
// and returns the new epoch: SetTableSets with sets of one. Promoting a
// static store.Table: pass one owner per region in region order and the map
// reproduces Table.Locate exactly.
func (m *Map) SetTable(name string, owners []cluster.NodeID) uint64 {
	sets := make([][]cluster.NodeID, len(owners))
	for i := range owners {
		sets[i] = owners[i : i+1]
	}
	return m.SetTableSets(name, sets)
}

// SetTableSets installs a table's full placement (sets[i] is region i's
// replica set, primary first; copied) and returns the new epoch. An
// executor decides at construction whether it prices replicas, so install a
// table's sets before building the executors that route it.
func (m *Map) SetTableSets(name string, sets [][]cluster.NodeID) uint64 {
	cp := make([][]cluster.NodeID, len(sets))
	for i, set := range sets {
		cp[i] = slices.Clone(set)
	}
	return m.mutate(func(v *View) {
		eps := make([]uint64, len(cp))
		for i := range eps {
			eps[i] = v.Epoch // the install is each region's first assignment
		}
		v.Tables[name] = &TableView{Sets: cp, Epochs: eps}
	})
}

// SetOwner makes owner the sole holder of one region of a table and returns
// the new epoch — this is the fenced cutover bump of a shard migration.
// Panics on an unknown table or out-of-range region (coordinator bug).
func (m *Map) SetOwner(table string, region int, owner cluster.NodeID) uint64 {
	return m.mutate(func(v *View) {
		tv := v.Tables[table]
		if tv == nil || region < 0 || region >= len(tv.Sets) {
			panic("membership: SetOwner of unknown table/region") //lint:allow errcode coordinator misuse is a programming error, not a request outcome
		}
		v.Tables[table] = tv.withOwner(region, owner, v.Epoch)
	})
}

// withOwner returns a copy of tv whose region is held by owner alone since
// epoch. The other regions' sets are shared: a set is never edited in place.
func (tv *TableView) withOwner(region int, owner cluster.NodeID, epoch uint64) *TableView {
	next := &TableView{
		Sets:   append([][]cluster.NodeID(nil), tv.Sets...),
		Epochs: append([]uint64(nil), tv.Epochs...),
	}
	next.Sets[region] = []cluster.NodeID{owner}
	next.Epochs[region] = epoch
	return next
}

// LearnOwner applies one region's ownership learned from a CodeMoved
// redirect: if epoch is newer than the epoch at which the region's current
// assignment was set (TableView.Epochs[region]), the region's owner (and
// the owner's address) are updated, the region's epoch becomes the
// redirect's, and the map's global epoch rises to the redirect's when the
// redirect is ahead of it. Reports whether the map changed. A redirect at
// or below the region's epoch is ignored — a racing or delayed redirect
// from an older cutover can never roll the region back — and so is one that
// names a region with more than one member: a redirect is wire input, and
// no cutover moves a replicated region (Migrator.Migrate refuses it), so
// nothing true could be learned from it.
//
// A redirect teaches one region at a time; a client many epochs behind
// converges through successive redirects (each wrong guess is answered with
// a newer lesson), which is self-healing without a coordinator.
func (m *Map) LearnOwner(epoch uint64, table string, region int, owner cluster.NodeID, addr string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.view.Load()
	tv := old.Tables[table]
	if tv == nil || region < 0 || region >= len(tv.Sets) || len(tv.Sets[region]) > 1 {
		return false
	}
	if epoch <= tv.Epochs[region] {
		return false
	}
	next := old.next(max(epoch, old.Epoch))
	next.Tables[table] = tv.withOwner(region, owner, epoch)
	if addr != "" {
		next.Addrs[owner] = addr
	}
	m.view.Store(next)
	return true
}

// Owner returns the owner (the primary) of table's region and whether the
// table is known.
func (v *View) Owner(table string, region int) (cluster.NodeID, bool) {
	tv := v.Tables[table]
	if tv == nil || region < 0 || region >= len(tv.Sets) {
		return 0, false
	}
	return tv.Sets[region][0], true
}

// ReplicasForKey returns the replica set of key's region in table (via
// store.RegionIndex), primary first — the placement answer. The slice is
// part of the frozen view: read-only, allocation-free. nil for an unknown
// table.
//
//joinopt:hotpath
func (v *View) ReplicasForKey(table, key string) []cluster.NodeID {
	tv := v.Tables[table]
	if tv == nil {
		return nil
	}
	return tv.Sets[store.RegionIndex(key, len(tv.Sets))]
}

// OwnerForKey returns the node owning key in table — the first member of
// its replica set — and whether the table is known.
//
//joinopt:hotpath
func (v *View) OwnerForKey(table, key string) (cluster.NodeID, bool) {
	set := v.ReplicasForKey(table, key)
	if set == nil {
		return 0, false
	}
	return set[0], true
}

// Regions returns the region count of table (0 if unknown).
func (v *View) Regions(table string) int {
	if tv := v.Tables[table]; tv != nil {
		return len(tv.Sets)
	}
	return 0
}

// Addr returns a node's wire address ("" if unknown).
func (v *View) Addr(id cluster.NodeID) string { return v.Addrs[id] }

// RegionsOwnedBy returns the regions of table owned by node (it is their
// primary), ascending. Coordinators use it to enumerate what must migrate
// before a node drains.
func (v *View) RegionsOwnedBy(table string, node cluster.NodeID) []int {
	tv := v.Tables[table]
	if tv == nil {
		return nil
	}
	var out []int
	for i, set := range tv.Sets {
		if set[0] == node {
			out = append(out, i)
		}
	}
	return out
}
