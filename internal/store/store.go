// Package store models the parallel data store of the paper's architecture
// (HBase in the original): tables hash-partitioned into regions hosted on
// data nodes, key-indexed row access, server-side function execution
// (coprocessors), and update notifications for cache invalidation
// (Section 4.2.3).
//
// The simulation plane stores row *metadata* (value size, UDF cost) rather
// than bytes; the live plane (package live) stores real bytes but reuses the
// partitioning hash (RegionIndex) here; where a live table's regions and their
// replicas sit is package membership's to answer.
package store

import (
	"fmt"
	"sort"

	"joinopt/internal/cluster"
)

// RowMeta describes a stored row for cost purposes.
type RowMeta struct {
	// ValueSize is s_v for this key, in bytes.
	ValueSize int64
	// ComputedSize is s_cv: the size of the UDF result for this key.
	ComputedSize int64
	// ComputeCost is the UDF execution time for this key, in seconds,
	// on a reference core (the paper's nodes are homogeneous).
	ComputeCost float64
}

// Catalog supplies per-key row metadata. Workloads implement it; it must be
// deterministic in the key so that compute and data nodes agree.
type Catalog interface {
	Row(key string) RowMeta
}

// CatalogFunc adapts a function to the Catalog interface.
type CatalogFunc func(key string) RowMeta

// Row implements Catalog.
func (f CatalogFunc) Row(key string) RowMeta { return f(key) }

// Region is one partition of a table, hosted on a data node.
type Region struct {
	Index int
	Node  cluster.NodeID
}

// Table is a hash-partitioned stored relation. Rows are indexed by key;
// Locate never touches the (simulated) disk, matching HBase's cached region
// map on the client.
type Table struct {
	Name    string
	Catalog Catalog

	regions []Region

	// updates tracks row versions for invalidation: version 0 means never
	// updated. Timestamps ride on compute-request responses so compute
	// nodes can reset ski-rental counters (Section 4.2.3).
	versions map[string]int64
}

// NewTable creates a table with regionsPerNode regions on each given node.
// Region assignment is round-robin, mirroring a balanced HBase table.
func NewTable(name string, catalog Catalog, regionsPerNode int, nodes []cluster.NodeID) *Table {
	if regionsPerNode <= 0 {
		panic("store: regionsPerNode must be positive")
	}
	if len(nodes) == 0 {
		panic("store: table needs at least one node")
	}
	t := &Table{Name: name, Catalog: catalog, versions: make(map[string]int64)}
	total := regionsPerNode * len(nodes)
	for r := 0; r < total; r++ {
		t.regions = append(t.regions, Region{Index: r, Node: nodes[r%len(nodes)]})
	}
	return t
}

// Regions returns the table's regions.
func (t *Table) Regions() []Region { return t.regions }

// RegionFor returns the region index covering key.
func (t *Table) RegionFor(key string) int {
	return RegionIndex(key, len(t.regions))
}

// RegionIndex is the table-partitioning hash exposed standalone: the region
// index (FNV-1a of the key, mod nregions) that a table with nregions regions
// assigns the key to. Store nodes and the membership plane use it to agree
// on partition boundaries without holding a *Table — a server checking
// whether a key belongs to a migrated-away region, a partition-scoped scan
// filtering rows, and the client's owner lookup all hash identically.
// Allocation-free (the hash is inlined rather than going through hash/fnv's
// interface), so it is safe on routing hot paths.
//
//joinopt:hotpath
func RegionIndex(key string, nregions int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % uint64(nregions))
}

// Locate returns the data node hosting key.
func (t *Table) Locate(key string) cluster.NodeID {
	return t.regions[t.RegionFor(key)].Node
}

// Row returns metadata for key.
func (t *Table) Row(key string) RowMeta { return t.Catalog.Row(key) }

// Version returns the current row version for key (0 = never updated).
func (t *Table) Version(key string) int64 { return t.versions[key] }

// Update bumps the row version and returns the new version. The caller
// (the data-node model) is responsible for emitting notifications.
func (t *Table) Update(key string) int64 {
	t.versions[key]++
	return t.versions[key]
}

// NodesByRegionCount returns node -> number of regions, for balance checks.
func (t *Table) NodesByRegionCount() map[cluster.NodeID]int {
	m := make(map[cluster.NodeID]int)
	for _, r := range t.regions {
		m[r.Node]++
	}
	return m
}

// Store is a set of tables plus the per-key cacher tracking used by the
// tracked-notification invalidation mode.
type Store struct {
	tables map[string]*Table

	// cachers[table][key] = set of compute nodes that fetched and cached
	// the row (Section 4.2.3's second notification scheme).
	cachers map[string]map[string]map[cluster.NodeID]struct{}
}

// New creates an empty store.
func New() *Store {
	return &Store{
		tables:  make(map[string]*Table),
		cachers: make(map[string]map[string]map[cluster.NodeID]struct{}),
	}
}

// AddTable registers a table. Duplicate names panic: experiment setup bug.
func (s *Store) AddTable(t *Table) {
	if _, dup := s.tables[t.Name]; dup {
		panic(fmt.Sprintf("store: duplicate table %q", t.Name))
	}
	s.tables[t.Name] = t
	s.cachers[t.Name] = make(map[string]map[cluster.NodeID]struct{})
}

// Table returns the named table or nil.
func (s *Store) Table(name string) *Table { return s.tables[name] }

// TableNames returns the registered table names, sorted.
func (s *Store) TableNames() []string {
	out := make([]string, 0, len(s.tables))
	for n := range s.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RecordCacher notes that a compute node cached table/key (data request
// served). Used by the tracked invalidation mode.
func (s *Store) RecordCacher(table, key string, node cluster.NodeID) {
	m := s.cachers[table]
	if m == nil {
		return
	}
	set := m[key]
	if set == nil {
		set = make(map[cluster.NodeID]struct{})
		m[key] = set
	}
	set[node] = struct{}{}
}

// Cachers returns the compute nodes known to cache table/key.
func (s *Store) Cachers(table, key string) []cluster.NodeID {
	set := s.cachers[table][key]
	out := make([]cluster.NodeID, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DropCacher forgets one cacher (its cache entry was invalidated).
func (s *Store) DropCacher(table, key string, node cluster.NodeID) {
	if set := s.cachers[table][key]; set != nil {
		delete(set, node)
		if len(set) == 0 {
			delete(s.cachers[table], key)
		}
	}
}
