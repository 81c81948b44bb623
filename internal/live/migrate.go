package live

import (
	"encoding/binary"
	"fmt"
	"sync"

	"joinopt/internal/cluster"
	"joinopt/internal/membership"
	"joinopt/internal/store"
)

// This file is the server half of elastic membership: the
// CodeMoved redirect payload, the partition-scoped scan filter, the
// per-table migration bookkeeping a store node keeps while a shard is in
// flight, and the Migrator that drives a live shard move end to end. The
// client half — epoch stamping, redirect handling, owner lookup through
// membership.Map — lives in exec.go and table.go.
//
// # The fenced handoff
//
// A migration of (table, region) from src to dst runs in four phases, with
// reads served by src until the very last step so no request ever sees a
// half-moved shard. The fence is the one wait:
//
//  1. Begin: src registers the region and raises its table's version
//     floor to the region's highest version F, so every put from here on
//     is assigned a version above F. Begin waits for nothing: a put
//     assigns its version and makes its row visible in one step, so a put
//     written before the floor rises is there for the bulk copy, and one
//     written after it lands above F, where the delta copy finds it.
//  2. Copy: dst pulls the region through region-filtered OpScan pages
//     (catchUpRegion) while src keeps serving, applying rows set-if-newer.
//     Every row at or below F existed before the copy began, so the copy
//     carries it (or a newer version of it).
//  3. Fence: src stops admitting puts to the region — they bounce with a
//     typed CodeOverloaded (retry-after ≈1ms; zero work done, so the
//     bounce is always safe to retry) — waits out every put batch still
//     writing (each holds putGate shared), and measures the highest
//     version it holds in the region; dst then pulls the region's rows
//     above F, every row put since phase 1, through the same pages.
//     Nothing is ever sent on src's put path.
//  4. Cutover: dst floors its version counters above src's maximum (a
//     dst-assigned version can never lose a set-if-newer race against a
//     pre-move row), the map bumps (membership.Map.SetOwner — the fencing
//     epoch), dst adopts the region, and src installs a moved record
//     under putGate, as the fence is set: from here src answers the
//     region's requests with CodeMoved and pushes a version-0 "placement
//     moved" notification to every client that cached one of the region's
//     keys, so no stale value survives on a client that never routes to
//     the region again.

// movedRegion is one region this node redirected away, and one entry of a
// CodeMoved redirect payload: the region, its new owner, the owner's wire
// address, and the epoch of the cutover that moved it (the per-region fencing
// token LearnOwner compares).
type movedRegion struct {
	epoch  uint64
	region int
	owner  cluster.NodeID
	addr   string
}

// encodeMoved packs a redirect payload (rides Values[0] of a CodeMoved
// response): uvarint nmoved · nmoved × (uvarint epoch · uvarint region ·
// uvarint node · string addr).
func encodeMoved(moved []movedRegion) []byte {
	n := binary.MaxVarintLen64
	for _, m := range moved {
		n += 3*binary.MaxVarintLen64 + len(m.addr) + binary.MaxVarintLen32
	}
	b := make([]byte, 0, n)
	b = binary.AppendUvarint(b, uint64(len(moved)))
	for _, m := range moved {
		b = binary.AppendUvarint(b, m.epoch)
		b = binary.AppendUvarint(b, uint64(m.region))
		b = binary.AppendUvarint(b, uint64(m.owner))
		b = appendString(b, m.addr)
	}
	return b
}

// decodeMoved unpacks a redirect payload; ok is false on a short or corrupt
// encoding (the count is bounds-checked against the remaining bytes before
// any allocation, like every other count on the wire).
func decodeMoved(p []byte) (moved []movedRegion, ok bool) {
	n, k := binary.Uvarint(p)
	if k <= 0 || n > uint64(len(p)) {
		return nil, false
	}
	p = p[k:]
	moved = make([]movedRegion, 0, n)
	for i := uint64(0); i < n; i++ {
		var m movedRegion
		var v uint64
		if v, k = binary.Uvarint(p); k <= 0 {
			return nil, false
		}
		m.epoch = v
		p = p[k:]
		if v, k = binary.Uvarint(p); k <= 0 {
			return nil, false
		}
		m.region = int(v)
		p = p[k:]
		if v, k = binary.Uvarint(p); k <= 0 {
			return nil, false
		}
		m.owner = cluster.NodeID(v)
		p = p[k:]
		if v, k = binary.Uvarint(p); k <= 0 || uint64(len(p)-k) < v {
			return nil, false
		}
		m.addr = string(p[k : k+int(v)])
		p = p[k+int(v):]
		moved = append(moved, m)
	}
	return moved, len(p) == 0
}

// encodeRegionFilter packs an OpScan partition filter (Params[1]):
// uvarint region · uvarint nregions.
func encodeRegionFilter(region, nregions int) []byte {
	b := make([]byte, 0, 2*binary.MaxVarintLen64)
	b = binary.AppendUvarint(b, uint64(region))
	return binary.AppendUvarint(b, uint64(nregions))
}

// decodeRegionFilter unpacks an OpScan partition filter; ok is false on a
// short/corrupt encoding or a filter that can match nothing (nregions 0 or
// region out of range).
func decodeRegionFilter(p []byte) (region, nregions int, ok bool) {
	r, k := binary.Uvarint(p)
	if k <= 0 {
		return 0, 0, false
	}
	n, k2 := binary.Uvarint(p[k:])
	if k2 <= 0 || k+k2 != len(p) || n == 0 || r >= n {
		return 0, 0, false
	}
	return int(r), int(n), true
}

// --- Server-side migration bookkeeping --------------------------------------

// tableMigr is one table's migration state at a store node. All fields are
// guarded by Server.migMu; the hot path never takes that lock — it is
// reached only behind the routeState mismatch or the migActive counter.
type tableMigr struct {
	nregions  int
	migrating map[int]bool        // regions being copied away (src side); true once fenced
	moved     map[int]movedRegion // regions redirected away post-cutover
}

func (s *Server) tableMigrLocked(table string, nregions int) *tableMigr {
	if s.migs == nil {
		s.migs = make(map[string]*tableMigr)
	}
	mt := s.migs[table]
	if mt == nil {
		mt = &tableMigr{
			nregions:  nregions,
			migrating: make(map[int]bool),
			moved:     make(map[int]movedRegion),
		}
		s.migs[table] = mt
	}
	return mt
}

// SetMembership adopts the map's current epoch as the node's routing epoch
// (the node keeps neither the map nor its own ID: what it must know about
// placement — which regions it redirected away — it learns at each cutover).
// Requests stamped with a different epoch take the (cheap) moved-region check
// in routeCheck instead of the one-comparison fast path. Call before Serve.
func (s *Server) SetMembership(m *membership.Map) {
	s.routeState.Store(m.Epoch() << 1) // fresh node: no moved records
}

// noteEpoch raises the node's routing epoch (never lowers it), preserving
// the has-moved-regions flag: the Migrator syncs every live node after a
// cutover so clients that already learned the new epoch return to the fast
// path everywhere, not just at the two nodes involved in the move.
func (s *Server) noteEpoch(epoch uint64) {
	for {
		cur := s.routeState.Load()
		if epoch <= cur>>1 || s.routeState.CompareAndSwap(cur, epoch<<1|cur&1) {
			return
		}
	}
}

// refreshMovedLocked recomputes routeState's has-moved-regions flag from
// the migration bookkeeping; the caller holds migMu, so the bookkeeping is
// stable under the read. While the flag is set the node's word can never
// equal a request's stamp, which forces every request through routeCheck —
// the only sound behavior, since epoch equality does not imply the client
// learned THIS node's moved regions (redirects teach one region at a time).
func (s *Server) refreshMovedLocked() {
	var flag uint64
	for _, mt := range s.migs {
		if len(mt.moved) > 0 {
			flag = 1
			break
		}
	}
	for {
		cur := s.routeState.Load()
		if cur&^1|flag == cur || s.routeState.CompareAndSwap(cur, cur&^1|flag) {
			return
		}
	}
}

// routeCheck is the cold half of the epoch check: the request's stamp
// disagreed with the node's routing state (stale epoch, or this node holds
// moved records), so walk its keys against the moved-region set and answer
// CodeMoved (zero work done) if any key's region migrated away.
// Requests touching no moved region fall through to normal service — an
// epoch mismatch alone is not an error, it just means the client's map and
// this node's disagree about something that may not involve this request.
// OpScan is exempt (its keys are cursors, and migration itself scans the
// old owner); OpPutRepl is exempt (explicit-version replication machinery,
// never client-routed). handle calls it for reads, commit for an OpPut
// under putGate held shared.
func (s *Server) routeCheck(req *Request) *Response {
	if req.Op == OpScan || req.Op == OpPutRepl {
		return nil
	}
	s.migMu.Lock()
	mt := s.migs[req.Table]
	if mt == nil || len(mt.moved) == 0 {
		s.migMu.Unlock()
		return nil
	}
	var moved []movedRegion
	for _, k := range req.Keys {
		r := store.RegionIndex(k, mt.nregions)
		d, ok := mt.moved[r]
		if !ok {
			continue
		}
		dup := false
		for _, m := range moved {
			if m.region == r {
				dup = true
				break
			}
		}
		if !dup {
			moved = append(moved, d)
		}
	}
	s.migMu.Unlock()
	if len(moved) == 0 {
		return nil
	}
	resp := errResponse(req.ID, CodeMoved, "partition migrated; redirect payload attached")
	resp.Values = append(resp.Values, encodeMoved(moved))
	return resp
}

// putFenced is the cold half of commit's migration guard (reached only
// while migActive is nonzero, with putGate held shared): it answers a
// retryable bounce if any key's region is fenced, before any row is
// written, and nil otherwise.
func (s *Server) putFenced(req *Request) *Response {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	mt := s.migs[req.Table]
	if mt == nil || len(mt.migrating) == 0 {
		return nil
	}
	for _, k := range req.Keys {
		if mt.migrating[store.RegionIndex(k, mt.nregions)] {
			resp := errResponse(req.ID, CodeOverloaded,
				"region fenced for migration cutover; retry shortly")
			resp.RetryAfterMillis = 1
			return resp
		}
	}
	return nil
}

// regionMax returns the highest version tb holds in region.
func regionMax(tb *serverTable, region, nregions int) (maxVer int64) {
	tb.store.Scan(func(k string, _ []byte, ver int64) bool {
		if ver > maxVer && store.RegionIndex(k, nregions) == region {
			maxVer = ver
		}
		return true
	})
	return maxVer
}

// beginMigration runs phase 1 at the source: register the region (arming
// commit's fence check) and raise the table's version floor to the region's
// highest version, which it returns. Every put from here on is assigned a
// version above that floor, so the fence's delta copy can tell the rows
// written during the bulk copy apart from the rows the bulk copy carries.
// It waits for nothing: a put batch still writing either wrote its row
// before the floor rose, and the bulk copy carries it, or writes it above
// the floor, and fenceRegion waits for it.
func (s *Server) beginMigration(table string, region, nregions int) (floor int64, err error) {
	tb := s.table(table)
	if tb == nil {
		return 0, fmt.Errorf("live: migration of unknown table %q", table)
	}
	s.migMu.Lock()
	mt := s.tableMigrLocked(table, nregions)
	if _, busy := mt.migrating[region]; busy {
		s.migMu.Unlock()
		return 0, fmt.Errorf("live: region %d of %q is already migrating", region, table)
	}
	if _, gone := mt.moved[region]; gone {
		s.migMu.Unlock()
		return 0, fmt.Errorf("live: region %d of %q already migrated away", region, table)
	}
	mt.migrating[region] = false
	s.migActive.Add(1)
	s.migMu.Unlock()
	floor = regionMax(tb, region, nregions)
	tb.store.SetFloor(floor)
	return floor, nil
}

// fenceRegion runs phase 3 at the source: stop admitting the region's puts
// (they bounce retryable), wait out every put batch still writing — they
// only write locally, so the wait is short — and report the highest version
// this node holds in the region. After
// fenceRegion the region is frozen at src: no row in it can change until
// completeMove or abortMigration.
func (s *Server) fenceRegion(table string, region int) (maxVer int64) {
	// Taking putGate exclusively waits for every put batch holding it
	// shared, whatever it found when it checked; every batch that takes it
	// afterwards sees the fence.
	s.putGate.Lock()
	s.migMu.Lock()
	mt := s.migs[table]
	mt.migrating[region] = true
	nregions := mt.nregions
	s.migMu.Unlock()
	s.putGate.Unlock()
	return regionMax(s.table(table), region, nregions)
}

// adoptRegion completes the cutover at the target: the node clears any
// moved record it held for the region (a shard can migrate back) and
// adopts the cutover epoch as its routing epoch.
func (s *Server) adoptRegion(table string, region, nregions int, epoch uint64) {
	s.migMu.Lock()
	mt := s.tableMigrLocked(table, nregions)
	delete(mt.moved, region)
	s.refreshMovedLocked()
	s.noteEpoch(epoch)
	s.migMu.Unlock()
}

// endMigrationLocked drops the region's migration registration, if any;
// the caller holds migMu.
func (s *Server) endMigrationLocked(mt *tableMigr, region int) {
	if _, ok := mt.migrating[region]; ok {
		delete(mt.migrating, region)
		s.migActive.Add(-1)
	}
}

// completeMove finishes the cutover at the source: install the moved record
// (the region's requests now answer CodeMoved), adopt the cutover epoch,
// drop the fence, and push a version-0 "placement moved" notification to
// every client that cached one of the region's keys — their subscriptions
// die with this node's ownership, and without the push a client that never
// routes to the region again would serve its cached value stale forever.
// Version 0 (impossible for a real put, whose versions are ≥ 1) tells the
// client to drop the value but keep the key's learned optimizer state: the
// value did not change, it moved.
func (s *Server) completeMove(table string, region int, epoch uint64, owner cluster.NodeID, addr string) {
	// Under putGate held exclusively: a put batch checks its route and the
	// fence under the gate held shared, so it finds the fence (before this)
	// or the moved record (after), never neither.
	s.putGate.Lock()
	s.migMu.Lock()
	mt := s.migs[table]
	s.endMigrationLocked(mt, region)
	mt.moved[region] = movedRegion{epoch: epoch, region: region, owner: owner, addr: addr}
	nregions := mt.nregions
	// Flag before epoch, inside the record's critical section: once the
	// word says "moved regions here", no stamp can match it, so there is no
	// instant at which a current-epoch put could slip past routeCheck onto
	// the region this node just stopped owning.
	s.refreshMovedLocked()
	s.noteEpoch(epoch)
	s.migMu.Unlock()
	s.putGate.Unlock()

	push(s.table(table).cachers.takeIf(table, func(k string) bool {
		return store.RegionIndex(k, nregions) == region
	}))
}

// abortMigration rolls a failed migration attempt back at the source: the
// registration and the fence are dropped and the region serves puts
// normally again. Rows already copied to the target are harmless — it does
// not own the region, and a future retry reconciles them by version — and
// so is the raised floor: versions only ever go up.
func (s *Server) abortMigration(table string, region int) {
	s.migMu.Lock()
	if mt := s.migs[table]; mt != nil {
		s.endMigrationLocked(mt, region)
	}
	s.migMu.Unlock()
}

// catchUpRegion pulls one partition of one table from a peer through
// region-filtered OpScan pages, applying the rows above version `above`
// set-if-newer, and flushes once — the bulk copy (above 0) and the fenced
// delta copy (above the phase-1 floor) of a shard migration, run at the
// target. Returns the number of rows that actually applied.
func (s *Server) catchUpRegion(peer, table string, region, nregions int, above int64) (int, error) {
	tb := s.table(table)
	if tb == nil {
		return 0, fmt.Errorf("live: catch-up of unknown table %q", table)
	}
	applied, err := s.catchUpTable(peer, table, tb,
		encodeRegionFilter(region, nregions), binary.AppendUvarint(nil, uint64(above)))
	if ferr := s.engine.Flush(); ferr != nil && err == nil {
		err = ferr
	}
	return applied, err
}

// --- Migrator ---------------------------------------------------------------

// Migrator drives live shard migrations against a set of in-process store
// nodes sharing one membership.Map: the coordinator role of the handoff
// protocol documented at the top of this file. Servers maps every live
// node.
//
// Migrate serializes on the Migrator (one shard moves at a time per
// coordinator), but the cluster keeps serving throughout: only puts to the
// moving region ever notice — as a retryable bounce while the fence's
// delta copy runs, one paged scan of the rows put during the bulk copy.
type Migrator struct {
	Map     *membership.Map
	Servers map[cluster.NodeID]*Server

	mu sync.Mutex
}

// Migrate moves one region of table from src to dst through the fenced
// four-phase handoff. The map must already know both nodes' addresses and
// assign the region to src alone; dst must already serve the table (AddTable
// with the same spec — its seed rows lose every version race against migrated
// rows, so sharing the baseline is safe). A region with more than one member
// is refused before anything starts: its backups take the sequencer's
// OpPutRepl fan-out, which the region-filtered copy does not follow, so they
// would not follow the cutover either. On an error before cutover the source
// is rolled back and keeps the region; the cutover itself (SetOwner) is
// atomic, so the region is owned by exactly one node at every epoch.
func (m *Migrator) Migrate(table string, region int, src, dst cluster.NodeID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, err := m.plan(table, region, src, dst)
	if err == nil {
		err = h.begin()
	}
	if err == nil {
		err = h.copy()
	}
	if err == nil {
		err = h.fence()
	}
	if err != nil {
		return err
	}
	h.cutover()
	return nil
}

// handoff is one migration of (table, region) from src to dst, its phases
// as methods so Migrate runs them in order and a test can act between any
// two. A phase that fails after begin rolls the source back.
type handoff struct {
	m                *Migrator
	table            string
	region, nregions int
	dst              cluster.NodeID
	src, target      *Server
	srcAddr, dstAddr string
	floor            int64 // the source's version floor from begin
	maxVer           int64 // the source's highest version in the region, from fence
}

// plan checks a migration against the map and resolves its nodes; it
// changes nothing.
func (m *Migrator) plan(table string, region int, src, dst cluster.NodeID) (*handoff, error) {
	v := m.Map.View()
	if owner, ok := v.Owner(table, region); !ok || owner != src {
		return nil, fmt.Errorf("live: migrate %q/%d: source %d does not own it", table, region, src) //lint:allow errcode coordinator control path; callers are operators, not live ops
	}
	if set := v.Tables[table].Sets[region]; len(set) > 1 {
		return nil, fmt.Errorf("live: migrate %q/%d: region is replicated on nodes %v, and a multi-member region cannot be moved: its backups would not follow the cutover", table, region, set) //lint:allow errcode coordinator control path; callers are operators, not live ops
	}
	h := &handoff{m: m, table: table, region: region, nregions: v.Regions(table), dst: dst,
		src: m.Servers[src], target: m.Servers[dst], srcAddr: v.Addr(src), dstAddr: v.Addr(dst)}
	if h.src == nil || h.target == nil {
		return nil, fmt.Errorf("live: migrate %q/%d: unknown node", table, region) //lint:allow errcode coordinator control path; callers are operators, not live ops
	}
	if h.srcAddr == "" || h.dstAddr == "" {
		return nil, fmt.Errorf("live: migrate %q/%d: node address unknown", table, region) //lint:allow errcode coordinator control path; callers are operators, not live ops
	}
	return h, nil
}

// fail rolls the source back and names the phase that failed.
func (h *handoff) fail(phase string, err error) error {
	h.src.abortMigration(h.table, h.region)
	return fmt.Errorf("live: migrate %q/%d: %s: %w", h.table, h.region, phase, err) //lint:allow errcode coordinator control path; the phase's typed error is wrapped, not replaced
}

// begin is phase 1: register the region at the source and raise its floor.
func (h *handoff) begin() (err error) {
	if h.floor, err = h.src.beginMigration(h.table, h.region, h.nregions); err != nil {
		return fmt.Errorf("live: migrate %q/%d: begin: %w", h.table, h.region, err) //lint:allow errcode coordinator control path; the phase's typed error is wrapped, not replaced
	}
	return nil
}

// copy is phase 2: the bulk copy while the source serves.
func (h *handoff) copy() error {
	if _, err := h.target.catchUpRegion(h.srcAddr, h.table, h.region, h.nregions, 0); err != nil {
		return h.fail("copy", err)
	}
	return nil
}

// fence is phase 3: fence the region at the source, then copy the rows put
// there since begin — every one of them above the floor.
func (h *handoff) fence() error {
	h.maxVer = h.src.fenceRegion(h.table, h.region)
	if _, err := h.target.catchUpRegion(h.srcAddr, h.table, h.region, h.nregions, h.floor); err != nil {
		return h.fail("delta copy", err)
	}
	return nil
}

// cutover is phase 4: floor the target, bump the map, adopt, redirect.
func (h *handoff) cutover() {
	h.target.table(h.table).store.SetFloor(h.maxVer)
	epoch := h.m.Map.SetOwner(h.table, h.region, h.dst)
	h.target.adoptRegion(h.table, h.region, h.nregions, epoch)
	h.src.completeMove(h.table, h.region, epoch, h.dst, h.dstAddr)
	for _, sv := range h.m.Servers {
		sv.noteEpoch(epoch)
	}
}

// Drain migrates every region of every table owned by node to dst (the
// decommission path: after Drain the node owns nothing and RemoveNode is
// legal), returning the number of regions moved.
func (m *Migrator) Drain(node, dst cluster.NodeID, tables []string) (int, error) {
	moved := 0
	for _, table := range tables {
		for _, region := range m.Map.View().RegionsOwnedBy(table, node) {
			if err := m.Migrate(table, region, node, dst); err != nil {
				return moved, err
			}
			moved++
		}
	}
	return moved, nil
}
