package live

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/membership"
	"joinopt/internal/store"
)

// This file is the server half of elastic membership: the
// CodeMoved redirect payload, the partition-scoped scan filter, the
// migration state record, the per-table migration bookkeeping a store node
// keeps while a shard is in flight, and the Migrator that drives a live
// shard move end to end. The client half — epoch stamping, redirect
// handling, owner lookup through membership.Map — lives in exec.go and
// table.go.
//
// # The fenced handoff
//
// A migration of (table, region) from src to dst runs in five phases, with
// reads served by src until the very last step so no request ever sees a
// half-moved shard:
//
//  1. Dual-write: src starts forwarding every acknowledged put that lands
//     in the region to dst as OpPutRepl records (synchronous, versioned
//     set-if-newer). A forward failure marks the migration dirty.
//  2. Copy: dst pulls the region through partition-scoped OpScan pages
//     (CatchUpRegion) while src keeps serving. Rows put mid-copy are
//     covered by the dual-write stream; the copy and the stream reconcile
//     through versions.
//  3. State: src's learned execution profile (UDF-cost EWMA, per-class
//     service EWMAs) is exported as a migration state record and imported
//     at dst, so dst's balancer and backpressure pricing do not restart
//     cold for traffic it is about to inherit.
//  4. Fence: src stops admitting puts to the region — they bounce with a
//     typed CodeOverloaded (retry-after ≈1ms; zero work done, so the
//     bounce is always safe to retry) — drains the forwards still in
//     flight, re-copies if any forward failed, and measures the highest
//     version it ever assigned in the region.
//  5. Cutover: dst floors its version counters above src's maximum (a
//     dst-assigned version can never lose a set-if-newer race against a
//     pre-move row), the map bumps (membership.Map.SetOwner — the fencing
//     epoch), dst adopts the region, and src installs a moved record:
//     from here src answers the region's requests with CodeMoved and
//     pushes a version-0 "placement moved" notification to every client
//     that cached one of the region's keys, so no stale value survives on
//     a client that never routes to the region again.

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

// stateRecordVersion versions the migration state record so a future field
// can be added without breaking an in-flight upgrade.
const stateRecordVersion = 1

// ExportState serializes the node's learned execution profile as a
// migration state record: uvarint version · float64le avgUDFSeconds ·
// uvarint nclasses · nclasses × float64le classSvcSeconds. It travels with
// a shard migration so the new owner's balancer (Section 5 uses the UDF
// EWMA) and backpressure pricing (retry-after hints, advertised windows)
// start from the old owner's measurements instead of the cold defaults.
func (s *Server) ExportState() []byte {
	b := make([]byte, 0, 2*binary.MaxVarintLen64+8*(1+numClasses))
	b = binary.AppendUvarint(b, stateRecordVersion)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.udfCost.load()))
	b = binary.AppendUvarint(b, uint64(numClasses))
	for cl := range s.classSvc {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.classSvc[cl].load()))
	}
	return b
}

// ImportState adopts an exported state record, overwriting the node's UDF
// and per-class service EWMAs (they re-adapt from live traffic either way;
// the import just skips the cold-start). Non-finite or non-positive values
// are skipped (ewma.set).
func (s *Server) ImportState(blob []byte) error {
	ver, k := binary.Uvarint(blob)
	if k <= 0 || ver != stateRecordVersion {
		return fmt.Errorf("live: migration state record: unknown version") //lint:allow errcode migration control path; a bad record aborts the handoff, never a live op
	}
	blob = blob[k:]
	if len(blob) < 8 {
		return fmt.Errorf("live: migration state record: truncated") //lint:allow errcode migration control path; a bad record aborts the handoff, never a live op
	}
	s.udfCost.set(math.Float64frombits(binary.LittleEndian.Uint64(blob)))
	blob = blob[8:]
	n, k := binary.Uvarint(blob)
	if k <= 0 || uint64(len(blob)-k) < 8*n {
		return fmt.Errorf("live: migration state record: truncated") //lint:allow errcode migration control path; a bad record aborts the handoff, never a live op
	}
	blob = blob[k:]
	for cl := 0; cl < int(n) && cl < int(numClasses); cl++ {
		s.classSvc[cl].set(math.Float64frombits(binary.LittleEndian.Uint64(blob[8*cl:])))
	}
	return nil
}

// --- Server-side migration bookkeeping --------------------------------------

// regionForward is the dual-write stream of one migrating region: a
// dedicated connection to the target plus the accounting the fence needs.
// inflight counts put batches (commit) that registered for forwarding before
// the fence and have not finished their forward yet; dirty records a
// forward that failed (the fence answers with a re-copy).
type regionForward struct {
	conn     *Conn
	inflight int64 // guarded by the owning tableMigr's server migMu
	dirty    bool
}

// tableMigr is one table's migration state at a store node. All fields are
// guarded by Server.migMu; the hot path never takes that lock — it is
// reached only behind the routeState mismatch or the migActive counter.
type tableMigr struct {
	nregions int
	dual     map[int]*regionForward // regions being dual-written (src side)
	fenced   map[int]bool           // regions bounced during cutover
	moved    map[int]movedRegion    // regions redirected away post-cutover
}

func (s *Server) tableMigrLocked(table string, nregions int) *tableMigr {
	if s.migs == nil {
		s.migs = make(map[string]*tableMigr)
	}
	mt := s.migs[table]
	if mt == nil {
		mt = &tableMigr{
			nregions: nregions,
			dual:     make(map[int]*regionForward),
			fenced:   make(map[int]bool),
			moved:    make(map[int]movedRegion),
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
func (s *Server) SetMembership(m *membership.Map, _ cluster.NodeID) {
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
// never client-routed).
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

// putMigrCheck is the cold half of commit's migration guard (reached
// only while migActive is nonzero): bounce the whole batch if any key's
// region is fenced (before any row is written, so the bounce is retryable),
// otherwise register the batch on every dual-written region it touches and
// return the per-key forward assignments. The caller MUST pair a non-nil
// return with forwardPuts, which releases the registrations — the fence
// drains on them.
func (s *Server) putMigrCheck(req *Request) (fwds []*regionForward, bounce *Response) {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	mt := s.migs[req.Table]
	if mt == nil || (len(mt.dual) == 0 && len(mt.fenced) == 0) {
		return nil, nil
	}
	for _, k := range req.Keys {
		if mt.fenced[store.RegionIndex(k, mt.nregions)] {
			resp := errResponse(req.ID, CodeOverloaded,
				"region fenced for migration cutover; retry shortly")
			resp.RetryAfterMillis = 1
			return nil, resp
		}
	}
	for i, k := range req.Keys {
		fw := mt.dual[store.RegionIndex(k, mt.nregions)]
		if fw == nil {
			continue
		}
		if fwds == nil {
			fwds = make([]*regionForward, len(req.Keys))
		}
		fwds[i] = fw
		fw.inflight++
	}
	return fwds, nil
}

// forwardPuts streams a put batch's dual-written rows to their migration
// targets as OpPutRepl records carrying the versions the local engine just
// assigned, then releases the fence registrations taken by putMigrCheck.
// A failed forward marks the region's migration dirty — the fence re-copies
// a dirty region before cutover, so the row still arrives, and the region's
// later rows are not forwarded at all: a silent target costs one request
// timeout, not one per key. Called after the flush barrier: only
// acknowledged (version-assigned, durable) rows ride the stream.
func (s *Server) forwardPuts(req *Request, metas []Meta, fwds []*regionForward) {
	for i, fw := range fwds {
		if fw == nil {
			continue
		}
		s.migMu.Lock()
		dirty := fw.dirty
		s.migMu.Unlock()
		var err error
		if !dirty {
			rec := encodePutRepl(metas[i].Version, param(req.Params, i))
			_, err = fw.conn.Call(Request{Op: OpPutRepl, Table: req.Table,
				Keys: []string{req.Keys[i]}, Params: [][]byte{rec}})
		}
		s.migMu.Lock()
		if err != nil {
			fw.dirty = true
		}
		fw.inflight--
		s.migMu.Unlock()
	}
}

// releaseForwards undoes putMigrCheck's registrations without forwarding,
// for put batches that failed before the flush barrier (their rows are
// unacknowledged; the fence's re-copy rules them in or out by version).
func (s *Server) releaseForwards(fwds []*regionForward) {
	if fwds == nil {
		return
	}
	s.migMu.Lock()
	for _, fw := range fwds {
		if fw != nil {
			fw.inflight--
			fw.dirty = true // unacked rows may be visible; let the re-copy reconcile
		}
	}
	s.migMu.Unlock()
}

// beginDualWrite starts phase 1 at the source: every subsequent
// acknowledged put landing in (table, region) is forwarded to dstAddr until
// the region is fenced. migActive arms commit's cold path.
func (s *Server) beginDualWrite(table string, region, nregions int, dstAddr string) error {
	conn, err := DialNode(dstAddr, nil)
	if err != nil {
		return err
	}
	s.migMu.Lock()
	defer s.migMu.Unlock()
	mt := s.tableMigrLocked(table, nregions)
	if mt.dual[region] != nil || mt.fenced[region] {
		conn.Close()
		return fmt.Errorf("live: region %d of %q is already migrating", region, table)
	}
	if _, gone := mt.moved[region]; gone {
		conn.Close()
		return fmt.Errorf("live: region %d of %q already migrated away", region, table)
	}
	mt.dual[region] = &regionForward{conn: conn}
	s.migActive.Add(1)
	return nil
}

// fenceRegion runs phase 4 at the source: stop admitting the region's puts
// (they bounce retryable), wait out the forwards already registered, and
// report the highest version this node ever assigned in the region plus
// whether any forward failed (dirty ⇒ the caller re-copies before
// cutover). After fenceRegion the region is frozen at src: no row in it can
// change until completeMove or abortMigration.
func (s *Server) fenceRegion(table string, region int) (maxVer int64, dirty bool) {
	s.migMu.Lock()
	mt := s.migs[table]
	fw, nregions := mt.dual[region], mt.nregions
	mt.fenced[region] = true
	s.migMu.Unlock()
	// Drain: registrations precede the fence flag under migMu, so once
	// inflight reaches zero no forward for this region can be outstanding.
	for fw != nil {
		s.migMu.Lock()
		n, d := fw.inflight, fw.dirty
		s.migMu.Unlock()
		if n == 0 {
			dirty = d
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	s.table(table).store.Scan(func(k string, _ []byte, ver int64) bool {
		if store.RegionIndex(k, nregions) == region && ver > maxVer {
			maxVer = ver
		}
		return true
	})
	return maxVer, dirty
}

// FloorTable floors the table's version counters above maxVer (phase 5 at
// the target): every version this node assigns from here on beats anything
// the old owner ever assigned, so set-if-newer reconciliation can never
// prefer a pre-move row over a post-cutover write.
func (s *Server) FloorTable(table string, maxVer int64) {
	if tb := s.table(table); tb != nil {
		tb.store.SetFloor(maxVer)
	}
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

// completeMove finishes the cutover at the source: install the moved record
// (the region's requests now answer CodeMoved), adopt the cutover epoch,
// drop the dual-write stream, and push a version-0 "placement moved"
// notification to every client that cached one of the region's keys — their
// subscriptions die with this node's ownership, and without the push a
// client that never routes to the region again would serve its cached value
// stale forever. Version 0 (impossible for a real put, whose versions are
// ≥ 1) tells the client to drop the value but keep the key's learned
// optimizer state: the value did not change, it moved.
func (s *Server) completeMove(table string, region int, epoch uint64, owner cluster.NodeID, addr string) {
	s.migMu.Lock()
	mt := s.migs[table]
	if fw := mt.dual[region]; fw != nil {
		fw.conn.Close()
		delete(mt.dual, region)
		s.migActive.Add(-1)
	}
	delete(mt.fenced, region)
	mt.moved[region] = movedRegion{epoch: epoch, region: region, owner: owner, addr: addr}
	nregions := mt.nregions
	// Flag before epoch, inside the record's critical section: once the
	// word says "moved regions here", no stamp can match it, so there is no
	// instant at which a current-epoch put could slip past routeCheck onto
	// the region this node just stopped owning.
	s.refreshMovedLocked()
	s.noteEpoch(epoch)
	s.migMu.Unlock()

	push(s.table(table).cachers.takeIf(table, func(k string) bool {
		return store.RegionIndex(k, nregions) == region
	}))
}

// abortMigration rolls a failed migration attempt back at the source: the
// dual-write stream and the fence are dropped and the region serves puts
// normally again. Rows already copied to the target are harmless — it does
// not own the region, and a future retry reconciles them by version.
func (s *Server) abortMigration(table string, region int) {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	mt := s.migs[table]
	if mt == nil {
		return
	}
	if fw := mt.dual[region]; fw != nil {
		fw.conn.Close()
		delete(mt.dual, region)
		s.migActive.Add(-1)
	}
	delete(mt.fenced, region)
}

// CatchUpRegion pulls one partition of one table from a peer through
// region-filtered OpScan pages, applying rows set-if-newer, and flushes
// once — phase 2 (and the dirty re-copy of phase 4) of a shard migration,
// run at the target. Returns the number of rows that actually applied.
func (s *Server) CatchUpRegion(peer, table string, region, nregions int) (int, error) {
	tb := s.table(table)
	if tb == nil {
		return 0, fmt.Errorf("live: catch-up of unknown table %q", table) //lint:allow errcode migration control path at the coordinator, not a live op result
	}
	applied, err := s.catchUpTable(peer, table, tb, encodeRegionFilter(region, nregions))
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
// coordinator), but the cluster keeps serving throughout: reads and puts
// proceed at the source until the fence (a few hundred microseconds), and
// only puts to the moving region ever notice — as a retryable bounce.
type Migrator struct {
	Map     *membership.Map
	Servers map[cluster.NodeID]*Server

	mu sync.Mutex
}

// Migrate moves one region of table from src to dst through the fenced
// five-phase handoff. The map must already know both nodes' addresses and
// assign the region to src alone; dst must already serve the table (AddTable
// with the same spec — its seed rows lose every version race against migrated
// rows, so sharing the baseline is safe). A region with more than one member
// is refused before anything starts: its backups take the sequencer's
// OpPutRepl fan-out, not the dual-write stream, and would not follow the
// cutover (ROADMAP item 13, the one copy stream, is what moves it). On an
// error before cutover the source is rolled back and keeps the region; the
// cutover itself (SetOwner) is atomic, so the region is owned by exactly one
// node at every epoch.
func (m *Migrator) Migrate(table string, region int, src, dst cluster.NodeID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.Map.View()
	if owner, ok := v.Owner(table, region); !ok || owner != src {
		return fmt.Errorf("live: migrate %q/%d: source %d does not own it", table, region, src) //lint:allow errcode coordinator control path; callers are operators, not live ops
	}
	if set := v.Tables[table].Sets[region]; len(set) > 1 {
		return fmt.Errorf("live: migrate %q/%d: region is replicated on nodes %v, and a multi-member region cannot be moved: its backups would not follow the cutover", table, region, set) //lint:allow errcode coordinator control path; callers are operators, not live ops
	}
	srcSrv, dstSrv := m.Servers[src], m.Servers[dst]
	if srcSrv == nil || dstSrv == nil {
		return fmt.Errorf("live: migrate %q/%d: unknown node", table, region) //lint:allow errcode coordinator control path; callers are operators, not live ops
	}
	srcAddr, dstAddr := v.Addr(src), v.Addr(dst)
	if srcAddr == "" || dstAddr == "" {
		return fmt.Errorf("live: migrate %q/%d: node address unknown", table, region) //lint:allow errcode coordinator control path; callers are operators, not live ops
	}
	nregions := v.Regions(table)

	// Phase 1: dual-write on, so the copy can be loose about racing puts.
	if err := srcSrv.beginDualWrite(table, region, nregions, dstAddr); err != nil {
		return fmt.Errorf("live: migrate %q/%d: dual-write: %w", table, region, err) //lint:allow errcode coordinator control path; the phase's typed error is wrapped, not replaced
	}
	// Phase 2: bulk copy while src serves.
	if _, err := dstSrv.CatchUpRegion(srcAddr, table, region, nregions); err != nil {
		srcSrv.abortMigration(table, region)
		return fmt.Errorf("live: migrate %q/%d: copy: %w", table, region, err) //lint:allow errcode coordinator control path; the phase's typed error is wrapped, not replaced
	}
	// Phase 3: learned execution state travels with the shard.
	if err := dstSrv.ImportState(srcSrv.ExportState()); err != nil {
		srcSrv.abortMigration(table, region)
		return fmt.Errorf("live: migrate %q/%d: state: %w", table, region, err) //lint:allow errcode coordinator control path; the phase's typed error is wrapped, not replaced
	}
	// Phase 4: fence, drain, re-copy if any forward failed.
	maxVer, dirty := srcSrv.fenceRegion(table, region)
	if dirty {
		if _, err := dstSrv.CatchUpRegion(srcAddr, table, region, nregions); err != nil {
			srcSrv.abortMigration(table, region)
			return fmt.Errorf("live: migrate %q/%d: re-copy: %w", table, region, err) //lint:allow errcode coordinator control path; the phase's typed error is wrapped, not replaced
		}
	}
	// Phase 5: floor, bump, adopt, redirect.
	dstSrv.FloorTable(table, maxVer)
	epoch := m.Map.SetOwner(table, region, dst)
	dstSrv.adoptRegion(table, region, nregions, epoch)
	srcSrv.completeMove(table, region, epoch, dst, dstAddr)
	for _, sv := range m.Servers {
		sv.noteEpoch(epoch)
	}
	return nil
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
