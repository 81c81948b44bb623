package live

import (
	"slices"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/core"
	"joinopt/internal/store"
)

// placement answers "where does key live": its region's replica set in the
// executor's placement map, primary first — a set of one for an unreplicated
// region. The slice belongs to the map's frozen view: read-only.
//
//joinopt:hotpath
func (t *Table) placement(key string) []cluster.NodeID {
	return t.e.member.View().ReplicasForKey(t.name, key)
}

// placedOn reports whether node holds key: any member of its set (a read may
// have been served by — and subscribed on — a backup).
func (t *Table) placedOn(key string, node cluster.NodeID) bool {
	return slices.Contains(t.placement(key), node)
}

// fetchKey names a joinable fetch in its shard's dedup map: the key of a
// table under one priority. The priority is part of it, so a call never
// piles onto (or is served by) a fetch flying in another admission class —
// the same separation the batch accumulators get from their prio field.
type fetchKey struct {
	t    *Table
	key  string
	prio Priority
}

// cut ends the joinability of every fetch of t's key, whatever its priority.
// Callers hold mu.
func (sh *execShard) cut(t *Table, key string) {
	for p := range Priority(numPriorities) {
		delete(sh.inflight, fetchKey{t: t, key: key, prio: p})
	}
}

// waiter is one submission waiting on a cacheable fetch. The first for a key
// leads: its entry goes on the wire, it is the key's record in the shard's
// dedup map while the fetch is joinable, and the submissions that join hang
// off it — so whoever holds the entry (an answer, a failure, a re-route) holds
// everyone waiting on it, and nobody looks the crowd up again by key.
type waiter struct {
	params []byte
	fut    *Future
	cancel *cancelState // non-nil only for cancellable-context submissions
	// Lead only, guarded by the key's shard lock: the dedup key the fetch is
	// (or was) mapped under, and the waiters that joined it.
	ik        fetchKey
	followers []*waiter
}

// unmap ends lead's joinability, unless a newer fetch of the key already took
// the slot (an invalidation cut this one loose). Callers hold mu.
func (sh *execShard) unmap(lead *waiter) {
	if sh.inflight[lead.ik] == lead {
		delete(sh.inflight, lead.ik)
	}
}

// release ends lead's fetch, answered or failed: it stops being joinable and
// its followers become the caller's to settle (a cancel arriving later finds
// nobody to remove). Callers hold mu.
func (sh *execShard) release(lead *waiter) []*waiter {
	sh.unmap(lead)
	followers := lead.followers
	lead.followers = nil
	return followers
}

// route is the body of Table.Submit: pick the join location (per-call hint
// or Algorithm 1) and park the op in the machinery. This is the prefetch
// entry point (submitComp in Figure 10); Wait is the blocking fetch
// (fetchComp). Safe for concurrent callers and scales across cores: only
// the key's shard lock is taken, and every table lookup was resolved into
// the handle up front.
//
//joinopt:hotpath
func (e *Executor) route(t *Table, key string, params []byte, fut *Future, cs *cancelState, co callOpts) {
	set := t.placement(key)
	node := set[0]
	if len(set) > 1 { // only a replicated table has a tracker to price with
		node = e.pickReplica(set)
	}
	idx := e.shardIdx(t.seed, key)
	sh := e.shards[idx]
	opt := t.opts[idx]

	var full *liveBatch // the wire batch this submission filled, if any
	sh.mu.Lock()
	var route core.Route
	switch {
	case co.noCache && co.route != ForceCompute:
		route = core.RouteDataNoCache
	case co.route == ForceCompute:
		route = core.RouteCompute
	case co.route == ForceFetch:
		route = core.RouteDataMem
	default:
		// Algorithm 1. Forced routes deliberately bypass it — and its
		// frequency learning — so a per-call override never pollutes the
		// optimizer's view of the auto traffic; Trace records only real
		// optimizer interactions.
		route = opt.Route(key, e.cfg.NetBw)
		if e.cfg.Trace != nil {
			e.cfg.Trace(TraceEvent{Kind: TraceRoute, Table: t.name, Key: key, Route: route})
		}
	}
	switch route {
	case core.RouteLocalMem:
		item, _, _ := opt.Cache.Lookup(key)
		sh.mu.Unlock()
		if cs.claim() {
			e.LocalHits.Add(1)
			e.computeLocal(t, idx, key, params, item.Value.([]byte), fut)
		}
		return
	case core.RouteCompute, core.RouteDataNoCache:
		bk := liveBatchKey{t, node, OpExec, co.prio}
		if route == core.RouteDataNoCache {
			// A fetch nothing caches (NO/FC/FR policies, WithNoCache): no
			// dedup record, and its own batch, flagged so the node keeps
			// no cacher registration for it.
			bk.op, bk.prio = OpGet, co.prio|prioNoCache
		}
		cs.park(sh, bk, nil, nil)
		full = e.enqueue(bk, liveEntry{key: key, params: params, fut: fut, cancel: cs})
	case core.RouteDataMem:
		bk := liveBatchKey{t, node, OpGet, co.prio}
		w := &waiter{params: params, fut: fut, cancel: cs}
		ik := fetchKey{t, key, bk.prio}
		if lead := sh.inflight[ik]; lead != nil {
			// Piled onto a fetch that may still be parked: share its link,
			// so this caller's wait ships it too.
			cs.park(sh, bk, lead, w)
			fut.gen.Store(lead.fut.gen.Load())
			fut.acc.Store(lead.fut.acc.Load())
			lead.followers = append(lead.followers, w)
		} else {
			w.ik = ik
			cs.park(sh, bk, w, w)
			sh.inflight[ik] = w
			full = e.enqueue(bk, liveEntry{key: key, w: w})
		}
	}
	sh.mu.Unlock()
	if full != nil {
		e.ship(full)
	}
}

// pickReplica prices a read at the cheapest live replica: among the
// replica nodes whose pool still has a usable conn, the one with the lowest
// learned EWMA service time (ties and unobserved nodes resolve to the
// earliest position, so the primary is preferred until the measurements say
// otherwise — loadbalance.ReplicaTracker.Pick is the reference). A replica
// whose last response advertised credit 0 is chosen only when every live
// alternative is starved too: its EWMA still reflects true service time, so
// on cost alone it would keep winning while its queue sheds. With every
// replica down the primary gets the batch and the transport path reports the
// failure. Allocates nothing.
//
//joinopt:hotpath
func (e *Executor) pickReplica(nodes []cluster.NodeID) cluster.NodeID {
	for _, starved := range [2]bool{false, true} {
		best, bestCost, found := nodes[0], 0.0, false
		for _, n := range nodes {
			if p := e.pool(n); p == nil || !p.live() || p.starved() != starved {
				continue
			}
			if c := e.tracker.Estimate(int(n)); !found || c < bestCost {
				best, bestCost, found = n, c, true
			}
		}
		if found {
			return best
		}
	}
	return nodes[0]
}

// reroute is the one re-enqueue loop behind every transparent re-send
// (replica failover, CodeMoved redirect): each entry asks next for its new
// destination, spends one hop, re-parks its cancel state there and goes back
// through enqueue; entries next refuses fail with exhausted. Returns the
// number re-enqueued. Callers hold no shard lock.
func (e *Executor) reroute(bk liveBatchKey, entries []liveEntry, exhausted *Error,
	next func(key string, hops uint8) (cluster.NodeID, bool)) int {
	var doomed []liveEntry
	for _, ent := range entries {
		node, ok := next(ent.key, ent.hops)
		if !ok {
			doomed = append(doomed, ent)
			continue
		}
		ent.hops++
		nbk := bk
		nbk.node = node
		sh, _ := bk.t.shard(ent.key)
		sh.mu.Lock()
		// Re-park the cancel state at the new destination so a context
		// cancellation arriving mid-re-route still finds the entry. The
		// dedup key carries no node, so a lead's record survives the move,
		// and its followers ride along on the entry.
		if ent.w != nil {
			ent.w.cancel.park(sh, nbk, ent.w, ent.w)
		} else {
			ent.cancel.park(sh, nbk, nil, nil)
		}
		full := e.enqueue(nbk, ent)
		// A caller that blocked before the move kicked the old destination:
		// its wait must ship this one too, or it sits out BatchWait here.
		f := ent.waitFut()
		blocked := f.waited()
		if ent.w != nil {
			blocked = blocked || slices.ContainsFunc(ent.w.followers, func(w *waiter) bool { return w.fut.waited() })
		}
		sh.mu.Unlock()
		if full != nil {
			e.ship(full)
		} else if a := f.acc.Load(); blocked && a != nil {
			a.kick(f)
		}
	}
	for _, ent := range doomed {
		e.fail(bk, ent, exhausted) // re-locks the entry's shard
	}
	return len(entries) - len(doomed)
}

// tryFailover re-routes a transport-failed or shed wire batch's entries to
// the next surviving replica instead of surfacing CodeTransport or
// CodeOverloaded to the callers. Only reads (OpGet, OpExec) of replicated
// tables fail over: re-running them on another replica changes no server
// state, while a put that failed at the wire is maybe-committed at its
// sequencer (re-sequencing it elsewhere could assign the same version to
// two different values) and must surface per the storage contract. An
// overloaded shed fails over after a short jittered beat — the sibling
// replica may have headroom right now, so waiting out the shedding node's
// full retry-after hint would only stall work another node could absorb,
// but moving the whole herd instantly would arrive as one synchronized
// spike. Each entry carries a hop count bounded by the replica set size, so
// a fully-dead (or fully-saturated) set still fails with err after every
// replica was tried once. Returns false when failover does not apply at all
// (the caller falls through to failBatch).
func (e *Executor) tryFailover(bk liveBatchKey, entries []liveEntry, err *Error) bool {
	if (bk.op != OpGet && bk.op != OpExec) ||
		(!err.Retryable() && err.Code != CodeOverloaded) || e.closed.Load() ||
		!slices.ContainsFunc(entries, func(ent liveEntry) bool { return len(bk.t.placement(ent.key)) > 1 }) {
		return false
	}
	if err.Code == CodeOverloaded {
		time.Sleep(time.Millisecond + jitter(2*time.Millisecond))
	}
	n := e.reroute(bk, entries, err, func(key string, hops uint8) (cluster.NodeID, bool) {
		return e.nextReplica(bk.t, key, bk.node, hops)
	})
	e.Failovers.Add(int64(n))
	return true
}

// nextReplica picks the replica to try after cur in key's placement order:
// the first clockwise node with a live pool, or — with every other pool
// down — cur's immediate successor anyway, because its redialer may land
// before the re-enqueued batch ships. ok is false once hops says every
// other replica was already visited.
func (e *Executor) nextReplica(t *Table, key string, cur cluster.NodeID, hops uint8) (cluster.NodeID, bool) {
	nodes := t.placement(key)
	if len(nodes) < 2 || int(hops) >= len(nodes)-1 {
		return 0, false
	}
	at := 0
	for i, n := range nodes {
		if n == cur {
			at = i
			break
		}
	}
	for off := 1; off < len(nodes); off++ {
		n := nodes[(at+off)%len(nodes)]
		if p := e.pool(n); p != nil && p.live() {
			return n, true
		}
	}
	return nodes[(at+1)%len(nodes)], true
}

// movedMaxHops bounds how many CodeMoved redirects one submission follows
// before it fails with the redirect surfaced. Every redirect teaches the map
// something strictly newer (LearnOwner's per-region epoch fence), so under
// any consistent membership one hop resolves the op and a second can only
// happen across a racing second migration; exhausting four means the
// cluster's maps disagree in a loop — a bug worth surfacing, not retrying
// forever.
const movedMaxHops = 4

// handleMoved resolves a CodeMoved wire batch: learn the redirect payload's
// region ownerships, make sure the new owners are dialed, and re-enqueue
// every entry at its (possibly new) owner — transparently, so callers only
// ever see the redirect if the hop budget runs out. Returns false when the
// payload is absent or corrupt (the caller falls through to failBatch).
func (e *Executor) handleMoved(bk liveBatchKey, entries []liveEntry, resp *Response) bool {
	if len(resp.Values) == 0 {
		return false
	}
	moved, ok := decodeMoved(resp.Values[0])
	if !ok || len(moved) == 0 {
		return false
	}
	e.applyMoved(bk.t, moved)
	e.reroute(bk, entries, &Error{Code: CodeMoved, Op: bk.op,
		Msg: "redirect hop budget exhausted — cluster membership maps disagree in a loop"},
		func(key string, hops uint8) (cluster.NodeID, bool) {
			return bk.t.placement(key)[0], hops < movedMaxHops
		})
	return true
}

// applyMoved folds a redirect payload into the executor: each entry teaches
// the map (per-region epoch fencing decides staleness), a newly named owner
// is dialed, and a region the map actually re-learned gets its cached
// values dropped (sweep: the keys' learned optimizer state — frequency
// sketches, ski-rental counters — survives the move); the values must go
// because their invalidation subscriptions at the old owner died with its
// ownership. Shared by the wire-batch and Table.Put redirect
// paths.
func (e *Executor) applyMoved(t *Table, moved []movedRegion) {
	e.Moved.Add(1)
	e.migGen.Add(1)
	for _, m := range moved {
		// Dial BEFORE publishing ownership: the shared map is read by every
		// shard, so installing the owner first would open a window where a
		// concurrent submission routes to a node whose pool does not exist
		// yet and fails with a transport error instead of waiting out the
		// dial.
		if m.addr != "" {
			e.ensureNode(m.owner, m.addr)
		}
		if e.member.LearnOwner(m.epoch, t.name, m.region, m.owner, m.addr) {
			nregions := e.member.View().Regions(t.name)
			e.sweep(t, func(k string) bool { return store.RegionIndex(k, nregions) == m.region }, nil)
		}
	}
}
