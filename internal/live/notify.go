package live

import "sync"

// cachers is one table's tracked-cacher registry (Section 4.2.3): which conns
// fetched which key via OpGet, so a write invalidates exactly those compute
// nodes. Only this file touches the map, under its own lock — row access
// synchronizes inside the engine, so concurrent Gets share the engine's read
// lock instead of serializing on a table-wide one. A registration leaves in
// three ways: take, for a write past its flush barrier (commit is the only
// caller, so a failed batch deregisters nobody); takeIf, when a region moves
// away; dropConn, when the conn disconnects.
type cachers struct {
	mu    sync.Mutex
	byKey map[string]map[*wireConn]struct{}
}

// invalidation is one key's taken registrations and the notification owed to
// them; push sends it once the registry lock is released.
type invalidation struct {
	conns []*wireConn
	n     Notification
}

// register records wc as a cacher of every key (interned by the conn's read
// path, so retaining them does not pin the request frame). A conn whose read
// loop has exited is refused: nothing would ever remove the registration.
//
//joinopt:hotpath
func (c *cachers) register(wc *wireConn, keys []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if wc.gone.Load() {
		return
	}
	if c.byKey == nil {
		c.byKey = make(map[string]map[*wireConn]struct{}) //lint:allow hotpath first fetch of a table only
	}
	for _, k := range keys {
		set := c.byKey[k]
		if set == nil {
			set = make(map[*wireConn]struct{}) //lint:allow hotpath first cacher of a key only; steady-state gets find the set present
			c.byKey[k] = set
		}
		set[wc] = struct{}{}
	}
}

// takeLocked deregisters every cacher of k and appends the notification owed
// to all of them but from (the writer invalidates itself at its put ack).
func (c *cachers) takeLocked(out []invalidation, table, k string, version int64, from *wireConn) []invalidation {
	set := c.byKey[k]
	if len(set) == 0 {
		return out
	}
	delete(c.byKey, k)
	conns := make([]*wireConn, 0, len(set))
	for wc := range set {
		if wc != from {
			conns = append(conns, wc)
		}
	}
	if len(conns) > 0 {
		out = append(out, invalidation{conns, Notification{Table: table, Key: k, Version: version}})
	}
	return out
}

// take deregisters the cachers of a committed write batch, carrying each
// key's new version from metas. applied masks row i when present: a stale
// set-if-newer no-op's cachers were already notified by the newer write.
func (c *cachers) take(table string, keys []string, metas []Meta, applied []bool, from *wireConn) []invalidation {
	var out []invalidation
	c.mu.Lock()
	for i, k := range keys {
		if i < len(applied) && !applied[i] {
			continue
		}
		out = c.takeLocked(out, table, k, metas[i].Version, from)
	}
	c.mu.Unlock()
	return out
}

// takeIf deregisters the cachers of every key match selects, at version 0
// (see completeMove: the value did not change, it moved).
func (c *cachers) takeIf(table string, match func(key string) bool) []invalidation {
	var out []invalidation
	c.mu.Lock()
	for k := range c.byKey {
		if match(k) {
			out = c.takeLocked(out, table, k, 0, nil)
		}
	}
	c.mu.Unlock()
	return out
}

// dropConn removes a disconnected conn from every key's set: a full sweep,
// because a get must not pay for a reverse index that only a disconnect reads.
func (c *cachers) dropConn(wc *wireConn) {
	c.mu.Lock()
	for k, set := range c.byKey {
		delete(set, wc)
		if len(set) == 0 {
			delete(c.byKey, k)
		}
	}
	c.mu.Unlock()
}

// push writes the owed notifications out; a failed write means a broken
// conn, which its read loop's exit drops.
func push(invs []invalidation) {
	for i := range invs {
		for _, wc := range invs[i].conns {
			wc.writeNotification(&invs[i].n)
		}
	}
}
