package live

import (
	"slices"
	"sync"
)

// cachers is one table's tracked-cacher registry (Section 4.2.3): which conns
// fetched which key through a caching OpGet, so a write invalidates exactly
// those compute nodes. A fetch whose request carries prioNoCache (a value
// nothing will cache: the NO, FC and FR policies and WithNoCache) is never
// registered, so a write to its key owes that conn nothing. Only this file
// touches the map, under its own lock — row access synchronizes inside the
// engine, so concurrent Gets share the engine's read lock instead of
// serializing on a table-wide one. A registration leaves in three ways: take,
// for a write past its flush barrier (commit is the only caller, so a failed
// batch deregisters nobody); takeIf, when a region moves away; dropConn, when
// the conn disconnects.
type cachers struct {
	mu    sync.Mutex
	byKey map[string]cacherSet
}

// cacherSet is one key's cachers, held by value in the map: the first conn
// inline and the rare others in more. A key is nearly always cached by one
// compute node at a time, so registering it allocates no set of its own.
type cacherSet struct {
	first *wireConn
	more  []*wireConn
}

// add records wc, reporting whether the set changed (and so must be stored
// back into the map).
func (s *cacherSet) add(wc *wireConn) bool {
	switch {
	case s.first == nil:
		s.first = wc
	case s.first == wc || slices.Contains(s.more, wc):
		return false
	default:
		s.more = append(s.more, wc) //lint:allow hotpath a second cacher of one key only
	}
	return true
}

// remove drops wc, reporting whether it was there; the last of more moves up
// when first leaves.
func (s *cacherSet) remove(wc *wireConn) bool {
	if s.first == wc {
		s.first = nil
		if n := len(s.more); n > 0 {
			s.first = s.more[n-1]
			s.more = slices.Delete(s.more, n-1, n)
		}
		return true
	}
	if i := slices.Index(s.more, wc); i >= 0 {
		s.more = slices.Delete(s.more, i, i+1)
		return true
	}
	return false
}

// invalidation is the notification owed to one taken cacher; push sends it
// once the registry lock is released.
type invalidation struct {
	wc *wireConn
	n  Notification
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
		c.byKey = make(map[string]cacherSet) //lint:allow hotpath first fetch of a table only
	}
	for _, k := range keys {
		if set := c.byKey[k]; set.add(wc) {
			c.byKey[k] = set
		}
	}
}

// takeLocked deregisters every cacher of k and appends the notification owed
// to each of them but from (the writer invalidates itself at its put ack).
func (c *cachers) takeLocked(out []invalidation, table, k string, version int64, from *wireConn) []invalidation {
	set, ok := c.byKey[k]
	if !ok {
		return out
	}
	delete(c.byKey, k)
	n := Notification{Table: table, Key: k, Version: version}
	if set.first != from {
		out = append(out, invalidation{set.first, n})
	}
	for _, wc := range set.more {
		if wc != from {
			out = append(out, invalidation{wc, n})
		}
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
		if !set.remove(wc) {
			continue
		}
		if set.first == nil {
			delete(c.byKey, k)
		} else {
			c.byKey[k] = set
		}
	}
	c.mu.Unlock()
}

// push writes the owed notifications out; a failed write means a broken
// conn, which its read loop's exit drops.
func push(invs []invalidation) {
	for i := range invs {
		invs[i].wc.writeNotification(&invs[i].n)
	}
}
