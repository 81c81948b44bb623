// Package storage provides the pluggable row-storage engines behind the
// live plane's data nodes (DESIGN.md, "Durability (PR 6)").
//
// The paper's system runs on HBase, where a region's rows survive the
// region server's death; our live servers originally kept every row in a
// process-private map, so a node restart silently lost the data that the
// self-healing connection pools then happily reconnected to. An Engine
// separates "where rows live" from "how requests are served": the server
// does all request handling against Table handles, and the engine decides
// whether the truth is a map (Mem, the default — zero hot-path cost) or a
// disk directory with a write-ahead log and snapshots (Disk, see disk.go),
// with reads always served from memory either way.
//
// # Semantics
//
// A table is a map from string keys to versioned rows. Versions are
// assigned by the engine — Put returns the row's new version, one greater
// than the version it replaced — and travel with the rows through
// snapshots and the WAL, so a recovered store resumes the version sequence
// instead of restarting it (client caches compare versions, and the
// replication layer reconciles replicas by them).
//
// Seed rows are the operator-provided baseline a server loads at startup
// (live.TableSpec.Rows). They sit at version 0, are never persisted, and
// never overwrite a recovered row: on restart the caller re-seeds the same
// baseline and recovery overlays every durable Put on top.
//
// Durability is a two-step contract: Put makes a row visible (and, on the
// disk engine, appends its WAL record), and Flush makes every Put that
// returned before the Flush durable. Servers flush once per write batch —
// group commit — before acknowledging it, so an acknowledged write is
// readable after a crash and restart, while a batch of writes costs one
// WAL flush, not one per row.
package storage

import (
	"fmt"
	"sync"
)

// Engine is a node's row store. Implementations must be safe for
// concurrent use by any number of goroutines.
//
// Engines are deliberately ignorant of the wire protocol, UDFs and cache
// invalidation — they store bytes and versions. The server composes them.
type Engine interface {
	// Table opens (creating if absent) the named table and returns its
	// handle. Handles are cheap and stable; callers resolve them once and
	// keep them on the hot path. Opening the same name twice returns
	// handles onto the same rows.
	Table(name string) (Table, error)

	// Flush makes every Put that returned before the call durable. The
	// in-memory engine has nothing to do; the disk engine flushes its WAL
	// (and fsyncs it when configured to). A server calls Flush once per
	// write batch, before acknowledging it.
	Flush() error

	// Close flushes and releases the engine. Tables must not be used
	// afterwards. Closing does not delete anything: a disk engine reopened
	// on the same directory recovers the closed state.
	Close() error
}

// Table is the per-table handle of an Engine: every method operates on one
// table's rows. Safe for concurrent use.
type Table interface {
	// Get returns the row's value and version. The returned slice is owned
	// by the engine and must not be mutated; it stays valid because
	// engines replace rows wholesale instead of updating them in place.
	// ok is false when the key has no row (value nil, version 0).
	Get(key string) (value []byte, version int64, ok bool)

	// Put replaces the row under key and returns its new version (the
	// replaced version + 1; 1 for a first write over a seed or absent
	// row). The value is copied — callers may reuse the slice (servers
	// pass values aliasing recycled network frames). The write is visible
	// to Get immediately and durable after the next Engine.Flush.
	//
	// Visibility contract on failure: Put applies to the in-memory table
	// before it can fail (the disk engine is memtable-first so snapshots
	// stay consistent), so a put whose batch later fails at the Flush
	// barrier MAY still be visible to Get — and, if the flush failure was
	// transient, may even become durable. Callers must treat an unacked
	// put as "maybe committed", never as "rolled back". The replication
	// layer leans on this: versioned set-if-newer replays make a maybe-
	// committed put harmless to re-send.
	Put(key string, value []byte) (version int64, err error)

	// PutAt applies a replicated row at an explicit version, set-if-newer:
	// the row is replaced only when version is strictly newer than the
	// stored one, which makes replication streams and catch-up replays
	// idempotent and order-tolerant (same rule the disk engine's WAL
	// replay uses). The value is copied when applied. applied reports
	// whether the row changed; like Put, an applied write is visible
	// immediately and durable after the next Engine.Flush.
	PutAt(key string, value []byte, version int64) (applied bool, err error)

	// Seed installs the operator-provided baseline row at version 0 —
	// only if no row exists, so recovered Puts always win over a restart's
	// re-seed. Seeds are not persisted (the caller re-seeds on restart)
	// and the value is retained, not copied.
	Seed(key string, value []byte)

	// Scan calls fn for every row until fn returns false. The iteration
	// order is unspecified and the snapshot is loose: rows put while a
	// scan runs may or may not be observed, but every row is internally
	// consistent (value matches version). The value passed to fn follows
	// Get's ownership rule.
	Scan(fn func(key string, value []byte, version int64) bool) error

	// SetFloor raises the table's version floor: every version assigned by
	// a later Put is strictly greater than version (versions only go up —
	// a floor below the current one is a no-op). Live migration uses this
	// at partition cutover: the new owner floors its table at the highest
	// version the old owner ever assigned, so the set-if-newer replication
	// and catch-up machinery can never prefer a stale pre-migration row
	// over a post-cutover write. The floor itself is not persisted; rows
	// written above it carry their versions through the WAL as usual, and
	// a migration interrupted by a crash restarts from scratch anyway.
	SetFloor(version int64)

	// Len reports the current number of rows (seeded + put).
	Len() int
}

// Row is one versioned value. Version 0 is a seed row (operator baseline,
// not durable); versions ≥ 1 were written by Put.
type Row struct {
	Value   []byte
	Version int64
}

// ParseEngine parses an -engine flag value ("mem" or "disk").
func ParseEngine(s string) (string, error) {
	switch s {
	case "mem", "disk":
		return s, nil
	}
	return "", fmt.Errorf("storage: unknown engine %q (want mem or disk)", s)
}

// --- In-memory engine -------------------------------------------------------

// Mem is the default storage engine: rows live in per-table maps guarded
// by RWMutexes, exactly like the pre-engine server. Nothing survives the
// process; Flush and Close are no-ops. It exists so the durable path is a
// pluggable choice instead of a tax on the in-memory hot path.
type Mem struct {
	mu     sync.Mutex
	tables map[string]*rowTable
}

// NewMem returns an empty in-memory engine.
func NewMem() *Mem {
	return &Mem{tables: make(map[string]*rowTable)}
}

// Table opens (creating if absent) an in-memory table.
func (m *Mem) Table(name string) (Table, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.tables[name]
	if t == nil {
		t = &rowTable{rows: make(map[string]Row)}
		m.tables[name] = t
	}
	return t, nil
}

// Flush is a no-op: memory is as durable as this engine gets.
func (m *Mem) Flush() error { return nil }

// Close is a no-op.
func (m *Mem) Close() error { return nil }

// --- Row table --------------------------------------------------------------

// rowTable is the versioned row table under both engines: Mem serves it as
// its Table, and the disk engine's table embeds it and adds the WAL append.
// Its two version rules, put and setIfNewer, are the only places a row's
// version is decided.
type rowTable struct {
	mu    sync.RWMutex
	rows  map[string]Row
	floor int64
}

func (t *rowTable) Get(key string) ([]byte, int64, bool) {
	t.mu.RLock()
	r, ok := t.rows[key]
	t.mu.RUnlock()
	return r.Value, r.Version, ok
}

func (t *rowTable) Put(key string, value []byte) (int64, error) {
	return t.put(key, append([]byte(nil), value...)), nil
}

func (t *rowTable) PutAt(key string, value []byte, version int64) (bool, error) {
	return t.setIfNewer(key, append([]byte(nil), value...), version), nil
}

// put stores value (which the table now owns) at the replaced version + 1,
// kept above the floor, and returns that version.
func (t *rowTable) put(key string, value []byte) int64 {
	t.mu.Lock()
	ver := t.rows[key].Version + 1
	if ver <= t.floor {
		ver = t.floor + 1
	}
	t.rows[key] = Row{Value: value, Version: ver}
	t.mu.Unlock()
	return ver
}

// setIfNewer stores value (which the table now owns) at version only if
// version is strictly newer than the stored row's, an absent row reading as
// version 0, and reports whether it did. PutAt and WAL replay both apply
// through it: the rule makes replication streams and catch-up replays
// idempotent and order-tolerant, lets a WAL replay over a snapshot that
// already absorbed some of its records, and orders same-key records whose
// appends raced.
func (t *rowTable) setIfNewer(key string, value []byte, version int64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rows[key].Version >= version {
		return false
	}
	t.rows[key] = Row{Value: value, Version: version}
	return true
}

func (t *rowTable) Seed(key string, value []byte) {
	t.mu.Lock()
	if _, ok := t.rows[key]; !ok {
		t.rows[key] = Row{Value: value}
	}
	t.mu.Unlock()
}

func (t *rowTable) Scan(fn func(key string, value []byte, version int64) bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for k, r := range t.rows {
		if !fn(k, r.Value, r.Version) {
			return nil
		}
	}
	return nil
}

func (t *rowTable) SetFloor(version int64) {
	t.mu.Lock()
	if version > t.floor {
		t.floor = version
	}
	t.mu.Unlock()
}

func (t *rowTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}
