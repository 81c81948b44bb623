package live

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"joinopt/internal/store"
)

// This file is the server half of the live plane's K-way replication
// (DESIGN.md "Replication"): applying the replication stream (OpPutRepl),
// serving catch-up scans (OpScan), and pulling a rejoined replica back up
// to date from its peers (Server.CatchUp). OpPutRepl batches land through
// the same commit path as OpPut (execute.go). The client half — replica
// placement, quorum puts, read failover — lives in exec.go/table.go.

// encodePutRepl packs one replication-stream row into an OpPutRepl param
// blob: uvarint(version) · blob(value) — the (version, value) pair of the
// sequencer's WAL record, with the usual nil-preserving blob encoding.
func encodePutRepl(version int64, value []byte) []byte {
	b := make([]byte, 0, binary.MaxVarintLen64+len(value)+binary.MaxVarintLen64)
	b = binary.AppendUvarint(b, uint64(version))
	return appendBlob(b, value)
}

// decodePutRepl unpacks an OpPutRepl param blob; ok is false on a short or
// corrupt encoding. The returned value aliases p.
func decodePutRepl(p []byte) (version int64, value []byte, ok bool) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, false
	}
	p = p[n:]
	l, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, false
	}
	p = p[n:]
	if l == 0 {
		return int64(v), nil, len(p) == 0
	}
	if uint64(len(p)) != l-1 {
		return 0, nil, false
	}
	return int64(v), p, true
}

// encodeScanRow packs one row of an OpScan page into a response value
// blob: string(key) · uvarint(version) · blob(value).
func encodeScanRow(key string, version int64, value []byte) []byte {
	b := make([]byte, 0, 2*binary.MaxVarintLen64+len(key)+len(value)+binary.MaxVarintLen64)
	b = appendString(b, key)
	b = binary.AppendUvarint(b, uint64(version))
	return appendBlob(b, value)
}

// decodeScanRow unpacks one OpScan row blob — a key ahead of the same
// (version, value) pair an OpPutRepl param carries; ok is false on
// corruption. The returned key and value alias p.
func decodeScanRow(p []byte) (key string, version int64, value []byte, ok bool) {
	kl, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p)-n) < kl {
		return "", 0, nil, false
	}
	version, value, ok = decodePutRepl(p[n+int(kl):])
	return string(p[n : n+int(kl)]), version, value, ok
}

// scanPageRows is the default OpScan page size when the request names none.
const scanPageRows = 512

// handleScan serves one catch-up page: the first limit rows with keys
// strictly after the cursor, in ascending key order. Seed rows (version 0)
// are skipped — every replica re-seeds the same operator baseline at boot,
// and a version-0 record could never win a set-if-newer anyway. The page is
// a loose snapshot (rows put mid-scan may or may not appear), which catch-
// up tolerates: anything missed is either already newer locally or arrives
// through the live replication stream.
//
// A region filter in Params[1] (see encodeRegionFilter) restricts
// the page to one partition's rows — a migrating shard streams through the
// same paged scans replication catch-up uses, without paying for the rest
// of the table — and a uvarint version bound in Params[2] skips every row
// at or below it (a migration's delta copy pulls only the rows put since
// the source raised its floor). A page then holds up to limit MATCHING
// rows; the cursor contract is unchanged (the last returned key).
func (s *Server) handleScan(tb *serverTable, req *Request) *Response {
	after := ""
	if len(req.Keys) > 0 {
		after = req.Keys[0]
	}
	limit := scanPageRows
	if len(req.Params) > 0 && len(req.Params[0]) > 0 {
		if n, k := binary.Uvarint(req.Params[0]); k > 0 && n > 0 {
			limit = int(n)
		}
	}
	region, nregions := 0, 0
	if len(req.Params) > 1 && len(req.Params[1]) > 0 {
		var ok bool
		if region, nregions, ok = decodeRegionFilter(req.Params[1]); !ok {
			return errResponse(req.ID, CodeServer, "malformed scan region filter")
		}
	}
	var above int64
	if len(req.Params) > 2 && len(req.Params[2]) > 0 {
		v, k := binary.Uvarint(req.Params[2])
		if k != len(req.Params[2]) || v > math.MaxInt64 {
			return errResponse(req.ID, CodeServer, "malformed scan version bound")
		}
		above = int64(v)
	}
	var keys []string
	tb.store.Scan(func(k string, _ []byte, ver int64) bool {
		if ver > above && k > after &&
			(nregions == 0 || store.RegionIndex(k, nregions) == region) {
			keys = append(keys, k)
		}
		return true
	})
	sort.Strings(keys)
	if len(keys) > limit {
		keys = keys[:limit]
	}
	resp := getResponse()
	resp.ID = req.ID
	for _, k := range keys {
		v, ver, ok := tb.store.Get(k)
		if !ok || ver <= above {
			continue // deleted or re-seeded between snapshot and read
		}
		resp.Values = append(resp.Values, encodeScanRow(k, ver, v))
		resp.Computed = append(resp.Computed, false)
		resp.Metas = append(resp.Metas, Meta{ValueSize: int64(len(v)), Version: ver})
	}
	return resp
}

// CatchUp pulls every served table's rows from the given peer replicas and
// applies them set-if-newer, then flushes once — the rejoin half of
// replication. A node restarted after an outage calls this (before or
// after Serve; applied rows notify any already-tracked cachers through the
// normal put path's rules on the next write, and catch-up itself registers
// no cachers) so the puts it missed while dead become readable locally
// instead of waiting for the next overwriting put.
//
// Peers are tried in order and a dead peer is skipped; the error is non-nil
// only when every peer failed for some table. Returns the number of rows
// that actually applied (stale pages re-sent by slower peers don't count).
func (s *Server) CatchUp(peers []string) (applied int, err error) {
	s.mu.RLock()
	tables := make(map[string]*serverTable, len(s.tables))
	for name, tb := range s.tables {
		tables[name] = tb
	}
	s.mu.RUnlock()

	var lastErr error
	for name, tb := range tables {
		ok := false
		for _, peer := range peers {
			n, perr := s.catchUpTable(peer, name, tb)
			applied += n
			if perr != nil {
				lastErr = fmt.Errorf("live: catch-up %q from %s: %w", name, peer, perr)
				continue
			}
			ok = true
			break // one complete peer copy is enough; versions reconcile the rest
		}
		if !ok && lastErr != nil {
			err = lastErr
		}
	}
	if ferr := s.engine.Flush(); ferr != nil && err == nil {
		err = ferr
	}
	return applied, err
}

// catchUpTable pages one table from one peer, applying rows set-if-newer.
// Optional scan params after the page limit (a region filter, then a version
// bound; see handleScan) restrict the pull — both copies of a shard
// migration ride the same paged-scan machinery.
func (s *Server) catchUpTable(peer, table string, tb *serverTable, filter ...[]byte) (int, error) {
	conn, err := DialNode(peer, nil)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	applied := 0
	cursor := ""
	params := append([][]byte{binary.AppendUvarint(nil, scanPageRows)}, filter...)
	for {
		resp, err := conn.Call(Request{Op: OpScan, Table: table,
			Keys: []string{cursor}, Params: params})
		if err != nil {
			return applied, err
		}
		for _, blob := range resp.Values {
			key, ver, value, ok := decodeScanRow(blob)
			if !ok {
				return applied, fmt.Errorf("malformed scan row")
			}
			ap, err := tb.store.PutAt(key, value, ver)
			if err != nil {
				return applied, err
			}
			if ap {
				applied++
			}
			cursor = key
		}
		if len(resp.Values) < scanPageRows {
			return applied, nil
		}
	}
}
