package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/live"
	"joinopt/internal/membership"
)

// runLiveMigrate is the -livemigrate drill (see the package doc). The
// executor holds a deliberately STALE clone of the membership map, so every
// ownership change must reach it as a CodeMoved redirect, never as
// out-of-band configuration. A third of the way in, a second node joins,
// every region migrates to it through the fenced four-phase handoff under
// load, and once the client has converged the old owner is removed. Puts
// ride out fence bounces and transport blips; any other put failure ends
// the run. A run in which no redirect was exercised fails: it would have
// proven nothing.
func runLiveMigrate(out io.Writer, ops int) error {
	const (
		regions = 4
		keys    = 256
	)
	params := []byte("p-mig-drill")
	reg := live.NewRegistry()
	reg.Register("tag", tag)

	// Seed rows: deterministic values so readers can validate answers.
	rows := make(map[string][]byte, keys)
	for i := 0; i < keys; i++ {
		rows[fmt.Sprintf("k%d", i)] = []byte(fmt.Sprintf("v-%d", i))
	}
	spec := live.TableSpec{Name: "t", UDF: "tag", Rows: rows}

	// The authoritative map: node 0 owns every region. Each store node
	// shares this map; the executor gets a frozen CLONE so ownership
	// changes reach it only through redirects.
	m := membership.NewMap()
	servers := map[cluster.NodeID]*live.Server{}
	boot := func(id cluster.NodeID) (string, error) {
		srv := live.NewServer(reg, false)
		srv.AddTable(spec)
		bound, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			srv.Close()
			return "", fmt.Errorf("serve node %d: %w", id, err)
		}
		servers[id] = srv
		m.AddNode(id, bound)
		return bound, nil
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	if _, err := boot(0); err != nil {
		return err
	}
	owners := make([]cluster.NodeID, regions)
	m.SetTable("t", owners) // all regions → node 0
	servers[0].SetMembership(m)

	stale := m.Clone() // the client's view; must converge via CodeMoved
	e, err := tagClient(reg, tableT(64, regions, 1), nil, stale)
	if err != nil {
		return err
	}
	defer e.Close()
	tbl := e.Table("t")
	ctx := context.Background()

	const writers, readers = 2, 2
	perWriter := max(ops/writers, 1)
	fmt.Fprintf(out, "live migration drill: %d puts + concurrent mixed-route reads, %d regions\n",
		writers*perWriter, regions)

	var (
		putBounced, putTransport atomic.Int64
		// gate quiesces the load for the instant the old owner is torn
		// down: workers hold it shared per op, the remover takes it
		// exclusively, so no op is in flight to a node being closed.
		gate    sync.RWMutex
		addr1   string
		cutLost int
	)
	s := &storm{writers: writers, perWriter: perWriter,
		put: func(k string, v []byte) (int64, error) {
			gate.RLock()
			defer gate.RUnlock()
			return tbl.Put(ctx, k, v)
		},
		backoff: func(err error) (time.Duration, bool) {
			var le *live.Error
			switch {
			case errors.As(err, &le) && le.Code == live.CodeOverloaded:
				// The migration fence: zero work was done, and the bounce
				// carries the server's retry-after hint.
				putBounced.Add(1)
				return max(le.RetryAfter(), time.Millisecond), true
			case errors.As(err, &le) && le.Code == live.CodeTransport:
				// Maybe-committed: the retry assigns a fresh, newer
				// version, so last-writer-wins keeps this safe.
				putTransport.Add(1)
				return 2 * time.Millisecond, true
			}
			return 0, false
		},
		// Every read shape must ride the migration without a
		// caller-visible failure, and answer the seeded value.
		readers: readers, keys: keys,
		call: func(k string, opts ...live.CallOption) ([]byte, error) {
			gate.RLock()
			defer gate.RUnlock()
			return tbl.Call(ctx, k, params, opts...)
		},
		want: func(i int) string { return fmt.Sprintf("v-%d#%s", i, params) },
	}
	s.disrupt = func() error {
		// Mid-run: a new node joins the running cluster...
		var err error
		if addr1, err = boot(1); err != nil {
			return err
		}
		servers[1].SetMembership(m)
		fmt.Fprintf(out, "node 1 joined at %s (%d acked puts); migrating all %d regions under load...\n",
			addr1, s.led.Acked(), regions)

		// ...and every region migrates to it while the load keeps running.
		mig := &live.Migrator{Map: m, Servers: servers}
		migStart := time.Now()
		moved, err := mig.Drain(0, 1, []string{"t"})
		if err != nil {
			return fmt.Errorf("migrate: %w", err)
		}
		fmt.Fprintf(out, "migrated %d regions in %s (map epoch %d)\n",
			moved, time.Since(migStart).Round(time.Millisecond), m.Epoch())

		// The cutover audit: every put acked so far must already be on the
		// new owner. The final audit alone misses a put lost mid-migration
		// once a later put of the same key has overwritten it.
		conn, err := live.DialNode(addr1, nil)
		if err != nil {
			return err
		}
		cutLost = report(out, s.led.Audit(nodeReader(conn.Call)))
		conn.Close()

		// Wait for the client's stale clone to converge onto the new
		// placement through redirects — the ongoing reads and writes
		// trigger them.
		converged := func() bool {
			for _, set := range stale.View().Tables["t"].Sets {
				if set[0] != 1 {
					return false
				}
			}
			return true
		}
		for limit := time.Now().Add(30 * time.Second); !converged(); {
			if time.Now().After(limit) {
				return fmt.Errorf("client never converged onto the new owner (epoch %d vs map %d)",
					stale.Epoch(), m.Epoch())
			}
			time.Sleep(time.Millisecond)
		}

		// Remove the old owner entirely: it owns nothing now, so the map
		// allows it, and no client route can name it. The gate keeps the
		// teardown out of any in-flight op's round trip.
		m.RemoveNode(0)
		gate.Lock()
		servers[0].Close()
		delete(servers, 0)
		gate.Unlock()
		fmt.Fprintf(out, "old owner removed at %d acked puts; load continues against node 1 only\n", s.led.Acked())
		return nil
	}
	start := time.Now()
	if err := s.run(out); err != nil {
		return err
	}
	elapsed := time.Since(start)

	// Audit 1 — durability: every acknowledged put must be readable on the
	// new owner at (at least) its acked version.
	conn, err := live.DialNode(addr1, nil)
	if err != nil {
		return err
	}
	defer conn.Close()
	lost := report(out, s.led.Audit(nodeReader(conn.Call)))

	// Audit 2 — client-cache coherence: reading every written key through
	// the executor (writers are done, so the last ack is the truth) must
	// return the acked value. A stale cached value surviving the move —
	// the pre-cutover owner's copy never invalidated — would surface here.
	suffix := []byte("#" + string(params))
	staleReads := report(out, s.led.AuditLatest(func(k string) ([]byte, error) {
		got, err := tbl.Call(ctx, k, params)
		val, ok := bytes.CutSuffix(got, suffix)
		if err == nil && !ok {
			err = fmt.Errorf("answer %q is not the UDF over a stored value", got)
		}
		return val, err
	}))

	fmt.Fprintf(out, "\n%d puts acked (%d keys, %d fence bounces, %d transport retries), %d reads in %s\n",
		s.led.Acked(), s.led.Keys(), putBounced.Load(), putTransport.Load(), s.reads.Load(), elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "executor: %d redirects resolved, client epoch %d (map %d)\n",
		e.Moved.Load(), stale.Epoch(), m.Epoch())
	var f failures
	f.check(s.readFailed.Load() > 0, "%d caller-visible read failures", s.readFailed.Load())
	f.check(s.readWrong.Load() > 0, "%d wrong answers", s.readWrong.Load())
	f.check(cutLost > 0, "%d acked puts missing from the new owner at cutover", cutLost)
	f.check(lost > 0, "%d acked puts lost", lost)
	f.check(staleReads > 0, "%d stale post-migration reads", staleReads)
	f.check(e.Moved.Load() == 0, "no CodeMoved redirect was ever exercised")
	return f.verdict(out, "migration", "zero caller-visible failures, every acked put was on the new owner at cutover and survived the move, redirects resolved transparently")
}
