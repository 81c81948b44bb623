package main

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/live"
	"joinopt/internal/membership"
	"joinopt/internal/store"
)

// runLiveReplicas is the -livereplicas drill (see the package doc): R
// nodes hold table "t" R ways, and quorum puts and mixed-route reads run
// while one node is killed, restarted on its address with an empty memory
// engine and caught up from the survivors. The rejoined node is audited.
func runLiveReplicas(out io.Writer, ops, replicas int) error {
	if replicas < 3 {
		// Killing one of two replicas makes the majority quorum (2 of 2)
		// unreachable; the kill drill needs a surviving majority.
		return fmt.Errorf("-livereplicas needs at least 3 replicas to survive a kill, got %d", replicas)
	}

	const keys = 256
	reg := live.NewRegistry()
	reg.Register("tag", tag)

	tables := map[string]*store.Table{"t": tableT(1024, 2, replicas)}
	placement := membership.NewStatic(nil, tables, replicas) // the factor, said once; the executor dials addrs itself

	// Seeds load on every replica of their partition (version 0; catch-up
	// scans carry only real puts, so each boot re-seeds locally).
	nodeRows := kbRows(replicas, keys, func(k string) []cluster.NodeID { return placement.View().ReplicasForKey("t", k) })

	servers := make([]*live.Server, replicas)
	addrs := make(map[cluster.NodeID]string)
	boot := func(i int, addr string, peers []string) error {
		srv := live.NewServer(reg, false)
		srv.AddTable(live.TableSpec{Name: "t", UDF: "tag", Rows: nodeRows[i]})
		if len(peers) > 0 {
			// Rejoin: apply everything the survivors accepted while this
			// node was down, before any client can read from it.
			applied, err := srv.CatchUp(peers)
			if err != nil {
				srv.Close()
				return fmt.Errorf("catch-up: %w", err)
			}
			fmt.Fprintf(out, "node %d caught up from survivors (%d rows applied)\n", i, applied)
		}
		bound, err := srv.Serve(addr)
		if err != nil {
			srv.Close()
			return fmt.Errorf("serve node %d: %w", i, err)
		}
		addrs[cluster.NodeID(i)] = bound
		servers[i] = srv
		return nil
	}
	defer func() {
		for _, s := range servers {
			if s != nil {
				s.Close()
			}
		}
	}()
	for i := 0; i < replicas; i++ {
		if err := boot(i, "127.0.0.1:0", nil); err != nil {
			return err
		}
	}

	e, err := tagClient(reg, tables["t"], addrs, placement)
	if err != nil {
		return err
	}
	defer e.Close()
	tbl := e.Table("t")
	ctx := context.Background()

	const writers, readers = 4, 4
	perWriter := max(ops/writers, 1)
	fmt.Fprintf(out, "live replication drill: %d quorum puts + concurrent reads, %d nodes, R=%d\n",
		writers*perWriter, replicas, replicas)

	const victim = 1
	var peers []string
	var putRetried atomic.Int64
	params := []byte("p-repl-drill")
	s := &storm{writers: writers, perWriter: perWriter,
		put: func(k string, v []byte) (int64, error) { return tbl.Put(ctx, k, v) },
		backoff: func(error) (time.Duration, bool) {
			// Maybe-committed: the retry assigns a fresh, newer version,
			// so last-writer-wins keeps this safe.
			putRetried.Add(1)
			return 2 * time.Millisecond, true
		},
		// Every read shape must survive the outage through replica failover.
		readers: readers, keys: keys,
		call: func(k string, opts ...live.CallOption) ([]byte, error) { return tbl.Call(ctx, k, params, opts...) },
	}
	s.disrupt = func() error {
		fmt.Fprintf(out, "killing node %d at %d acked puts...\n", victim, s.led.Acked())
		servers[victim].Close()
		time.Sleep(150 * time.Millisecond) // ride the outage: failover + quorum puts
		for i, a := range addrs {
			if int(i) != victim {
				peers = append(peers, a)
			}
		}
		if err := boot(victim, addrs[victim], peers); err != nil {
			return err
		}
		// Second pass now that the node serves: covers writes replicated
		// while the first scan ran (live fan-out reaches the node from here
		// on).
		if _, err := servers[victim].CatchUp(peers); err != nil {
			return fmt.Errorf("post-serve catch-up: %w", err)
		}
		return nil
	}
	start := time.Now()
	if err := s.run(out); err != nil {
		return err
	}
	elapsed := time.Since(start)

	// Final anti-entropy pass before the audit: fan-out attempts made while
	// the victim's pool was still redialing met their quorum elsewhere.
	if _, err := servers[victim].CatchUp(peers); err != nil {
		return fmt.Errorf("final catch-up: %w", err)
	}

	// Audit the rejoined node directly: every acknowledged put must be
	// readable there at (at least) its acked version.
	conn, err := live.DialNode(addrs[victim], nil)
	if err != nil {
		return err
	}
	defer conn.Close()
	lost := report(out, s.led.Audit(nodeReader(conn.Call)))

	fmt.Fprintf(out, "\n%d puts acked (%d keys, %d retried through the outage), %d reads in %s\n",
		s.led.Acked(), s.led.Keys(), putRetried.Load(), s.reads.Load(), elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "executor: %d read failovers, %d put failovers, %d retries, %d failed\n",
		e.Failovers.Load(), e.PutFailovers.Load(), e.Retries.Load(), e.Failed.Load())
	var f failures
	f.check(s.readFailed.Load() > 0, "%d caller-visible read failures", s.readFailed.Load())
	f.check(lost > 0, "%d acked puts lost", lost)
	return f.verdict(out, "replication", "zero caller-visible read failures, every acked put survived rejoin")
}
