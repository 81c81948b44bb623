package main

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"joinopt/internal/live"
	"joinopt/internal/storage"
)

// runLiveDurable is the -livedurable drill (see the package doc): one
// disk-engine node takes a put storm, is killed a third of the way in and
// restarted on the same data directory and address while the writers ride
// out the outage on their pool's redials, and every acked put is read back.
// It is the fault suite's kill-restart test at tunable op counts against a
// real directory; dir == "" uses a throwaway temp directory.
func runLiveDurable(out io.Writer, ops int, dir string, fsync bool) error {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "joinbench-durable-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	const writers = 4
	perWriter := max(ops/writers, 1)
	fmt.Fprintf(out, "live durability drill: %d puts from %d writers, data dir %s (fsync=%v)\n",
		writers*perWriter, writers, dir, fsync)

	reg := live.NewRegistry()
	boot := func(addr string) (*live.Server, *storage.Disk, string, error) {
		eng, err := storage.OpenDisk(dir, storage.DiskOptions{SnapshotBytes: 64 << 10, Fsync: fsync})
		if err != nil {
			return nil, nil, "", fmt.Errorf("open disk engine: %w", err)
		}
		srv := live.NewServer(reg, false)
		srv.SetEngine(eng)
		srv.AddTable(live.TableSpec{Name: "t", UDF: "none"})
		bound, err := srv.Serve(addr)
		if err != nil {
			srv.Close()
			eng.Close()
			return nil, nil, "", fmt.Errorf("serve: %w", err)
		}
		return srv, eng, bound, nil
	}
	srv, eng, addr, err := boot("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer func() { srv.Close(); eng.Close() }()

	// The writers share one pool, which redials on its own once the node
	// is back.
	pool, err := live.DialPool(addr, writers, nil)
	if err != nil {
		return err
	}
	defer pool.Close()
	var retried atomic.Int64
	s := &storm{writers: writers, perWriter: perWriter,
		put: func(key string, val []byte) (int64, error) {
			resp, err := pool.Call(live.Request{Op: live.OpPut, Table: "t",
				Keys: []string{key}, Params: [][]byte{val}})
			if err != nil {
				return 0, err
			}
			return resp.Metas[0].Version, nil
		},
		backoff: func(error) (time.Duration, bool) {
			retried.Add(1) // unacked mid-outage put: retry, never counted as durable
			return 2 * time.Millisecond, true
		},
	}
	s.disrupt = func() error {
		fmt.Fprintf(out, "killing node at %d acked puts...\n", s.led.Acked())
		srv.Close()
		eng.Close()
		srv2, eng2, _, err := boot(addr)
		if err != nil {
			return err
		}
		srv, eng = srv2, eng2
		st := eng.Stats()
		fmt.Fprintf(out, "node restarted: recovered %d snapshot rows + %d WAL records (%d torn bytes dropped)\n",
			st.RecoveredRows, st.ReplayedRecords, st.TornTailBytes)
		return nil
	}
	start := time.Now()
	if err := s.run(out); err != nil {
		return err
	}
	elapsed := time.Since(start)

	lost := report(out, s.led.Audit(nodeReader(pool.Call)))
	fmt.Fprintf(out, "\n%d puts acked (%d keys, %d retried through the outage) in %s; %d lost after kill+restart\n",
		s.led.Acked(), s.led.Keys(), retried.Load(), elapsed.Round(time.Millisecond), lost)
	var f failures
	f.check(lost > 0, "%d acked puts lost", lost)
	return f.verdict(out, "durability", "every acknowledged put survived recovery")
}
