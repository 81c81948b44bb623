package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"joinopt/internal/live"
	"joinopt/internal/storage"
)

// runLiveDurable is the -livedurable scenario: a kill-and-restart
// durability drill against the disk storage engine. It boots one store
// node backed by a WAL + snapshot directory, drives a put storm from
// several client goroutines that record every acknowledged put, hard-stops
// the node a third of the way in, restarts it on the same data directory
// and address while the writers ride out the outage through redial loops,
// and finally reads every acknowledged key back. The run fails (exit 1)
// if any acked put is missing or stale after recovery — the same invariant
// the fault suite pins in CI, here runnable against tunable op counts and
// a real directory. dir == "" uses a throwaway temp directory.
func runLiveDurable(out io.Writer, ops int, dir string, fsync bool) {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "joinbench-durable-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	const writers = 4
	perWriter := ops / writers
	if perWriter < 1 {
		perWriter = 1
	}
	killAt := int64(writers*perWriter) / 3

	fmt.Fprintf(out, "live durability drill: %d puts from %d writers, data dir %s (fsync=%v)\n",
		writers*perWriter, writers, dir, fsync)

	reg := live.NewRegistry()
	boot := func(addr string) (*live.Server, *storage.Disk, string) {
		eng, err := storage.OpenDisk(dir, storage.DiskOptions{SnapshotBytes: 64 << 10, Fsync: fsync})
		if err != nil {
			log.Fatalf("open disk engine: %v", err)
		}
		srv := live.NewServer(reg, false)
		srv.SetEngine(eng)
		srv.AddTable(live.TableSpec{Name: "t", UDF: "none"})
		bound, err := srv.Serve(addr)
		if err != nil {
			log.Fatalf("serve: %v", err)
		}
		return srv, eng, bound
	}
	srv, eng, addr := boot("127.0.0.1:0")

	var (
		mu    sync.Mutex
		acked = map[string]struct {
			val string
			ver int64
		}{}
		ackedN, retried atomic.Int64
	)
	put := func(conn **live.Conn, key, val string) {
		deadline := time.Now().Add(time.Minute)
		for {
			if *conn == nil || (*conn).Down() {
				if *conn != nil {
					(*conn).Close()
				}
				c, err := live.DialNode(addr, nil)
				if err != nil {
					if time.Now().After(deadline) {
						log.Fatalf("redial never succeeded: %v", err)
					}
					time.Sleep(5 * time.Millisecond)
					continue
				}
				*conn = c
			}
			resp, err := (*conn).Call(live.Request{Op: live.OpPut, Table: "t",
				Keys: []string{key}, Params: [][]byte{[]byte(val)}})
			if err == nil {
				mu.Lock()
				acked[key] = struct {
					val string
					ver int64
				}{val, resp.Metas[0].Version}
				mu.Unlock()
				ackedN.Add(1)
				return
			}
			if time.Now().After(deadline) {
				log.Fatalf("put %s never acked: %v", key, err)
			}
			retried.Add(1) // unacked mid-outage put: retry, never counted as durable
			time.Sleep(2 * time.Millisecond)
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var conn *live.Conn
			defer func() {
				if conn != nil {
					conn.Close()
				}
			}()
			for i := 1; i <= perWriter; i++ {
				k := fmt.Sprintf("w%d-k%d", w, i%64)
				put(&conn, k, fmt.Sprintf("w%d-seq%d", w, i))
			}
		}(w)
	}

	for ackedN.Load() < killAt {
		time.Sleep(time.Millisecond)
	}
	fmt.Fprintf(out, "killing node at %d acked puts...\n", ackedN.Load())
	srv.Close()
	eng.Close()
	var eng2 *storage.Disk
	srv, eng2, _ = boot(addr)
	defer srv.Close()
	defer eng2.Close()
	st := eng2.Stats()
	fmt.Fprintf(out, "node restarted: recovered %d snapshot rows + %d WAL records (%d torn bytes dropped)\n",
		st.RecoveredRows, st.ReplayedRecords, st.TornTailBytes)

	wg.Wait()
	elapsed := time.Since(start)

	conn, err := live.DialNode(addr, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	mu.Lock()
	defer mu.Unlock()
	lost := 0
	for k, want := range acked {
		resp, err := conn.Call(live.Request{Op: live.OpGet, Table: "t", Keys: []string{k}})
		if err != nil {
			log.Fatalf("readback %s: %v", k, err)
		}
		v, ver := resp.Values[0], resp.Metas[0].Version
		switch {
		case ver < want.ver:
			fmt.Fprintf(out, "LOST acked put: %s recovered at v%d < acked v%d (%q)\n", k, ver, want.ver, want.val)
			lost++
		case ver == want.ver && string(v) != want.val:
			fmt.Fprintf(out, "CORRUPT acked put: %s v%d = %q, acked %q\n", k, ver, v, want.val)
			lost++
		}
	}
	fmt.Fprintf(out, "\n%d puts acked (%d keys, %d retried through the outage) in %s; %d lost after kill+restart\n",
		ackedN.Load(), len(acked), retried.Load(), elapsed.Round(time.Millisecond), lost)
	if lost > 0 {
		os.Exit(1)
	}
	fmt.Fprintln(out, "durability held: every acknowledged put survived recovery")
}
