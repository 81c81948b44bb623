package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/core"
	"joinopt/internal/live"
	"joinopt/internal/membership"
	"joinopt/internal/store"
)

// runLiveReplicas is the -livereplicas scenario: a kill-one-replica drill
// against the replicated live plane. It boots R store nodes serving one
// table replicated R ways, drives concurrent writers (quorum puts through
// Table.Put, every ack recorded) and readers (fetch/exec joins that must
// NEVER surface a failure to the caller) against them, hard-stops one node
// a third of the way in, restarts it on the same address with an empty
// memory engine, and catches it up from the surviving replicas. The run
// fails (exit 1) if any reader saw an error — failover must absorb the
// outage — or if any acknowledged put is missing or stale on the rejoined
// node after catch-up.
func runLiveReplicas(out io.Writer, ops, replicas int) {
	if replicas < 3 {
		// Killing one of two replicas makes the majority quorum (2 of 2)
		// unreachable; the kill drill needs a surviving majority.
		log.Fatalf("-livereplicas needs at least 3 replicas to survive a kill, got %d", replicas)
	}

	const keys = 256
	reg := live.NewRegistry()
	reg.Register("tag", func(key string, params, value []byte) []byte {
		o := append([]byte{}, value...)
		o = append(o, '#')
		return append(o, params...)
	})

	ids := make([]cluster.NodeID, replicas)
	for i := range ids {
		ids[i] = cluster.NodeID(i)
	}
	catalog := store.CatalogFunc(func(string) store.RowMeta {
		return store.RowMeta{ValueSize: 1024}
	})
	tables := map[string]*store.Table{"t": store.NewTable("t", catalog, 2, ids)}
	placement := membership.NewStatic(nil, tables, replicas) // the factor, said once; the executor dials addrs itself

	// Seeds load on every replica of their partition (version 0; catch-up
	// scans carry only real puts, so each boot re-seeds locally).
	nodeRows := make([]map[string][]byte, replicas)
	for i := range nodeRows {
		nodeRows[i] = make(map[string][]byte)
	}
	val := bytes.Repeat([]byte("x"), 1024)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%d", i)
		for _, n := range placement.View().ReplicasForKey("t", k) {
			nodeRows[n][k] = val
		}
	}

	servers := make([]*live.Server, replicas)
	addrs := make(map[cluster.NodeID]string)
	boot := func(i int, addr string, peers []string) *live.Server {
		srv := live.NewServer(reg, false)
		srv.AddTable(live.TableSpec{Name: "t", UDF: "tag", Rows: nodeRows[i]})
		if len(peers) > 0 {
			// Rejoin: apply everything the survivors accepted while this
			// node was down, before any client can read from it.
			applied, err := srv.CatchUp(peers)
			if err != nil {
				log.Fatalf("catch-up: %v", err)
			}
			fmt.Fprintf(out, "node %d caught up from survivors (%d rows applied)\n", i, applied)
		}
		bound, err := srv.Serve(addr)
		if err != nil {
			log.Fatalf("serve node %d: %v", i, err)
		}
		addrs[cluster.NodeID(i)] = bound
		servers[i] = srv
		return srv
	}
	for i := 0; i < replicas; i++ {
		boot(i, "127.0.0.1:0", nil)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	e, err := live.NewExecutor(live.ExecConfig{
		Tables:     tables,
		Addrs:      addrs,
		Membership: placement,
		Registry:   reg,
		TableUDF:   map[string]string{"t": "tag"},
		Optimizer: core.Config{
			Policy:        core.Policy{Caching: true},
			MemCacheBytes: 32 << 20,
		},
		BatchWait:      500 * time.Microsecond,
		RequestTimeout: 2 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer e.Close()
	tbl := e.Table("t")
	ctx := context.Background()

	const writers, readers = 4, 4
	perWriter := ops / writers
	if perWriter < 1 {
		perWriter = 1
	}
	killAt := int64(writers*perWriter) / 3
	fmt.Fprintf(out, "live replication drill: %d quorum puts + concurrent reads, %d nodes, R=%d\n",
		writers*perWriter, replicas, replicas)

	var (
		mu    sync.Mutex
		acked = map[string]struct {
			val string
			ver int64
		}{}
		ackedN, putRetried atomic.Int64
		readsDone, readErr atomic.Int64
		stopReads          atomic.Bool
	)

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= perWriter; i++ {
				k := fmt.Sprintf("w%d-k%d", w, i%64)
				v := fmt.Sprintf("w%d-seq%d", w, i)
				deadline := time.Now().Add(time.Minute)
				for {
					ver, err := tbl.Put(ctx, k, []byte(v))
					if err == nil {
						mu.Lock()
						acked[k] = struct {
							val string
							ver int64
						}{v, ver}
						mu.Unlock()
						ackedN.Add(1)
						break
					}
					if time.Now().After(deadline) {
						log.Fatalf("put %s never acked: %v", k, err)
					}
					// Maybe-committed: the retry assigns a fresh, newer
					// version, so last-writer-wins keeps this safe.
					putRetried.Add(1)
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(w)
	}
	var readWg sync.WaitGroup
	for r := 0; r < readers; r++ {
		readWg.Add(1)
		go func(r int) {
			defer readWg.Done()
			rng := rand.New(rand.NewSource(int64(r) + 1))
			params := []byte("p-repl-drill")
			for !stopReads.Load() {
				k := fmt.Sprintf("k%d", rng.Intn(keys))
				var err error
				// Mix the read shapes: Algorithm 1's choice, a forced
				// fetch, and a cache-bypassing fetch all must survive the
				// outage through replica failover.
				switch rng.Intn(4) {
				case 0:
					_, err = tbl.Call(ctx, k, params, live.WithRoute(live.ForceFetch))
				case 1:
					_, err = tbl.Call(ctx, k, params, live.WithNoCache())
				default:
					_, err = tbl.Call(ctx, k, params)
				}
				if err != nil {
					if readErr.Add(1) <= 3 {
						fmt.Fprintf(out, "READ FAILURE surfaced to caller: %s: %v\n", k, err)
					}
				}
				readsDone.Add(1)
			}
		}(r)
	}

	for ackedN.Load() < killAt {
		time.Sleep(time.Millisecond)
	}
	const victim = 1
	fmt.Fprintf(out, "killing node %d at %d acked puts...\n", victim, ackedN.Load())
	servers[victim].Close()
	time.Sleep(150 * time.Millisecond) // ride the outage: failover + quorum puts

	var peers []string
	for i, a := range addrs {
		if int(i) != victim {
			peers = append(peers, a)
		}
	}
	boot(victim, addrs[victim], peers)
	// Second pass now that the node serves: covers writes replicated while
	// the first scan ran (live fan-out reaches the node from here on).
	if _, err := servers[victim].CatchUp(peers); err != nil {
		log.Fatalf("post-serve catch-up: %v", err)
	}

	wg.Wait()
	stopReads.Store(true)
	readWg.Wait()
	elapsed := time.Since(start)

	// Final anti-entropy pass before the audit: fan-out attempts made while
	// the victim's pool was still redialing met their quorum elsewhere.
	if _, err := servers[victim].CatchUp(peers); err != nil {
		log.Fatalf("final catch-up: %v", err)
	}

	// Audit the rejoined node directly: every acknowledged put must be
	// readable there at (at least) its acked version.
	conn, err := live.DialNode(addrs[victim], nil)
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
			fmt.Fprintf(out, "LOST acked put: %s at v%d < acked v%d (%q)\n", k, ver, want.ver, want.val)
			lost++
		case ver == want.ver && string(v) != want.val:
			fmt.Fprintf(out, "DIVERGED acked put: %s v%d = %q, acked %q\n", k, ver, v, want.val)
			lost++
		}
	}

	fmt.Fprintf(out, "\n%d puts acked (%d keys, %d retried through the outage), %d reads in %s\n",
		ackedN.Load(), len(acked), putRetried.Load(), readsDone.Load(), elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "executor: %d read failovers, %d put failovers, %d retries, %d failed\n",
		e.Failovers.Load(), e.PutFailovers.Load(), e.Retries.Load(), e.Failed.Load())
	if readErr.Load() > 0 || lost > 0 {
		fmt.Fprintf(out, "DRILL FAILED: %d caller-visible read failures, %d acked puts lost\n",
			readErr.Load(), lost)
		os.Exit(1)
	}
	fmt.Fprintln(out, "replication held: zero caller-visible read failures, every acked put survived rejoin")
}
