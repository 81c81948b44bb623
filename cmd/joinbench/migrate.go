package main

import (
	"context"
	"errors"
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

// runLiveMigrate is the -livemigrate scenario: an elastic-membership drill
// that moves every partition of a live table to a node that did not exist
// when the run started, under concurrent load, and then removes the old
// owner entirely.
//
// The run boots one store node owning all regions of one table, drives
// writers (puts recorded at acknowledgment, retried through migration
// fences honoring the server's retry-after hint) and readers (mixed-route
// fetch/compute joins whose answers are validated and which must NEVER
// surface an error) against it through an executor holding a deliberately
// STALE clone of the membership map — so every ownership change must reach
// the client as a CodeMoved redirect, never as out-of-band configuration.
// A third of the way in, a second node joins, every region migrates to it
// through the fenced five-phase handoff while the load keeps running, and
// once the client has converged onto the new placement the old owner is
// removed from the map and shut down.
//
// The run fails (exit 1) if: any reader saw an error or a wrong answer
// (redirects must resolve transparently — CodeMoved must never reach a
// caller); any writer failed for a reason other than a retryable fence
// bounce or transport blip; any acknowledged put is missing or stale on
// the new owner afterwards; a post-migration read through the executor
// returns anything but the last acknowledged value (a stale client cache
// surviving the move is a wrong answer); or no redirect was ever exercised
// (the drill would have proven nothing).
func runLiveMigrate(out io.Writer, ops int) {

	const (
		regions = 4
		keys    = 256
	)
	params := []byte("p-mig-drill")
	reg := live.NewRegistry()
	reg.Register("tag", func(key string, p, value []byte) []byte {
		o := append([]byte{}, value...)
		o = append(o, '#')
		return append(o, p...)
	})

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
	boot := func(id cluster.NodeID) string {
		srv := live.NewServer(reg, false)
		srv.AddTable(spec)
		bound, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			log.Fatalf("serve node %d: %v", id, err)
		}
		servers[id] = srv
		m.AddNode(id, bound)
		return bound
	}
	boot(0)
	owners := make([]cluster.NodeID, regions)
	m.SetTable("t", owners) // all regions → node 0
	servers[0].SetMembership(m, 0)
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	stale := m.Clone() // the client's view; must converge via CodeMoved
	catalog := store.CatalogFunc(func(string) store.RowMeta {
		return store.RowMeta{ValueSize: 64}
	})
	table := store.NewTable("t", catalog, regions, []cluster.NodeID{0})
	e, err := live.NewExecutor(live.ExecConfig{
		Tables:     map[string]*store.Table{"t": table},
		Registry:   reg,
		TableUDF:   map[string]string{"t": "tag"},
		Membership: stale,
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

	const writers, readers = 2, 2
	perWriter := ops / writers
	if perWriter < 1 {
		perWriter = 1
	}
	joinAt := int64(writers*perWriter) / 3
	fmt.Fprintf(out, "live migration drill: %d puts + concurrent mixed-route reads, %d regions\n",
		writers*perWriter, regions)

	var (
		mu    sync.Mutex
		acked = map[string]struct {
			val string
			ver int64
		}{}
		ackedN, putBounced, putTransport atomic.Int64
		readsDone, readErr, readWrong    atomic.Int64
		stopReads                        atomic.Bool
		// gate quiesces the load for the instant the old owner is torn
		// down: workers hold it shared per op, the remover takes it
		// exclusively, so no op is in flight to a node being closed.
		gate sync.RWMutex
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
					gate.RLock()
					ver, err := tbl.Put(ctx, k, []byte(v))
					gate.RUnlock()
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
					var le *live.Error
					switch {
					case errors.As(err, &le) && le.Code == live.CodeOverloaded:
						// The migration fence: zero work was done, and the
						// bounce carries the server's retry-after hint.
						putBounced.Add(1)
						wait := le.RetryAfter()
						if wait <= 0 {
							wait = time.Millisecond
						}
						time.Sleep(wait)
					case errors.As(err, &le) && le.Code == live.CodeTransport:
						// Maybe-committed: the retry assigns a fresh, newer
						// version, so last-writer-wins keeps this safe.
						putTransport.Add(1)
						time.Sleep(2 * time.Millisecond)
					default:
						log.Fatalf("put %s failed opaquely: %v", k, err)
					}
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
			for !stopReads.Load() {
				i := rng.Intn(keys)
				k := fmt.Sprintf("k%d", i)
				want := fmt.Sprintf("v-%d#%s", i, params)
				var got []byte
				var err error
				// Mix the read shapes: Algorithm 1's choice, a forced
				// fetch, and a cache-bypassing fetch all must ride the
				// migration without a caller-visible failure.
				gate.RLock()
				switch rng.Intn(4) {
				case 0:
					got, err = tbl.Call(ctx, k, params, live.WithRoute(live.ForceFetch))
				case 1:
					got, err = tbl.Call(ctx, k, params, live.WithNoCache())
				default:
					got, err = tbl.Call(ctx, k, params)
				}
				gate.RUnlock()
				switch {
				case err != nil:
					if readErr.Add(1) <= 3 {
						fmt.Fprintf(out, "READ FAILURE surfaced to caller: %s: %v\n", k, err)
					}
				case string(got) != want:
					if readWrong.Add(1) <= 3 {
						fmt.Fprintf(out, "WRONG ANSWER: %s = %q, want %q\n", k, got, want)
					}
				}
				readsDone.Add(1)
			}
		}(r)
	}

	// Mid-run: a new node joins the running cluster...
	for ackedN.Load() < joinAt {
		time.Sleep(time.Millisecond)
	}
	addr1 := boot(1)
	servers[1].SetMembership(m, 1)
	fmt.Fprintf(out, "node 1 joined at %s (%d acked puts); migrating all %d regions under load...\n",
		addr1, ackedN.Load(), regions)

	// ...and every region migrates to it while the load keeps running.
	mig := &live.Migrator{Map: m, Servers: servers}
	migStart := time.Now()
	moved, err := mig.Drain(0, 1, []string{"t"})
	if err != nil {
		log.Fatalf("migrate: %v", err)
	}
	fmt.Fprintf(out, "migrated %d regions in %s (map epoch %d)\n",
		moved, time.Since(migStart).Round(time.Millisecond), m.Epoch())

	// Wait for the client's stale clone to converge onto the new placement
	// through redirects — the ongoing reads and writes trigger them.
	converged := func() bool {
		tv := stale.View().Tables["t"]
		for _, set := range tv.Sets {
			if set[0] != 1 {
				return false
			}
		}
		return true
	}
	for limit := time.Now().Add(30 * time.Second); !converged(); {
		if time.Now().After(limit) {
			log.Fatalf("client never converged onto the new owner (epoch %d vs map %d)",
				stale.Epoch(), m.Epoch())
		}
		time.Sleep(time.Millisecond)
	}

	// Remove the old owner entirely: it owns nothing now, so the map allows
	// it, and no client route can name it. The gate keeps the teardown out
	// of any in-flight op's round trip.
	m.RemoveNode(0)
	gate.Lock()
	servers[0].Close()
	delete(servers, 0)
	gate.Unlock()
	fmt.Fprintf(out, "old owner removed at %d acked puts; load continues against node 1 only\n", ackedN.Load())

	wg.Wait()
	stopReads.Store(true)
	readWg.Wait()
	elapsed := time.Since(start)

	// Audit 1 — durability: every acknowledged put must be readable on the
	// new owner at (at least) its acked version.
	conn, err := live.DialNode(addr1, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	mu.Lock()
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
	mu.Unlock()

	// Audit 2 — client-cache coherence: reading every written key through
	// the executor (writers are done, so the last ack is the truth) must
	// return the acked value. A stale cached value surviving the move —
	// the pre-cutover owner's copy never invalidated — would surface here.
	staleReads := 0
	mu.Lock()
	for k, want := range acked {
		got, err := tbl.Call(ctx, k, params)
		if err != nil {
			log.Fatalf("post-migration read %s: %v", k, err)
		}
		if exp := want.val + "#" + string(params); string(got) != exp {
			fmt.Fprintf(out, "STALE post-migration read: %s = %q, want %q\n", k, got, exp)
			staleReads++
		}
	}
	mu.Unlock()

	fmt.Fprintf(out, "\n%d puts acked (%d keys, %d fence bounces, %d transport retries), %d reads in %s\n",
		ackedN.Load(), len(acked), putBounced.Load(), putTransport.Load(), readsDone.Load(), elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "executor: %d redirects resolved, client epoch %d (map %d)\n",
		e.Moved.Load(), stale.Epoch(), m.Epoch())
	fail := readErr.Load() > 0 || readWrong.Load() > 0 || lost > 0 || staleReads > 0
	if e.Moved.Load() == 0 {
		fmt.Fprintln(out, "DRILL INVALID: no CodeMoved redirect was ever exercised")
		fail = true
	}
	if fail {
		fmt.Fprintf(out, "DRILL FAILED: %d read failures, %d wrong answers, %d acked puts lost, %d stale post-migration reads\n",
			readErr.Load(), readWrong.Load(), lost, staleReads)
		os.Exit(1)
	}
	fmt.Fprintln(out, "migration held: zero caller-visible failures, every acked put survived the move, redirects resolved transparently")
}
