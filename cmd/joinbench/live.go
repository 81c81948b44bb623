package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/core"
	"joinopt/internal/live"
	"joinopt/internal/store"
)

// runLiveBench measures the live plane end to end: it spins up real TCP
// store servers and a real executor in-process and pushes ops batched
// OpExec joins through the wire. clients is the number of concurrent
// submitter goroutines sharing the one executor (the parallel-Submit
// scaling axis); shards stripes the executor's routing state (0 =
// GOMAXPROCS, 1 = the old global-lock behaviour). cancelFrac (0..1)
// cancels that fraction of in-flight ops via their context right after
// submission — the -livecancel scenario — and the report then splits ops
// into completed/canceled/failed and shows how many UDFs the servers
// skipped.
func runLiveBench(out io.Writer, ops, nodes, clients, shards int,
	retries int, timeout time.Duration, cancelFrac float64) error {
	clients = max(clients, 1)
	fmt.Fprintf(out, "live plane throughput: %d ops, %d store nodes, %d client goroutines, batched OpExec\n",
		ops, nodes, clients)
	if cancelFrac > 0 {
		fmt.Fprintf(out, "canceling ~%.0f%% of in-flight ops via context\n", cancelFrac*100)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "%12s %12s %10s %10s %10s %12s\n",
		"elapsed", "ops/sec", "completed", "canceled", "failed", "udfs skipped")
	reg := live.NewRegistry()
	reg.Register("tag", tag)

	const keys = 512
	table := tableT(1024, 2, nodes)

	nodeRows := kbRows(nodes, keys, func(k string) []cluster.NodeID { return []cluster.NodeID{table.Locate(k)} })

	addrs := make(map[cluster.NodeID]string)
	var servers []*live.Server
	for i := 0; i < nodes; i++ {
		s := live.NewServer(reg, false)
		s.AddTable(live.TableSpec{Name: "t", UDF: "tag", Rows: nodeRows[i]})
		addr, err := s.Serve("127.0.0.1:0")
		if err != nil {
			s.Close()
			return err
		}
		addrs[cluster.NodeID(i)] = addr
		servers = append(servers, s)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	e, err := live.NewExecutor(live.ExecConfig{
		Tables:         map[string]*store.Table{"t": table},
		Addrs:          addrs,
		Registry:       reg,
		TableUDF:       map[string]string{"t": "tag"},
		Optimizer:      core.Config{Policy: core.Policy{AlwaysCompute: true}},
		BatchWait:      500 * time.Microsecond,
		Shards:         shards,
		MaxRetries:     retries,
		RequestTimeout: timeout,
	})
	if err != nil {
		return err
	}
	defer e.Close()

	// Resolve the table handle once, submit under contexts.
	ctx := context.Background()
	tbl := e.Table("t")

	// One warm-up round trip per node takes dialing off the clock.
	for i := 0; i < keys; i += keys / 8 {
		if _, err := tbl.Call(ctx, fmt.Sprintf("k%d", i), []byte("warm")); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}

	// Each client goroutine pushes its slice of the ops through the shared
	// executor in pipelined waves, so total in-flight stays ~512 regardless
	// of the client count. With cancelFrac > 0, that fraction of ops is
	// submitted under a cancellable context that is canceled right after
	// submission — while the op sits in a batch accumulator or rides the
	// wire — exercising the full abandonment path under load.
	window := max(512/clients, 1)
	params := []byte("p-live-bench")
	start := time.Now()
	var completed, canceled, failed atomic.Int64
	var clientWg sync.WaitGroup
	for c := 0; c < clients; c++ {
		share := ops / clients
		if c < ops%clients {
			share++
		}
		clientWg.Add(1)
		go func(c, share int) {
			defer clientWg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 1))
			for done := 0; done < share; {
				n := min(window, share-done)
				var wg sync.WaitGroup
				wg.Add(n)
				for i := 0; i < n; i++ {
					key := fmt.Sprintf("k%d", (c+done+i)%keys)
					opCtx, opCancel := ctx, context.CancelFunc(nil)
					if cancelFrac > 0 && rng.Float64() < cancelFrac {
						opCtx, opCancel = context.WithCancel(ctx)
					}
					f := tbl.Submit(opCtx, key, params)
					if opCancel != nil {
						opCancel() // mid-flight: the op is batched or on the wire
					}
					go func() {
						defer wg.Done()
						_, err := f.WaitErr()
						var le *live.Error
						switch {
						case err == nil:
							completed.Add(1)
						case errors.As(err, &le) && le.Code == live.CodeCanceled:
							canceled.Add(1)
						default:
							failed.Add(1)
						}
					}()
				}
				wg.Wait()
				done += n
			}
		}(c, share)
	}
	clientWg.Wait()
	elapsed := time.Since(start)
	if n := failed.Load(); n > 0 {
		log.Printf("live bench: %d/%d ops failed with typed errors", n, ops)
	}
	var serverSkips int64
	for _, s := range servers {
		serverSkips += s.ExecCanceled.Load()
	}

	fmt.Fprintf(out, "%12s %12.0f %10d %10d %10d %12d\n",
		elapsed.Round(time.Millisecond), float64(ops)/elapsed.Seconds(),
		completed.Load(), canceled.Load(), failed.Load(), serverSkips)
	size, waiter, completion, timer := e.SizeFlushes.Load(), e.WaiterFlushes.Load(), e.CompletionFlushes.Load(), e.TimerFlushes.Load()
	batches := size + waiter + completion + timer
	fmt.Fprintf(out, "\n%d wire batches (%.1f ops each) left their accumulator because: batch full %d, caller blocked on an idle link %d, batch returned with a caller blocked %d, max wait expired %d\n",
		batches, float64(completed.Load())/float64(max(batches, 1)), size, waiter, completion, timer)
	return nil
}
