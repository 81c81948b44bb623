package main

import (
	"bytes"
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

// liveBenchResult is one end-to-end measurement.
type liveBenchResult struct {
	Ops        int
	Elapsed    time.Duration
	OpsPerSec  float64
	Completed  int64
	Canceled   int64
	Failed     int64
	ServerSkip int64 // exec slots whose UDF the servers skipped on cancel
	// Wire batches by what made them leave their accumulator.
	SizeFlushes, WaiterFlushes, CompletionFlushes, TimerFlushes int64
}

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
	retries int, timeout time.Duration, cancelFrac float64) {
	if clients < 1 {
		clients = 1
	}

	fmt.Fprintf(out, "live plane throughput: %d ops, %d store nodes, %d client goroutines, batched OpExec\n",
		ops, nodes, clients)
	if cancelFrac > 0 {
		fmt.Fprintf(out, "canceling ~%.0f%% of in-flight ops via context\n", cancelFrac*100)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "%12s %12s %10s %10s %10s %12s\n",
		"elapsed", "ops/sec", "completed", "canceled", "failed", "udfs skipped")
	r := liveBenchOnce(ops, nodes, clients, shards, retries, timeout, cancelFrac)
	fmt.Fprintf(out, "%12s %12.0f %10d %10d %10d %12d\n",
		r.Elapsed.Round(time.Millisecond), r.OpsPerSec,
		r.Completed, r.Canceled, r.Failed, r.ServerSkip)
	batches := r.SizeFlushes + r.WaiterFlushes + r.CompletionFlushes + r.TimerFlushes
	fmt.Fprintf(out, "\n%d wire batches (%.1f ops each) left their accumulator because: batch full %d, caller blocked on an idle link %d, batch returned with a caller blocked %d, max wait expired %d\n",
		batches, float64(r.Completed)/float64(max(batches, 1)),
		r.SizeFlushes, r.WaiterFlushes, r.CompletionFlushes, r.TimerFlushes)
}

func liveBenchOnce(ops, nodes, clients, shards int,
	retries int, timeout time.Duration, cancelFrac float64) liveBenchResult {
	reg := live.NewRegistry()
	reg.Register("tag", func(key string, params, value []byte) []byte {
		out := append([]byte{}, value...)
		out = append(out, '#')
		return append(out, params...)
	})

	const keys = 512
	ids := make([]cluster.NodeID, nodes)
	for i := range ids {
		ids[i] = cluster.NodeID(i)
	}
	catalog := store.CatalogFunc(func(string) store.RowMeta {
		return store.RowMeta{ValueSize: 1024}
	})
	table := store.NewTable("t", catalog, 2, ids)

	nodeRows := make([]map[string][]byte, nodes)
	for i := range nodeRows {
		nodeRows[i] = make(map[string][]byte)
	}
	val := bytes.Repeat([]byte("x"), 1024)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%d", i)
		nodeRows[table.Locate(k)][k] = val
	}

	addrs := make(map[cluster.NodeID]string)
	var servers []*live.Server
	for i := 0; i < nodes; i++ {
		s := live.NewServer(reg, false)
		s.AddTable(live.TableSpec{Name: "t", UDF: "tag", Rows: nodeRows[i]})
		addr, err := s.Serve("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
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
		log.Fatal(err)
	}
	defer e.Close()

	// Resolve the table handle once, submit under contexts.
	ctx := context.Background()
	tbl := e.Table("t")

	// One warm-up round trip per node takes dialing off the clock.
	for i := 0; i < keys; i += keys / 8 {
		if _, err := tbl.Call(ctx, fmt.Sprintf("k%d", i), []byte("warm")); err != nil {
			log.Fatalf("warm-up: %v", err)
		}
	}

	// Each client goroutine pushes its slice of the ops through the shared
	// executor in pipelined waves, so total in-flight stays ~512 regardless
	// of the client count. With cancelFrac > 0, that fraction of ops is
	// submitted under a cancellable context that is canceled right after
	// submission — while the op sits in a batch accumulator or rides the
	// wire — exercising the full abandonment path under load.
	window := 512 / clients
	if window < 1 {
		window = 1
	}
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
	return liveBenchResult{
		Ops:        ops,
		Elapsed:    elapsed,
		OpsPerSec:  float64(ops) / elapsed.Seconds(),
		Completed:  completed.Load(),
		Canceled:   canceled.Load(),
		Failed:     failed.Load(),
		ServerSkip: serverSkips,

		SizeFlushes:       e.SizeFlushes.Load(),
		WaiterFlushes:     e.WaiterFlushes.Load(),
		CompletionFlushes: e.CompletionFlushes.Load(),
		TimerFlushes:      e.TimerFlushes.Load(),
	}
}
