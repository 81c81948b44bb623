package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/core"
	"joinopt/internal/live"
	"joinopt/internal/store"
)

// runLiveOverload is the -liverate scenario: an open-loop overload drill.
// One store node is deliberately capacity-bounded (a UDF that sleeps, two
// exec workers — so two UDFs in flight at most, whatever the host's core
// count — and a small bounded exec queue), then ops join invocations
// arrive at a fixed rate ops/sec regardless of completions — the open-loop
// shape that turns an overloaded closed-loop slowdown into an unbounded
// queue unless the server sheds. Every eighth op is PriorityHigh, the rest
// PriorityLow, so the report also shows the weighted-fair split.
//
// The drill passes when every op resolves promptly as either served or a
// typed CodeOverloaded shed: it fails if any op fails with an opaque timeout
// (the failure mode bounded queues exist to eliminate), fails any other
// way, or if the run hangs. The report prints the served/shed split per
// priority and p50/p99 latency of the served ops, which stays bounded by
// queue depth x service time no matter how far the arrival rate exceeds
// capacity.
func runLiveOverload(out io.Writer, rate, ops int) error {
	if rate < 1 {
		return fmt.Errorf("-liverate needs a positive arrival rate, got %d", rate)
	}

	const (
		keys        = 128
		udfDelay    = 500 * time.Microsecond
		execWorkers = 2
		execQueue   = 64
	)
	capacity := float64(execWorkers) / udfDelay.Seconds()

	reg := live.NewRegistry()
	reg.Register("slow", func(key string, params, value []byte) []byte {
		time.Sleep(udfDelay) // the capacity bound: ExecWorkers UDFs at once, so ~execWorkers/udfDelay ops/sec
		return tag(key, params, value)
	})

	table := tableT(1024, 2, 1)

	rows := kbRows(1, keys, func(string) []cluster.NodeID { return []cluster.NodeID{0} })[0]

	srv := live.NewServer(reg, false)
	srv.AddTable(live.TableSpec{Name: "t", UDF: "slow", Rows: rows})
	srv.SetAdmission(live.AdmissionConfig{
		ExecQueue: execQueue, ExecWorkers: execWorkers,
		PutQueue: 64, PutWorkers: 1,
		FetchQueue: 64, FetchWorkers: 1,
	})
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()

	e, err := live.NewExecutor(live.ExecConfig{
		Tables:    map[string]*store.Table{"t": table},
		Addrs:     map[cluster.NodeID]string{0: addr},
		Registry:  reg,
		TableUDF:  map[string]string{"t": "slow"},
		Optimizer: core.Config{Policy: core.Policy{AlwaysCompute: true}},
		BatchWait: 200 * time.Microsecond,
		BatchSize: 1, // one op per frame: admission sees the true arrival rate
		// No client-side retries: each arrival resolves exactly once, so the
		// report's served/shed split is the server's admission decision, not
		// the retry loop's eventual outcome.
		MaxRetries:     -1,
		RequestTimeout: 10 * time.Second,
	})
	if err != nil {
		return err
	}
	defer e.Close()

	ctx := context.Background()
	tbl := e.Table("t")
	if _, err := tbl.Call(ctx, "k0", []byte("warm")); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	fmt.Fprintf(out, "open-loop overload drill: %d ops arriving at %d/sec against ~%.0f ops/sec capacity (%.1fx)\n",
		ops, rate, capacity, float64(rate)/capacity)
	fmt.Fprintf(out, "admission: exec queue %d, %d workers, udf %v; client retries disabled\n\n",
		execQueue, execWorkers, udfDelay)

	const low, high = 0, 1 // priority classes, indexing servedBy and shedBy
	var (
		servedBy, shedBy [2]atomic.Int64
		timeouts, failed atomic.Int64
		mu               sync.Mutex
		latencies        []time.Duration
	)
	params := []byte("p-overload")
	interval := time.Second / time.Duration(rate)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < ops; i++ {
		// Open loop: pace on absolute arrival times, never on completions.
		if sleep := start.Add(time.Duration(i) * interval).Sub(time.Now()); sleep > 0 {
			time.Sleep(sleep)
		}
		class, prio := low, live.PriorityLow
		if i%8 == 0 {
			class, prio = high, live.PriorityHigh
		}
		submitted := time.Now()
		f := tbl.Submit(ctx, fmt.Sprintf("k%d", i%keys), params, live.WithPriority(prio))
		wg.Add(1)
		go func(class int, submitted time.Time) {
			defer wg.Done()
			_, err := f.WaitErr()
			var le *live.Error
			switch {
			case err == nil:
				servedBy[class].Add(1)
				d := time.Since(submitted)
				mu.Lock()
				latencies = append(latencies, d)
				mu.Unlock()
			case errors.As(err, &le) && le.Code == live.CodeOverloaded:
				shedBy[class].Add(1)
			case errors.As(err, &le) && le.Code == live.CodeTimeout:
				timeouts.Add(1)
			default:
				failed.Add(1)
			}
		}(class, submitted)
	}

	// A bounded-queue server must resolve every op quickly: either into
	// service or into a typed shed. If the drill is still waiting long after
	// the last arrival, something hung — exactly the bug this protects against.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		f := failures{"ops still unresolved 30s after the last arrival — the overload path hung"}
		return f.verdict(out, "overload", "")
	}
	elapsed := time.Since(start)

	served := servedBy[high].Load() + servedBy[low].Load()
	shed := shedBy[high].Load() + shedBy[low].Load()
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) time.Duration {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)-1))
		return latencies[i]
	}

	fmt.Fprintf(out, "%-10s %10s %10s %10s\n", "class", "served", "shed", "shed%")
	row := func(name string, s, sh int64) {
		total := s + sh
		frac := 0.0
		if total > 0 {
			frac = float64(sh) / float64(total) * 100
		}
		fmt.Fprintf(out, "%-10s %10d %10d %9.1f%%\n", name, s, sh, frac)
	}
	row("high", servedBy[high].Load(), shedBy[high].Load())
	row("low", servedBy[low].Load(), shedBy[low].Load())
	row("all", served, shed)
	fmt.Fprintf(out, "\nserved latency: p50 %v  p99 %v  max %v\n",
		pct(0.50).Round(10*time.Microsecond), pct(0.99).Round(10*time.Microsecond), pct(1.0).Round(10*time.Microsecond))
	fmt.Fprintf(out, "elapsed %v, served throughput %.0f ops/sec, server sheds %d\n",
		elapsed.Round(time.Millisecond), float64(served)/elapsed.Seconds(), srv.Shed.Load())

	var f failures
	f.check(timeouts.Load() > 0, "%d ops died with opaque timeouts — overload must shed with CodeOverloaded, not time out", timeouts.Load())
	f.check(failed.Load() > 0, "%d ops failed with neither success nor a typed shed", failed.Load())
	f.check(served == 0, "no op was served — the server shed everything, including work it had capacity for")
	f.check(shed == 0 && float64(rate) > capacity*1.5, "arrival rate far exceeds capacity yet nothing was shed — the queue is not bounded")
	f.check(e.Shed.Load() != shed, "executor Stats.Shed %d != observed sheds %d", e.Shed.Load(), shed)
	return f.verdict(out, "overload", "every op resolved as served or a typed shed; no opaque timeouts")
}
