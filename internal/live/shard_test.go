package live

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"joinopt/internal/core"
)

// TestFutureWaitConcurrent hammers one Future from many goroutines plus
// repeated calls from the same goroutine; under -race this is the regression
// test for the old racy f.ok/f.out fast path.
func TestFutureWaitConcurrent(t *testing.T) {
	f := newFuture()
	want := []byte("result-bytes")
	go func() {
		time.Sleep(time.Millisecond)
		f.resolve(want)
	}()

	const waiters = 64
	results := make([][]byte, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got := mustWait(t, f)
			// Repeated Wait from the same goroutine must return the
			// identical slice.
			if again := mustWait(t, f); !bytes.Equal(again, got) {
				t.Errorf("repeated Wait diverged: %q then %q", got, again)
			}
			results[i] = got
		}(i)
	}
	wg.Wait()
	for i, got := range results {
		if !bytes.Equal(got, want) {
			t.Fatalf("waiter %d got %q, want %q", i, got, want)
		}
	}
}

// TestShardForStableAndSpread checks the shard hash: the same (table, key)
// always lands on the same shard, table and key both participate, and a
// realistic key population spreads over all shards.
func TestShardForStableAndSpread(t *testing.T) {
	cfg, _ := testCluster(t, 1, 4, "upper", upperUDF, false)
	cfg.Shards = 8
	e, err := NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Shards() != 8 {
		t.Fatalf("Shards() = %d, want 8", e.Shards())
	}

	hit := make(map[*execShard]int)
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key-%d", i)
		s1 := e.shardFor("t", k)
		s2 := e.shardFor("t", k)
		if s1 != s2 {
			t.Fatalf("shardFor not stable for %q", k)
		}
		hit[s1]++
	}
	if len(hit) != 8 {
		t.Fatalf("1000 keys spread over %d of 8 shards", len(hit))
	}
	// Table participates in the hash: moving the split point between table
	// and key must change the placement for at least some inputs.
	diff := 0
	for i := 0; i < 100; i++ {
		suffix := fmt.Sprintf("%d", i)
		if e.shardFor("t", "x"+suffix) != e.shardFor("tx", suffix) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("table/key boundary does not affect the shard hash")
	}
}

// TestFlushMergesShardAccumulators pins the two-level batching contract:
// accumulation is per shard (no cross-shard locking on the Submit path) but
// one flush merges every shard's pending accumulator for the same
// (table, node, op) into a single wire batch. With timers parked an hour
// out, flushing ONE shard must resolve entries enqueued on ALL shards —
// without the merge, the other shards' futures would hang until their own
// timers fired.
func TestFlushMergesShardAccumulators(t *testing.T) {
	cfg, _ := testCluster(t, 1, 64, "upper", upperUDF, false)
	cfg.Shards = 8
	cfg.BatchWait = time.Hour // only explicit flushes send anything
	e, err := NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const ops = 40
	node := cfg.Tables["t"].Locate("k0")
	bk := liveBatchKey{t: e.Table("t"), node: node, op: OpExec}
	futs := make([]*Future, ops)
	shardsUsed := make(map[*execShard]bool)
	for i := 0; i < ops; i++ {
		k := fmt.Sprintf("k%d", i)
		if cfg.Tables["t"].Locate(k) != node {
			t.Fatalf("single-node cluster located %s elsewhere", k)
		}
		sh := e.shardFor("t", k)
		shardsUsed[sh] = true
		futs[i] = newFuture()
		sh.mu.Lock()
		e.enqueue(sh, bk, liveEntry{key: k, params: []byte("p"), fut: futs[i]})
		sh.mu.Unlock()
	}
	if len(shardsUsed) < 2 {
		t.Fatalf("keys landed on %d shard(s); merge test needs several", len(shardsUsed))
	}

	// Flush exactly one shard that holds a pending batch.
	for sh := range shardsUsed {
		sh.mu.Lock()
		if b := sh.batches[bk]; b != nil {
			e.flushLocked(sh, bk, b)
		}
		sh.mu.Unlock()
		break
	}

	done := make(chan int, ops)
	for i, f := range futs {
		go func(i int, f *Future) {
			if got := mustWait(t, f); got != nil {
				done <- i
			}
		}(i, f)
	}
	deadline := time.After(5 * time.Second)
	for n := 0; n < ops; n++ {
		select {
		case <-done:
		case <-deadline:
			t.Fatalf("only %d/%d entries resolved from one flush; shard accumulators were not merged", n, ops)
		}
	}
}

// TestShardedEndToEnd runs the standard end-to-end join through an executor
// with many more shards than keys-per-shard, checking results stay correct
// when state is striped.
func TestShardedEndToEnd(t *testing.T) {
	cfg, _ := testCluster(t, 3, 100, "upper", upperUDF, true)
	cfg.Optimizer = core.Config{Policy: core.Policy{Caching: true}, MemCacheBytes: 1 << 20}
	cfg.Shards = 16
	e, err := NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	var futs []*Future
	var wants [][]byte
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("k%d", i%100)
		p := []byte(fmt.Sprintf("p%d", i))
		futs = append(futs, e.Table("t").Submit(context.Background(), k, p))
		wants = append(wants, []byte("value-of-"+k+"/"+string(p)))
	}
	for i, f := range futs {
		if got := mustWait(t, f); !bytes.Equal(got, wants[i]) {
			t.Fatalf("result %d = %q, want %q", i, got, wants[i])
		}
	}
}

// echoNode is a scripted node that answers every exec batch with its keys as
// computed values and reports each batch's size on sizes.
func echoNode(t *testing.T, sizes chan<- int) *fakeNode {
	return newFakeNode(t, func(req Request) *Response {
		resp := &Response{}
		for _, k := range req.Keys {
			resp.Values = append(resp.Values, []byte(k))
			resp.Computed = append(resp.Computed, true)
			resp.Metas = append(resp.Metas, Meta{ValueSize: 1, ComputedSize: 1, Version: 1})
		}
		sizes <- len(req.Keys)
		return resp
	})
}

// TestSizeTriggerCountsAcrossShards pins the size-triggered flush against
// shard striping: with the max-wait timer an hour out, exactly BatchSize
// submissions bound for one node must ship as one full wire batch the moment
// the last one lands, however their keys hash across the shards. Counting
// per shard accumulator left every shard short of the limit, and the batch
// sat out BatchWait.
func TestSizeTriggerCountsAcrossShards(t *testing.T) {
	const batch = 32
	sizes := make(chan int, 8) // more than the batches this test can ship
	e := singleNodeExec(t, echoNode(t, sizes).addr(), func(cfg *ExecConfig) {
		cfg.Optimizer = core.Config{Policy: core.Policy{AlwaysCompute: true}}
		cfg.Shards = 4
		cfg.BatchSize = batch
		cfg.BatchWait = time.Hour
	})
	tbl := e.Table("t")
	for round := 0; round < 2; round++ { // the second round reuses retired count records
		futs := make([]*Future, batch)
		used := make(map[*execShard]bool)
		for i := range futs {
			if i == batch-1 && len(sizes) != 0 {
				t.Fatalf("round %d: a wire batch shipped before the %dth submission", round, batch)
			}
			k := fmt.Sprintf("k%d", round*batch+i)
			used[e.shardFor("t", k)] = true
			futs[i] = tbl.Submit(context.Background(), k, nil)
		}
		if len(used) < 2 {
			t.Fatalf("keys landed on %d shard(s); the test needs several", len(used))
		}
		for i, f := range futs {
			if _, err := waitOrHang(t, f, 5*time.Second); err != nil {
				t.Fatalf("round %d op %d: %v (a full batch waited for the timer)", round, i, err)
			}
		}
		if got := <-sizes; got != batch {
			t.Fatalf("round %d: wire batch of %d keys, want %d", round, got, batch)
		}
	}
	if len(sizes) != 0 || len(e.dests) != 0 {
		t.Fatalf("%d extra wire batches, %d live count records after both rounds drained", len(sizes), len(e.dests))
	}
}

// TestSweepCapsWireBatchAtLimit: when backpressure has shrunk a node's batch
// target below what the shards hold, a flush ships exactly the target and
// leaves the rest parked, still counted, for the next trigger.
func TestSweepCapsWireBatchAtLimit(t *testing.T) {
	sizes := make(chan int, 8)
	e := singleNodeExec(t, echoNode(t, sizes).addr(), func(cfg *ExecConfig) {
		cfg.Optimizer = core.Config{Policy: core.Policy{AlwaysCompute: true}}
		cfg.Shards = 2
		cfg.BatchWait = time.Hour
	})
	tbl := e.Table("t")
	// Park 3 keys on one shard and 10 on the other (default target 64).
	var keys [2][]string
	for i := 0; len(keys[0]) < 4 || len(keys[1]) < 10; i++ {
		k := fmt.Sprintf("k%d", i)
		idx := e.shardIdx(tbl.seed, k)
		keys[idx] = append(keys[idx], k)
	}
	var futs []*Future
	for _, k := range append(append([]string{}, keys[0][:3]...), keys[1][:10]...) {
		futs = append(futs, tbl.Submit(context.Background(), k, nil))
	}
	e.nodes.Load().targets[0].Store(8)
	futs = append(futs, tbl.Submit(context.Background(), keys[0][3], nil)) // 14 pending >= 8
	if got := <-sizes; got != 8 {
		t.Fatalf("first wire batch carried %d keys, want the target of 8", got)
	}
	if n := len(e.shards[1].batches); n != 1 {
		t.Fatalf("partly swept shard holds %d accumulators, want 1 with the remainder", n)
	}
	futs = append(futs, tbl.Submit(context.Background(), keys[1][0], nil), // 6 left + 2 = 8
		tbl.Submit(context.Background(), keys[0][0], nil))
	if got := <-sizes; got != 8 {
		t.Fatalf("second wire batch carried %d keys, want 8", got)
	}
	for i, f := range futs {
		if _, err := waitOrHang(t, f, 5*time.Second); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	invariantSum(t, e, int64(len(futs)))
}
