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
		s1, _ := e.Table("t").shard(k)
		s2, _ := e.Table("t").shard(k)
		if s1 != s2 {
			t.Fatalf("shard not stable for %q", k)
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
		if e.shardIdx(tableSeed("t"), "x"+suffix) != e.shardIdx(tableSeed("tx"), suffix) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("table/key boundary does not affect the shard hash")
	}
}

// TestFlushMergesShardAccumulators pins batching against shard striping: a
// destination has one pending batch however its keys hash. With timers parked
// an hour out, ONE flush of the destination must resolve entries whose keys
// live on every shard — were accumulation striped by key, the other shards'
// futures would hang until their own timers fired.
func TestFlushMergesShardAccumulators(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		cfg, _ := testCluster(t, 1, 64, "upper", upperUDF, false)
		cfg.Optimizer = core.Config{Policy: core.Policy{AlwaysCompute: true}}
		cfg.Shards = shards
		cfg.BatchWait = time.Hour // only explicit flushes send anything
		e, err := NewExecutor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()

		const ops = 40
		bk := liveBatchKey{t: e.Table("t"), node: cfg.Tables["t"].Locate("k0"), op: OpExec}
		futs := make([]*Future, ops)
		shardsUsed := make(map[*execShard]bool)
		for i := range futs {
			k := fmt.Sprintf("k%d", i)
			sh, _ := e.Table("t").shard(k)
			shardsUsed[sh] = true
			futs[i] = e.Table("t").Submit(context.Background(), k, []byte("p"))
		}
		if len(shardsUsed) != min(shards, 4) {
			t.Fatalf("keys landed on %d of %d shards; the test needs them all", len(shardsUsed), shards)
		}
		if n := parked(e, bk); n != ops {
			t.Fatalf("destination holds %d parked entries, want all %d", n, ops)
		}
		flush(e, bk)
		for i, f := range futs {
			if v, err := waitOrHang(t, f, 5*time.Second); err != nil || v == nil {
				t.Fatalf("op %d after one flush: %q, %v", i, v, err)
			}
		}
		assertIdle(t, e)
	})
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
// the last one lands, however their keys hash across the shards — twice in a
// row, leaving nothing parked and no timer armed.
func TestSizeTriggerCountsAcrossShards(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		const batch = 32
		sizes := make(chan int, 8) // more than the batches this test can ship
		e := singleNodeExec(t, echoNode(t, sizes).addr(), func(cfg *ExecConfig) {
			cfg.Optimizer = core.Config{Policy: core.Policy{AlwaysCompute: true}}
			cfg.Shards = shards
			cfg.BatchSize = batch
			cfg.BatchWait = time.Hour
		})
		tbl := e.Table("t")
		for round := 0; round < 2; round++ {
			futs := make([]*Future, batch)
			for i := range futs {
				if i == batch-1 && len(sizes) != 0 {
					t.Fatalf("round %d: a wire batch shipped before the %dth submission", round, batch)
				}
				futs[i] = tbl.Submit(context.Background(), fmt.Sprintf("k%d", round*batch+i), nil)
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
		if len(sizes) != 0 {
			t.Fatalf("%d extra wire batches after both rounds drained", len(sizes))
		}
		assertIdle(t, e)
		invariantSum(t, e, 2*batch)
	})
}

// TestSweepCapsWireBatchAtLimit: when backpressure shrinks a node's batch
// target below what is already parked, the next trigger ships exactly the
// target — never more — and leaves the rest parked for the one after.
func TestSweepCapsWireBatchAtLimit(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		sizes := make(chan int, 8)
		e := singleNodeExec(t, echoNode(t, sizes).addr(), func(cfg *ExecConfig) {
			cfg.Optimizer = core.Config{Policy: core.Policy{AlwaysCompute: true}}
			cfg.Shards = shards
			cfg.BatchWait = time.Hour
		})
		tbl := e.Table("t")
		bk := liveBatchKey{t: tbl, node: 0, op: OpExec}
		var futs []*Future
		submit := func(n int) {
			for i := 0; i < n; i++ {
				futs = append(futs, tbl.Submit(context.Background(), fmt.Sprintf("k%d", len(futs)), nil))
			}
		}
		submit(13) // default target 64: all parked
		e.node(0).target.Store(8)
		submit(1) // 14 pending >= 8
		if got := <-sizes; got != 8 {
			t.Fatalf("first wire batch carried %d keys, want the target of 8", got)
		}
		if n := parked(e, bk); n != 6 {
			t.Fatalf("%d entries left parked, want the remainder of 6", n)
		}
		submit(2) // 6 left + 2 = 8
		if got := <-sizes; got != 8 {
			t.Fatalf("second wire batch carried %d keys, want 8", got)
		}
		for i, f := range futs {
			if _, err := waitOrHang(t, f, 5*time.Second); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		assertIdle(t, e)
		invariantSum(t, e, int64(len(futs)))
	})
}
