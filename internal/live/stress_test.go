package live

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/core"
	"joinopt/internal/store"
)

// TestParallelSubmitStressOracle is the sharded executor's race court: many
// goroutines Submit against ONE executor (so they contend on the shard
// locks, not on separate clients) while a writer pushes OpPut invalidations
// through the servers. It asserts, under -race:
//
//   - every result is the join of the caller's params with some value the
//     key has actually held (the single-threaded writer history oracle);
//   - error outcomes are typed and accounted: a healthy cluster produces
//     none, and any that do appear must be *Error values counted in Failed;
//   - the routing counters account for every op exactly once:
//     LocalHits + RemoteComputed + RemoteRaw + FetchServed + Failed == ops.
func TestParallelSubmitStressOracle(t *testing.T) {
	const (
		nodes      = 3
		keys       = 80
		submitters = 8
		opsPer     = 400
		puts       = 120
	)

	reg := NewRegistry()
	reg.Register("join", func(key string, params, value []byte) []byte {
		out := append([]byte{}, value...)
		out = append(out, '/')
		return append(out, params...)
	})

	ids := make([]cluster.NodeID, nodes)
	for i := range ids {
		ids[i] = cluster.NodeID(i)
	}
	catalog := store.CatalogFunc(func(string) store.RowMeta {
		return store.RowMeta{ValueSize: 32}
	})
	table := store.NewTable("t", catalog, 2, ids)

	history := make(map[string][][]byte, keys)
	var historyMu sync.RWMutex

	shards := make([]map[string][]byte, nodes)
	for i := range shards {
		shards[i] = make(map[string][]byte)
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%d", i)
		v := []byte(fmt.Sprintf("v0-%s", k))
		shards[table.Locate(k)][k] = v
		history[k] = [][]byte{v}
	}

	addrs := make(map[cluster.NodeID]string)
	for i := 0; i < nodes; i++ {
		s := NewServer(reg, true)
		s.AddTable(TableSpec{Name: "t", UDF: "join", Rows: shards[i]})
		addr, err := s.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
		addrs[cluster.NodeID(i)] = addr
		t.Cleanup(s.Close)
	}

	// One executor, explicitly sharded (more shards than GOMAXPROCS on a
	// small CI box, so cross-shard interleavings are exercised regardless
	// of the host's core count).
	e, err := NewExecutor(ExecConfig{
		Tables:    map[string]*store.Table{"t": table},
		Addrs:     addrs,
		Registry:  reg,
		TableUDF:  map[string]string{"t": "join"},
		Optimizer: core.Config{Policy: core.Policy{Caching: true}, MemCacheBytes: 1 << 20},
		BatchWait: time.Millisecond,
		Shards:    4,
		Workers:   16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Single writer thread: the only mutator, so the history it records is
	// a total order per key.
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		rng := rand.New(rand.NewSource(11))
		pools := make(map[cluster.NodeID]*Pool)
		for id, addr := range addrs {
			p, err := DialPool(addr, 1, nil)
			if err != nil {
				t.Errorf("writer dial: %v", err)
				return
			}
			defer p.Close()
			pools[id] = p
		}
		for i := 0; i < puts; i++ {
			k := fmt.Sprintf("k%d", rng.Intn(keys))
			v := []byte(fmt.Sprintf("v%d-%s", i+1, k))
			historyMu.Lock()
			history[k] = append(history[k], v)
			historyMu.Unlock()
			if _, err := pools[table.Locate(k)].Call(Request{
				Op: OpPut, Table: "t", Keys: []string{k}, Params: [][]byte{v},
			}); err != nil {
				t.Errorf("put %s: %v", k, err)
				return
			}
			time.Sleep(250 * time.Microsecond)
		}
	}()

	matches := func(key string, params, result []byte) bool {
		if !bytes.HasSuffix(result, append([]byte{'/'}, params...)) {
			return false
		}
		prefix := result[:len(result)-len(params)-1]
		historyMu.RLock()
		defer historyMu.RUnlock()
		for _, v := range history[key] {
			if bytes.Equal(prefix, v) {
				return true
			}
		}
		return false
	}

	var errsSeen atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < submitters; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			type sub struct {
				key    string
				params []byte
				fut    *Future
			}
			var subs []sub
			for i := 0; i < opsPer; i++ {
				k := fmt.Sprintf("k%d", rng.Intn(keys))
				p := []byte(fmt.Sprintf("g%d-%d", c, i))
				subs = append(subs, sub{k, p, e.Table("t").Submit(context.Background(), k, p)})
			}
			for _, s := range subs {
				got, err := s.fut.WaitErr()
				if err != nil {
					// A healthy loopback cluster must not fail requests;
					// if one does, it must at least be a typed error that
					// the Failed counter (checked below) accounts for.
					errsSeen.Add(1)
					var le *Error
					if !errors.As(err, &le) {
						t.Errorf("goroutine %d: untyped error for %s: %v", c, s.key, err)
					}
					t.Errorf("goroutine %d: unexpected failure for %s: %v", c, s.key, err)
					continue
				}
				if got == nil {
					t.Errorf("goroutine %d: nil result for %s", c, s.key)
					continue
				}
				if !matches(s.key, s.params, got) {
					t.Errorf("goroutine %d: result %q for key %s params %s matches no historical value",
						c, got, s.key, s.params)
				}
			}
		}(c)
	}
	wg.Wait()
	<-writerDone

	// Counter accounting: every op resolved through exactly one path,
	// including the (here: empty) error path.
	const ops = submitters * opsPer
	local := e.LocalHits.Load()
	computed := e.RemoteComputed.Load()
	raw := e.RemoteRaw.Load()
	fetchServed := e.FetchServed.Load()
	failed := e.Failed.Load()
	if sum := local + computed + raw + fetchServed + failed; sum != ops {
		t.Fatalf("counter accounting: LocalHits(%d)+RemoteComputed(%d)+RemoteRaw(%d)+FetchServed(%d)+Failed(%d) = %d, want %d ops",
			local, computed, raw, fetchServed, failed, sum, ops)
	}
	if failed != errsSeen.Load() {
		t.Fatalf("Failed counter %d, but callers observed %d errors", failed, errsSeen.Load())
	}
	// Wire fetches can never exceed the ops they served.
	if f := e.Fetches.Load(); f > fetchServed {
		t.Fatalf("Fetches(%d) > FetchServed(%d)", f, fetchServed)
	}
}
