package live

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/core"
	"joinopt/internal/store"
)

// TestLiveConcurrentJoinMatchesOracle runs a multi-client join against 3
// servers while a single writer thread issues OpPut invalidations, and
// checks every observed result against a single-threaded oracle.
//
// The oracle is the writer's sequential history: for each key, the ordered
// list of values it has held (the seed value plus every put). Reads race
// with writes and caches serve slightly stale data between invalidation
// pushes, so a correct system may return the UDF applied to ANY historical
// value of the key — but never a value from another key, a torn frame, a
// cross-matched response, or params belonging to a different submission.
// Run under -race (the CI does) to make this the transport's race court.
func TestLiveConcurrentJoinMatchesOracle(t *testing.T) {
	const (
		nodes   = 3
		keys    = 60
		clients = 4
		opsPer  = 400
		puts    = 150
	)

	reg := NewRegistry()
	// The join UDF tags the stored value with the caller's params so the
	// checker can verify both halves of every result.
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

	// Oracle seed state: key -> every value it has ever held.
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

	// Single writer thread: the only mutator, so the history it records is
	// a total order per key.
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		rng := rand.New(rand.NewSource(7))
		pools := make(map[cluster.NodeID]*Pool)
		for id, addr := range addrs {
			p, err := DialPool(addr, 2, nil)
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
			// Record before sending: any reader that observes the new value
			// must already find it in the oracle.
			historyMu.Lock()
			history[k] = append(history[k], v)
			historyMu.Unlock()
			if _, err := pools[table.Locate(k)].Call(Request{
				Op: OpPut, Table: "t", Keys: []string{k}, Params: [][]byte{v},
			}); err != nil {
				t.Errorf("put %s: %v", k, err)
				return
			}
			time.Sleep(200 * time.Microsecond) // let reads interleave
		}
	}()

	// matches reports whether result is the join of params with one of the
	// key's historical values.
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

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			e, err := NewExecutor(ExecConfig{
				Tables:    map[string]*store.Table{"t": table},
				Addrs:     addrs,
				Registry:  reg,
				TableUDF:  map[string]string{"t": "join"},
				Optimizer: core.Config{Policy: core.Policy{Caching: true}, MemCacheBytes: 1 << 20},
				BatchWait: time.Millisecond,
			})
			if err != nil {
				t.Errorf("client %d: %v", c, err)
				return
			}
			defer e.Close()

			rng := rand.New(rand.NewSource(int64(c)))
			type sub struct {
				key    string
				params []byte
				fut    *Future
			}
			var subs []sub
			for i := 0; i < opsPer; i++ {
				k := fmt.Sprintf("k%d", rng.Intn(keys))
				p := []byte(fmt.Sprintf("c%d-%d", c, i))
				subs = append(subs, sub{k, p, e.Table("t").Submit(context.Background(), k, p)})
			}
			for _, s := range subs {
				got := mustWait(t, s.fut)
				if got == nil {
					t.Errorf("client %d: nil result for %s", c, s.key)
					continue
				}
				if !matches(s.key, s.params, got) {
					t.Errorf("client %d: result %q for key %s params %s matches no historical value",
						c, got, s.key, s.params)
				}
			}
		}(c)
	}
	wg.Wait()
	<-writerDone

	// Quiesce, then verify convergence: with invalidations delivered, a
	// fresh read of every key must return the join of its LATEST value.
	time.Sleep(50 * time.Millisecond)
	e, err := NewExecutor(ExecConfig{
		Tables:    map[string]*store.Table{"t": table},
		Addrs:     addrs,
		Registry:  reg,
		TableUDF:  map[string]string{"t": "join"},
		Optimizer: core.Config{Policy: core.Policy{AlwaysFetch: true}},
		BatchWait: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%d", i)
		historyMu.RLock()
		latest := history[k][len(history[k])-1]
		historyMu.RUnlock()
		want := append(append(append([]byte{}, latest...), '/'), []byte("final")...)
		if got := mustWait(t, e.Table("t").Submit(context.Background(), k, []byte("final"))); !bytes.Equal(got, want) {
			t.Errorf("final read of %s = %q, want %q", k, got, want)
		}
	}
}
