package live

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/core"
	"joinopt/internal/store"
)

// BenchmarkLiveExecThroughputParallel measures how the Submit routing path
// scales with cores (run with -cpu 1,4,8). The workload is cache-hot: the
// Caching policy with a compute-heavy cost profile (small stored values, a
// UDF that expands them 64x, constrained NetBw) drives every key across the
// ski-rental buy threshold during warm-up, so the measured loop is
// dominated by Algorithm 1 routing + local compute — the path the old
// global executor mutex serialized.
//
// Sub-benchmarks:
//
//	global   Shards=1, the pre-sharding single-mutex behaviour
//	sharded  Shards=GOMAXPROCS (the default)
//
// ns/op is per completed join. localhits/op close to 1 confirms both
// variants ran the same cache-hot workload.
func BenchmarkLiveExecThroughputParallel(b *testing.B) {
	for _, v := range []struct {
		name   string
		shards int
	}{
		{"global", 1},
		{"sharded", 0}, // 0 = GOMAXPROCS at construction time
	} {
		b.Run(v.name, func(b *testing.B) {
			reg := NewRegistry()
			// Expand the 64-byte stored value 16x: remote computation has
			// to ship 1 KiB back per op, local cached computation doesn't,
			// so bought keys are strongly preferred (rent >> recurring)
			// while the local UDF stays cheap enough that routing is a
			// meaningful share of each op.
			reg.Register("expand", func(key string, params, value []byte) []byte {
				return bytes.Repeat(value, 16)
			})

			const keys = 256
			ids := []cluster.NodeID{0}
			catalog := store.CatalogFunc(func(string) store.RowMeta {
				return store.RowMeta{ValueSize: 64}
			})
			table := store.NewTable("t", catalog, 1, ids)
			rows := make(map[string][]byte, keys)
			keyNames := make([]string, keys)
			val := bytes.Repeat([]byte("x"), 64)
			for i := 0; i < keys; i++ {
				keyNames[i] = fmt.Sprintf("k%d", i)
				rows[keyNames[i]] = val
			}

			srv := NewServer(reg, false)
			srv.AddTable(TableSpec{Name: "t", UDF: "expand", Rows: rows})
			addr, err := srv.Serve("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()

			e, err := NewExecutor(ExecConfig{
				Tables:    map[string]*store.Table{"t": table},
				Addrs:     map[cluster.NodeID]string{0: addr},
				Registry:  reg,
				TableUDF:  map[string]string{"t": "expand"},
				Optimizer: core.Config{Policy: core.Policy{Caching: true}, MemCacheBytes: 64 << 20},
				BatchWait: 500 * time.Microsecond,
				Workers:   64,
				NetBw:     1e8, // shipping the 1 KiB computed value is the expensive part
				Shards:    v.shards,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()

			// Warm up until the hot path is local: every key crosses the
			// buy threshold within a few rounds.
			params := []byte("p")
			tbl, ctx := e.Table("t"), context.Background()
			for round := 0; round < 12; round++ {
				for _, k := range keyNames {
					if _, err := tbl.Call(ctx, k, params); err != nil {
						b.Fatal(err)
					}
				}
			}
			warmHits := e.LocalHits.Load()

			b.ReportAllocs()
			b.ResetTimer()
			var next atomic.Uint64
			b.RunParallel(func(pb *testing.PB) {
				// Each goroutine walks its own slice of the key ring.
				i := int(next.Add(1)) * 7919
				for pb.Next() {
					if _, err := tbl.Submit(ctx, keyNames[i%keys], params).WaitErr(); err != nil {
						b.Error(err)
					}
					i++
				}
			})
			b.StopTimer()
			hits := e.LocalHits.Load() - warmHits
			b.ReportMetric(float64(hits)/float64(b.N), "localhits/op")
		})
	}
}
