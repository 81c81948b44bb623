package live

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/core"
	"joinopt/internal/loadbalance"
	"joinopt/internal/store"
)

// benchRequest is a representative OpExec batch: 64 keys with small params
// and a full stats snapshot, the shape the executor ships on the hot path.
func benchRequest() *Request {
	req := &Request{ID: 12345, Op: OpExec, Table: "orders"}
	for i := 0; i < 64; i++ {
		req.Keys = append(req.Keys, fmt.Sprintf("key-%08d", i))
		req.Params = append(req.Params, []byte(fmt.Sprintf("param-%d", i)))
	}
	req.Stats = loadbalance.ComputeStats{
		PendingLocal: 3, OutstandingOther: 17, TCC: 2e-4, NetBw: 1e9,
	}
	return req
}

// benchResponse mirrors benchRequest's batch with 1 KiB values.
func benchResponse() *Response {
	resp := &Response{ID: 12345}
	val := bytes.Repeat([]byte("x"), 1024)
	for i := 0; i < 64; i++ {
		resp.Values = append(resp.Values, val)
		resp.Computed = append(resp.Computed, i%2 == 0)
		resp.Metas = append(resp.Metas, Meta{
			ValueSize: 1024, ComputedSize: 1024, ComputeCost: 1e-4, Version: int64(i),
		})
	}
	return resp
}

func BenchmarkEncodeRequest(b *testing.B) {
	req := benchRequest()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = appendRequest(buf[:0], req)
	}
	sinkLen = len(buf)
}

func BenchmarkEncodeResponse(b *testing.B) {
	resp := benchResponse()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = appendResponse(buf[:0], resp)
	}
	sinkLen = len(buf)
}

var sinkLen int

// BenchmarkDecodeResponse decodes one pre-encoded response frame: "fresh"
// into a new Response per message, "into" through the pooled read path,
// where a reused Response keeps its slice capacities and the steady state is
// allocation-free.
func BenchmarkDecodeResponse(b *testing.B) {
	payload := appendResponse(nil, benchResponse())
	b.Run("fresh", func(b *testing.B) {
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeResponse(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("into", func(b *testing.B) {
		b.SetBytes(int64(len(payload)))
		var into Response
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := decodeResponseInto(payload, &into); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchTable starts a real TCP server over 256 keys x 1 KiB and a real
// executor with the AlwaysCompute policy, so every submission crosses the wire
// in an OpExec batch, and warms one round trip so the dials are off the clock.
// batchWait 0 is the executor's default.
func benchTable(b *testing.B, batchWait time.Duration) *Table {
	reg := NewRegistry()
	reg.Register("tag", func(key string, params, value []byte) []byte {
		out := append([]byte{}, value...)
		out = append(out, '#')
		return append(out, params...)
	})

	ids := []cluster.NodeID{0}
	catalog := store.CatalogFunc(func(string) store.RowMeta {
		return store.RowMeta{ValueSize: 1024}
	})
	table := store.NewTable("t", catalog, 1, ids)
	rows := make(map[string][]byte, benchKeys)
	val := bytes.Repeat([]byte("x"), 1024)
	for i := 0; i < benchKeys; i++ {
		rows[fmt.Sprintf("k%d", i)] = val
	}

	srv := NewServer(reg, false)
	srv.AddTable(TableSpec{Name: "t", UDF: "tag", Rows: rows})
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)

	e, err := NewExecutor(ExecConfig{
		Tables:    map[string]*store.Table{"t": table},
		Addrs:     map[cluster.NodeID]string{0: addr},
		Registry:  reg,
		TableUDF:  map[string]string{"t": "tag"},
		Optimizer: core.Config{Policy: core.Policy{AlwaysCompute: true}},
		BatchWait: batchWait,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(e.Close)
	tbl := e.Table("t")
	if _, err := tbl.Call(context.Background(), "k0", []byte("w")); err != nil {
		b.Fatal(err)
	}
	return tbl
}

const benchKeys = 256

// BenchmarkLiveExecThroughput is the end-to-end number: ns/op is per
// completed join invocation, 512 in flight.
func BenchmarkLiveExecThroughput(b *testing.B) {
	tbl, ctx := benchTable(b, 500*time.Microsecond), context.Background()

	const window = 512 // in-flight submissions per wave
	params := []byte("p-bench")
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for done < b.N {
		n := b.N - done
		if n > window {
			n = window
		}
		var wg sync.WaitGroup
		wg.Add(n)
		for i := 0; i < n; i++ {
			f := tbl.Submit(ctx, fmt.Sprintf("k%d", (done+i)%benchKeys), params)
			go func() {
				defer wg.Done()
				if _, err := f.WaitErr(); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
		done += n
	}
}

// BenchmarkLoneCallLatency is what one caller with nothing else in flight
// waits for a synchronous Table.Call under the default ExecConfig: a wire
// round trip, because its wait ships its own batch of one — not BatchWait.
func BenchmarkLoneCallLatency(b *testing.B) {
	tbl, ctx := benchTable(b, 0), context.Background()
	params := []byte("p-bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.Call(ctx, fmt.Sprintf("k%d", i%benchKeys), params); err != nil {
			b.Fatal(err)
		}
	}
}
