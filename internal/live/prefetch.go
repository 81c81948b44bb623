package live

import (
	"context"
	"sync"
)

// Prefetcher is the handle the Section 7 engines hand to their preMap and
// map functions (the MapReduce/Muppet prefetcher and the RDD API's "async"
// object): Submit issues an asynchronous request for f(key, params) against
// a stored table (submitComp in Figure 10); the map side later calls Fetch
// (fetchComp), which blocks only if the result has not arrived yet.
type Prefetcher struct {
	ctx  context.Context // the job's request scope
	exec *Executor
	rm   *ResultMap
}

// NewPrefetcher returns a prefetcher over exec. Every request is submitted
// under ctx (nil means context.Background()): canceling it abandons the
// in-flight prefetches with typed errors instead of letting abandoned tuples
// consume data-node CPU.
func NewPrefetcher(ctx context.Context, exec *Executor) *Prefetcher {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Prefetcher{ctx: ctx, exec: exec, rm: NewResultMap()}
}

// Submit prefetches f(key, params) on table.
func (p *Prefetcher) Submit(table, key string, params []byte) {
	p.rm.Put(table, key, params, p.exec.Table(table).Submit(p.ctx, key, params))
}

// Fetch returns the prefetched result for (table, key, params); if it was
// never submitted, Fetch issues the request synchronously (the code still
// works without prefetching, just slower — as in the paper's API). A failed
// or canceled request yields nil, like a missing key; jobs that need the
// distinction should check the client's Stats.
func (p *Prefetcher) Fetch(table, key string, params []byte) []byte {
	if f := p.rm.Take(table, key, params); f != nil {
		v, _ := f.WaitCtx(p.ctx)
		return v
	}
	v, _ := p.exec.Table(table).Call(p.ctx, key, params)
	return v
}

// ResultMap implements the paper's Result HashMap (Figure 4): preMap
// submits, map fetches by (key, params) in FIFO order per key.
type ResultMap struct {
	mu   sync.Mutex
	futs map[string][]*Future
}

// NewResultMap returns an empty result map.
func NewResultMap() *ResultMap {
	return &ResultMap{futs: make(map[string][]*Future)}
}

func rmKey(table, key string, params []byte) string {
	return table + "\x00" + key + "\x00" + string(params)
}

// Put registers a submitted future.
func (r *ResultMap) Put(table, key string, params []byte, f *Future) {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := rmKey(table, key, params)
	r.futs[k] = append(r.futs[k], f)
}

// Take removes and returns the oldest future for (table, key, params), or
// nil if none was submitted.
func (r *ResultMap) Take(table, key string, params []byte) *Future {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := rmKey(table, key, params)
	fs := r.futs[k]
	if len(fs) == 0 {
		return nil
	}
	f := fs[0]
	if len(fs) == 1 {
		delete(r.futs, k)
	} else {
		r.futs[k] = fs[1:]
	}
	return f
}
