// Package mapreduce is a miniature in-process MapReduce engine whose API is
// extended with the paper's preMap hook (Section 7.1): a user-supplied
// preMap function consumes each input record first, issues prefetch
// requests against the parallel data store through a live executor, and the
// record is then queued for the ordinary map function, which collects the
// prefetched results without blocking on individual store round trips.
package mapreduce

import (
	"context"
	"sort"
	"sync"

	"joinopt/internal/live"
)

// Record is one map input.
type Record struct {
	Key   string
	Value []byte
}

// KV is one intermediate or output pair.
type KV struct {
	Key   string
	Value []byte
}

// Emitter collects pairs from map and reduce functions.
type Emitter interface {
	Emit(key string, value []byte)
}

// Prefetcher is the preMap-side handle: preMap calls Submit, map calls Fetch.
type Prefetcher = live.Prefetcher

// Job is a MapReduce job with the optional preMap extension.
type Job struct {
	Input []Record

	// PreMap (optional) runs in its own goroutine ahead of Map,
	// submitting prefetches (Section 7.1). It must not emit.
	PreMap func(r Record, pf *Prefetcher)

	// Map processes one record. The Prefetcher is shared with PreMap.
	Map func(r Record, pf *Prefetcher, out Emitter)

	// Reduce (optional) folds all values of one key. If nil the job is
	// map-only.
	Reduce func(key string, values [][]byte, out Emitter)

	// Mappers is the map-side parallelism (default 4).
	Mappers int
	// Store (optional) enables Prefetcher access to a live executor.
	Store *live.Executor
	// Ctx (optional) is the request scope every prefetch is submitted
	// under: cancel it and in-flight store requests are abandoned with
	// typed errors instead of running to completion. Defaults to
	// context.Background().
	Ctx context.Context
	// QueueDepth bounds the preMap -> map queue (Figure 4's Map Queue);
	// default 128.
	QueueDepth int
}

type listEmitter struct {
	mu  sync.Mutex
	kvs []KV
}

func (l *listEmitter) Emit(key string, value []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.kvs = append(l.kvs, KV{key, value})
}

// Run executes the job and returns the sorted output pairs.
func (j *Job) Run() []KV {
	mappers := j.Mappers
	if mappers == 0 {
		mappers = 4
	}
	depth := j.QueueDepth
	if depth == 0 {
		depth = 128
	}
	var pf *Prefetcher
	if j.Store != nil {
		pf = live.NewPrefetcher(j.Ctx, j.Store)
	}

	// The driver change of Section 7.1: preMap consumes the input in a
	// separate thread, prefetches, and feeds the Map queue.
	queue := make(chan Record, depth)
	go func() {
		defer close(queue)
		for _, r := range j.Input {
			if j.PreMap != nil {
				j.PreMap(r, pf)
			}
			queue <- r
		}
	}()

	inter := &listEmitter{}
	var wg sync.WaitGroup
	for w := 0; w < mappers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range queue {
				j.Map(r, pf, inter)
			}
		}()
	}
	wg.Wait()

	if j.Reduce == nil {
		sortKVs(inter.kvs)
		return inter.kvs
	}

	groups := make(map[string][][]byte)
	for _, kv := range inter.kvs {
		groups[kv.Key] = append(groups[kv.Key], kv.Value)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := &listEmitter{}
	for _, k := range keys {
		j.Reduce(k, groups[k], out)
	}
	sortKVs(out.kvs)
	return out.kvs
}

func sortKVs(kvs []KV) {
	sort.Slice(kvs, func(i, j int) bool {
		if kvs[i].Key != kvs[j].Key {
			return kvs[i].Key < kvs[j].Key
		}
		return string(kvs[i].Value) < string(kvs[j].Value)
	})
}
