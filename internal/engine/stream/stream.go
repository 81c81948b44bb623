// Package stream is a miniature Muppet-style stream processing engine
// (map/update over an unbounded event stream) extended with the paper's
// prefetching thread (Section 7.1, Muppet bullet): a goroutine created in
// the MapUpdatePool constructor drains the input, issues prefetches against
// the data store, and feeds the Map queue that the update workers consume.
package stream

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"joinopt/internal/live"
)

// Event is one stream element.
type Event struct {
	Key   string
	Value []byte
}

// Prefetcher is the prefetch-side handle: PreMap calls Submit, Update calls
// Fetch.
type Prefetcher = live.Prefetcher

// Config configures a MapUpdatePool.
type Config struct {
	// PreMap (optional) runs in the prefetch thread for every event.
	PreMap func(e Event, pf *Prefetcher)
	// Update processes one event (the Muppet "map/update" function).
	Update func(e Event, pf *Prefetcher)
	// Workers is the update parallelism (default 4).
	Workers int
	// QueueDepth bounds the prefetch->update queue (default 256).
	QueueDepth int
	// Store enables Prefetcher access.
	Store *live.Executor
	// Ctx (optional) scopes every prefetch; canceling it abandons
	// in-flight store requests. Defaults to context.Background().
	Ctx context.Context
}

// Pool is a running MapUpdatePool.
type Pool struct {
	cfg    Config
	in     chan Event
	queue  chan Event
	done   chan struct{}
	wg     sync.WaitGroup
	closed sync.Once

	processed atomic.Int64
	started   time.Time
}

// NewPool starts the pool: the constructor creates the prefetching thread
// (as our Muppet extension does in MapUpdatePool's constructor) and the
// update workers.
func NewPool(cfg Config) *Pool {
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 256
	}
	p := &Pool{
		cfg:     cfg,
		in:      make(chan Event, cfg.QueueDepth),
		queue:   make(chan Event, cfg.QueueDepth),
		done:    make(chan struct{}),
		started: time.Now(),
	}
	var pf *Prefetcher
	if cfg.Store != nil {
		pf = live.NewPrefetcher(cfg.Ctx, cfg.Store)
	}

	// Prefetch thread: read input, prefetch, enqueue for update.
	go func() {
		defer close(p.queue)
		for e := range p.in {
			if cfg.PreMap != nil {
				cfg.PreMap(e, pf)
			}
			p.queue <- e
		}
	}()

	for w := 0; w < cfg.Workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for e := range p.queue {
				cfg.Update(e, pf)
				p.processed.Add(1)
			}
		}()
	}
	go func() {
		p.wg.Wait()
		close(p.done)
	}()
	return p
}

// Feed offers one event to the pool (blocking when the queue is full, the
// natural backpressure of a saturated stream).
func (p *Pool) Feed(e Event) { p.in <- e }

// Drain closes the input and waits for all in-flight events.
func (p *Pool) Drain() {
	p.closed.Do(func() { close(p.in) })
	<-p.done
}

// Processed returns the number of completed events.
func (p *Pool) Processed() int64 { return p.processed.Load() }

// Throughput returns events per second since the pool started.
func (p *Pool) Throughput() float64 {
	el := time.Since(p.started).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(p.processed.Load()) / el
}
