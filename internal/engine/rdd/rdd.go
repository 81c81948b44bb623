// Package rdd is a miniature RDD-style dataset API (Spark's map/flatMap
// shape) extended with the paper's premap variants (Section 7.1, Spark
// bullet): MapWithPremap and FlatMapWithPremap take a pair of user
// functions -- the premap issues asynchronous prefetches against the data
// store, the map consumes the results -- so multi-join pipelines execute as
// pipelined index joins instead of shuffles (Section 6).
package rdd

import (
	"context"
	"sync"

	"joinopt/internal/live"
)

// Row is one dataset element.
type Row map[string]string

// Async is the handle passed to premap/map functions (the paper's "async"
// object): Submit issues prefetches, Fetch collects results.
type Async = live.Prefetcher

// RDD is an immutable dataset with lazily-applied transformations.
type RDD struct {
	ctx  *Context
	rows func() []Row // materialization thunk
}

// Context owns the executor and parallelism settings.
type Context struct {
	Store    *live.Executor
	Parallel int // default 4
	// Ctx (optional) scopes every prefetch a pipeline issues; canceling
	// it abandons in-flight store requests. Defaults to
	// context.Background().
	Ctx        context.Context
	queueDepth int
}

// NewContext returns a context; store may be nil for pure transformations.
func NewContext(store *live.Executor, parallel int) *Context {
	if parallel == 0 {
		parallel = 4
	}
	return &Context{Store: store, Parallel: parallel, queueDepth: 128}
}

// FromRows creates an RDD over the given rows.
func (c *Context) FromRows(rows []Row) *RDD {
	return &RDD{ctx: c, rows: func() []Row { return rows }}
}

// Map applies f to every row.
func (r *RDD) Map(f func(Row) Row) *RDD {
	prev := r.rows
	return &RDD{ctx: r.ctx, rows: func() []Row {
		in := prev()
		out := make([]Row, len(in))
		parallelFor(r.ctx.Parallel, len(in), func(i int) {
			out[i] = f(in[i])
		})
		return out
	}}
}

// Filter keeps rows where f returns true.
func (r *RDD) Filter(f func(Row) bool) *RDD {
	prev := r.rows
	return &RDD{ctx: r.ctx, rows: func() []Row {
		var out []Row
		for _, row := range prev() {
			if f(row) {
				out = append(out, row)
			}
		}
		return out
	}}
}

// FlatMapWithPremap is the paper's extended API: premap runs ahead of the
// map function in a separate goroutine, issuing prefetches; mapf then
// transforms each row (possibly into zero or several rows), collecting
// prefetched results through the shared Async. A nil result row is dropped,
// which is how index-join stages express join misses / filtered rows.
func (r *RDD) FlatMapWithPremap(premap func(Row, *Async), mapf func(Row, *Async) []Row) *RDD {
	prev := r.rows
	ctx := r.ctx
	return &RDD{ctx: ctx, rows: func() []Row {
		in := prev()
		async := live.NewPrefetcher(ctx.Ctx, ctx.Store)
		queue := make(chan int, ctx.queueDepth)
		go func() {
			defer close(queue)
			for i := range in {
				if premap != nil {
					premap(in[i], async)
				}
				queue <- i
			}
		}()
		outs := make([][]Row, len(in))
		var wg sync.WaitGroup
		for w := 0; w < ctx.Parallel; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range queue {
					outs[i] = mapf(in[i], async)
				}
			}()
		}
		wg.Wait()
		var flat []Row
		for _, rows := range outs {
			flat = append(flat, rows...)
		}
		return flat
	}}
}

// MapWithPremap is FlatMapWithPremap for exactly-one-output transforms;
// returning a nil Row drops the row.
func (r *RDD) MapWithPremap(premap func(Row, *Async), mapf func(Row, *Async) Row) *RDD {
	return r.FlatMapWithPremap(premap, func(row Row, a *Async) []Row {
		out := mapf(row, a)
		if out == nil {
			return nil
		}
		return []Row{out}
	})
}

// Collect materializes the dataset.
func (r *RDD) Collect() []Row { return r.rows() }

// Count materializes and counts.
func (r *RDD) Count() int { return len(r.rows()) }

func parallelFor(workers, n int, f func(i int)) {
	if workers <= 1 || n < 2 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	wg.Wait()
}
