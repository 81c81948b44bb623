package live

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/core"
	"joinopt/internal/membership"
	"joinopt/internal/store"
)

// rerouteCase is one cause of a transparent re-send: a cluster of scripted
// nodes that never serve, so every op re-routes until its hop budget is
// spent.
type rerouteCase struct {
	name      string
	exhausted ErrCode                       // what a spent hop budget must surface
	reroutes  func(e *Executor) int64       // the cause's re-route counter
	cluster   func(t *testing.T) ExecConfig // Tables/Addrs/placement of the scripted nodes
}

var rerouteCases = []rerouteCase{
	{
		// Three replicas that answer every read with a transport failure:
		// the op visits each once, then surfaces the failure.
		name:      "replica failover",
		exhausted: CodeTransport,
		reroutes:  func(e *Executor) int64 { return e.Failovers.Load() },
		cluster: func(t *testing.T) ExecConfig {
			ids := []cluster.NodeID{0, 1, 2}
			addrs := map[cluster.NodeID]string{}
			for _, id := range ids {
				addrs[id] = newFakeNode(t, func(Request) *Response {
					return &Response{Code: CodeTransport, Err: "scripted outage"}
				}).addr()
			}
			tables := map[string]*store.Table{"t": store.NewTable("t", rerouteCatalog, 2, ids)}
			return ExecConfig{
				Tables:     tables,
				Addrs:      addrs,
				Membership: membership.NewStatic(addrs, tables, 3),
				MaxRetries: -1, // every failure goes straight to failover
			}
		},
	},
	{
		// Two nodes that each redirect every region to the other at an ever
		// newer epoch: maps that disagree in a loop.
		name:      "moved redirect",
		exhausted: CodeMoved,
		reroutes:  func(e *Executor) int64 { return e.Moved.Load() },
		cluster: func(t *testing.T) ExecConfig {
			const regions = 2
			m := membership.NewMap()
			addrs := map[cluster.NodeID]string{}
			var epoch atomic.Uint64
			nodes := [2]*fakeNode{}
			for i := range nodes {
				other := cluster.NodeID(1 - i)
				nodes[i] = newFakeNode(t, func(Request) *Response {
					ep := epoch.Add(1) + 100 // newer than anything the map assigned itself
					var moved []movedRegion
					for r := 0; r < regions; r++ {
						moved = append(moved, movedRegion{epoch: ep, region: r, owner: other, addr: addrs[other]})
					}
					return &Response{Code: CodeMoved, Err: "moved", Values: [][]byte{encodeMoved(moved)}}
				})
			}
			for i, n := range nodes { // addrs is complete before any request is served
				addrs[cluster.NodeID(i)] = n.addr()
				m.AddNode(cluster.NodeID(i), n.addr())
			}
			m.SetTable("t", make([]cluster.NodeID, regions)) // every region → node 0
			return ExecConfig{
				Tables:     map[string]*store.Table{"t": store.NewTable("t", rerouteCatalog, regions, []cluster.NodeID{0, 1})},
				Addrs:      addrs,
				Membership: m,
			}
		},
	},
}

var rerouteCatalog = store.CatalogFunc(func(string) store.RowMeta { return store.RowMeta{ValueSize: 32} })

func (c rerouteCase) executor(t *testing.T, shards, batchSize int) *Executor {
	t.Helper()
	cfg := c.cluster(t)
	cfg.Registry = NewRegistry()
	cfg.Registry.Register("id", Identity)
	cfg.TableUDF = map[string]string{"t": "id"}
	cfg.Optimizer = core.Config{Policy: core.Policy{AlwaysCompute: true}}
	cfg.Shards = shards
	cfg.BatchSize = batchSize
	cfg.BatchWait = time.Hour // only the size trigger (or the test) flushes
	e, err := NewExecutor(cfg)
	if err != nil {
		t.Fatalf("executor: %v", err)
	}
	t.Cleanup(e.Close)
	return e
}

// TestRerouteHopBudgetAndCancel drives the one re-route loop through both of
// its causes. Exhausting the hop budget must surface the cause's own typed
// Code (never a hang, never a generic failure); a context cancel that lands
// while the op sits re-parked at its next destination must still find it —
// the future resolves CodeCanceled and the entry leaves the accumulator; and
// either way every op lands in exactly one Stats bucket.
func TestRerouteHopBudgetAndCancel(t *testing.T) {
	for _, c := range rerouteCases {
		t.Run(c.name+"/exhaustion", func(t *testing.T) {
			forShards(t, func(t *testing.T, shards int) {
				const ops = 6
				e := c.executor(t, shards, 1)
				for i := 0; i < ops; i++ {
					_, err := waitOrHang(t, e.Table("t").Submit(context.Background(), fmt.Sprintf("k%d", i), nil), 10*time.Second)
					var le *Error
					if !errors.As(err, &le) || le.Code != c.exhausted {
						t.Fatalf("op %d: %v, want %v after the hop budget", i, err, c.exhausted)
					}
				}
				if c.reroutes(e) == 0 {
					t.Fatal("no op was ever re-routed; the test exercised nothing")
				}
				if e.Failed.Load() != ops {
					t.Fatalf("Failed = %d, want %d", e.Failed.Load(), ops)
				}
				invariantSum(t, e, ops)
			})
		})
		t.Run(c.name+"/blocked caller is re-kicked", func(t *testing.T) {
			// One synchronous call that never fills a batch, under a max wait
			// nobody can sit out: the caller's wait ships the op at its first
			// destination, and every re-route must ship it again where it
			// lands — a waiter that blocked before the move is kicked there —
			// until the hop budget surfaces the cause. No batch may have left
			// on the timer.
			forShards(t, func(t *testing.T, shards int) {
				e := c.executor(t, shards, 2)
				done := make(chan error, 1)
				go func() {
					_, err := e.Table("t").Call(context.Background(), "k0", nil)
					done <- err
				}()
				select {
				case err := <-done:
					var le *Error
					if !errors.As(err, &le) || le.Code != c.exhausted {
						t.Fatalf("blocked call: %v, want %v after the hop budget", err, c.exhausted)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("a caller blocked before its op was re-routed is sitting out BatchWait at the next destination")
				}
				if c.reroutes(e) == 0 {
					t.Fatal("the op was never re-routed; the test exercised nothing")
				}
				if n := e.TimerFlushes.Load(); n != 0 {
					t.Fatalf("TimerFlushes = %d, want 0: every batch left because its caller was blocked", n)
				}
				invariantSum(t, e, 1)
			})
		})
		t.Run(c.name+"/cancel mid-re-route", func(t *testing.T) {
			forShards(t, func(t *testing.T, shards int) {
				e := c.executor(t, shards, 2) // one op never fills a batch: it parks wherever it is enqueued
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				f := e.Table("t").Submit(ctx, "k0", nil)

				// Ship the parked op; the scripted node fails it and the re-route
				// parks it at its next destination.
				var first, next liveBatchKey
				for bk := range *e.accs.Load() {
					first = bk
				}
				if flushAll(e) != 1 {
					t.Fatal("the submitted op is not parked in exactly one accumulator")
				}
				waitUntil(t, 10*time.Second, "the op to re-park at its next destination", func() bool {
					for bk := range *e.accs.Load() {
						if bk.node != first.node && parked(e, bk) == 1 {
							next = bk
							return true
						}
					}
					return false
				})

				cancel()
				// The removal first, the wait second: a wait that blocked before
				// the cancel landed would ship the re-parked op instead.
				waitUntil(t, 10*time.Second, "the canceled op to leave its accumulator", func() bool { return parked(e, next) == 0 })
				_, err := waitOrHang(t, f, 10*time.Second)
				wantCanceled(t, err, "re-parked op")
				if e.Canceled.Load() != 1 {
					t.Fatalf("Canceled = %d, want 1", e.Canceled.Load())
				}
				assertIdle(t, e)
				invariantSum(t, e, 1)
			})
		})
	}
}
