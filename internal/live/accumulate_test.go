package live

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/core"
	"joinopt/internal/membership"
	"joinopt/internal/store"
)

// --- Helpers shared by the behaviour tests ------------------------------------

// forShards runs a behaviour test at 1, 2 and 4 state shards: what a
// destination batches must not depend on how its keys' state is striped.
func forShards(t *testing.T, run func(t *testing.T, shards int)) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { run(t, shards) })
	}
}

// parked reports how many entries bk's accumulator holds.
func parked(e *Executor, bk liveBatchKey) int {
	a := (*e.accs.Load())[bk]
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.entries)
}

// flush ships what bk's accumulator holds by running its max-wait flush now
// (the tests that use it park under an hour's BatchWait).
func flush(e *Executor, bk liveBatchKey) {
	if a := (*e.accs.Load())[bk]; a != nil {
		a.fire()
	}
}

// flushAll flushes every destination and reports how many held entries.
func flushAll(e *Executor) (held int) {
	for bk := range *e.accs.Load() {
		if parked(e, bk) > 0 {
			held++
			flush(e, bk)
		}
	}
	return held
}

// assertIdle fails if any accumulator still holds an entry or an armed timer.
func assertIdle(t *testing.T, e *Executor) {
	t.Helper()
	for bk, a := range *e.accs.Load() {
		a.mu.Lock()
		n, armed := len(a.entries), a.armed
		a.mu.Unlock()
		if n != 0 || armed {
			t.Errorf("accumulator for node %d op %v: %d entries parked, timer armed=%v; want idle", bk.node, bk.op, n, armed)
		}
	}
}

// --- The accumulator on its own: no executor, no sockets ----------------------

// accHarness drives one accumulator with a settable limit and collects what
// its timer ships.
type accHarness struct {
	*accumulator
	limit    int
	noCredit bool // the destination advertises an exhausted admission window

	shipMu  sync.Mutex
	shipped [][]string   // keys of each batch handed to ship (timer, kick, done)
	causes  []flushCause // and what made it leave
}

func newAccHarness(wait time.Duration, limit int) *accHarness {
	h := &accHarness{limit: limit}
	h.accumulator = &accumulator{bk: liveBatchKey{op: OpExec}, wait: wait,
		limit:   func() int { return h.limit },
		starved: func() bool { return h.noCredit },
		ship: func(b *liveBatch) {
			h.shipMu.Lock()
			h.shipped = append(h.shipped, batchKeys(b))
			h.causes = append(h.causes, b.why)
			h.shipMu.Unlock()
			putBatch(b)
		}}
	return h
}

func (h *accHarness) timerBatches() [][]string {
	h.shipMu.Lock()
	defer h.shipMu.Unlock()
	return append([][]string(nil), h.shipped...)
}

func batchKeys(b *liveBatch) []string {
	var ks []string
	for _, ent := range b.entries {
		ks = append(ks, ent.key)
	}
	return ks
}

func (h *accHarness) state() (parked int, armed bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.entries), h.armed
}

func mustAdd(t *testing.T, h *accHarness, key string) *liveBatch {
	t.Helper()
	full, ok := h.add(liveEntry{key: key})
	if !ok {
		t.Fatalf("add(%s) refused by a live accumulator", key)
	}
	return full
}

// TestAccumulatorSizeTrigger: the batch ships on exactly the limit-th add —
// not before, not with more — and leaves nothing parked and no timer armed.
func TestAccumulatorSizeTrigger(t *testing.T) {
	h := newAccHarness(time.Hour, 4)
	for round := 0; round < 2; round++ {
		for i := 0; i < 3; i++ {
			if full := mustAdd(t, h, fmt.Sprintf("k%d", i)); full != nil {
				t.Fatalf("round %d: add %d of 4 already shipped %v", round, i+1, batchKeys(full))
			}
		}
		if n, armed := h.state(); n != 3 || !armed {
			t.Fatalf("round %d: %d parked, armed=%v; want 3 parked under the timer", round, n, armed)
		}
		full := mustAdd(t, h, "k3")
		if got := fmt.Sprint(batchKeys(full)); got != "[k0 k1 k2 k3]" {
			t.Fatalf("round %d: full batch %s, want [k0 k1 k2 k3] in submission order", round, got)
		}
		if full.bk != h.bk {
			t.Fatal("the batch does not carry its accumulator's key")
		}
		putBatch(full)
		if n, armed := h.state(); n != 0 || armed {
			t.Fatalf("round %d: after the size flush %d parked, armed=%v; want idle", round, n, armed)
		}
	}
	if got := h.timerBatches(); len(got) != 0 {
		t.Fatalf("timer shipped %v with the wait an hour out", got)
	}
}

// TestAccumulatorShrinkMidAccumulation: the limit dropping below what is
// already parked never yields an oversized batch — each trigger ships the
// current limit and the rest stays parked, still under the timer.
func TestAccumulatorShrinkMidAccumulation(t *testing.T) {
	h := newAccHarness(time.Hour, 64)
	for i := 0; i < 13; i++ {
		mustAdd(t, h, fmt.Sprintf("k%d", i))
	}
	h.limit = 8
	full := mustAdd(t, h, "k13")
	if full == nil || len(full.entries) != 8 || full.entries[0].key != "k0" {
		t.Fatalf("after the shrink the trigger shipped %v, want the 8 oldest", full)
	}
	putBatch(full)
	if n, armed := h.state(); n != 6 || !armed {
		t.Fatalf("%d parked, armed=%v; want the remainder of 6 under the timer", n, armed)
	}
	if full := mustAdd(t, h, "k14"); full != nil {
		t.Fatalf("7 parked under a limit of 8 shipped %v", batchKeys(full))
	}
	full = mustAdd(t, h, "k15")
	if full == nil || len(full.entries) != 8 || full.entries[0].key != "k8" {
		t.Fatalf("second trigger shipped %v, want k8..k15", full)
	}
	putBatch(full)
	// The timer flush honours the limit as well, and re-arms for the rest.
	h.limit = 64
	for i := 0; i < 5; i++ {
		mustAdd(t, h, "x")
	}
	h.limit = 2
	for n := 5; n > 0; n -= 2 {
		h.fire()
		if left, armed := h.state(); left != max(n-2, 0) || armed != (left > 0) {
			t.Fatalf("after a timer flush of %d parked: %d left, armed=%v", n, left, armed)
		}
	}
	for _, ks := range h.timerBatches() {
		if len(ks) > 2 {
			t.Fatalf("timer flush shipped %d entries under a limit of 2", len(ks))
		}
	}
}

// TestAccumulatorTimerFlush: a partial batch ships when its max wait
// expires, in one piece, and the accumulator is idle afterwards.
func TestAccumulatorTimerFlush(t *testing.T) {
	h := newAccHarness(5*time.Millisecond, 64)
	for i := 0; i < 3; i++ {
		mustAdd(t, h, fmt.Sprintf("k%d", i))
	}
	waitUntil(t, 5*time.Second, "the max-wait flush", func() bool { return len(h.timerBatches()) == 1 })
	if got := fmt.Sprint(h.timerBatches()[0]); got != "[k0 k1 k2]" {
		t.Fatalf("timer shipped %s, want [k0 k1 k2]", got)
	}
	if n, armed := h.state(); n != 0 || armed {
		t.Fatalf("%d parked, armed=%v after the timer flush; want idle", n, armed)
	}
	// The one timer is reused: a second partial batch flushes the same way.
	mustAdd(t, h, "k3")
	waitUntil(t, 5*time.Second, "the second max-wait flush", func() bool { return len(h.timerBatches()) == 2 })
}

// TestAccumulatorStaleTimerFire: a fire that was already launched when a
// size flush retired its arming must not flush the NEXT batch early.
func TestAccumulatorStaleTimerFire(t *testing.T) {
	h := newAccHarness(5*time.Millisecond, 2)
	mustAdd(t, h, "k0") // arms the 5ms timer
	h.mu.Lock()
	time.Sleep(200 * time.Millisecond) // the fire launches and blocks on mu
	h.entries = append(h.entries, liveEntry{key: "k1"})
	full := h.takeLocked(flushSize) // the size flush: its Stop loses to the launched fire
	stale := h.stale
	h.wait = time.Hour
	h.entries = append(h.entries, liveEntry{key: "k2"}) // the next batch, under a fresh arming
	h.syncTimer()
	h.mu.Unlock()
	if stale != 1 {
		t.Fatalf("stale = %d after stopping a timer 195ms past due; the fire never launched", stale)
	}
	putBatch(full)
	waitUntil(t, 5*time.Second, "the stale fire to run", func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		return h.stale == 0
	})
	if n, armed := h.state(); n != 1 || !armed {
		t.Fatalf("%d parked, armed=%v after the stale fire; want k2 still parked under its own timer", n, armed)
	}
	if got := h.timerBatches(); len(got) != 0 {
		t.Fatalf("the stale fire shipped %v", got)
	}
}

// TestAccumulatorRemove: a canceled submission's entry comes back out by its
// cancel state, a withdrawn fetch by its dedup waiter; removing the last
// entry disarms the timer, and an entry that already shipped is not found.
func TestAccumulatorRemove(t *testing.T) {
	h := newAccHarness(time.Hour, 64)
	cs, w := &cancelState{}, &waiter{}
	h.add(liveEntry{key: "exec", cancel: cs})
	h.add(liveEntry{key: "fetch", w: w})
	h.add(liveEntry{key: "other"})
	if !h.remove(cs, nil) || h.remove(cs, nil) {
		t.Fatal("remove by cancel state: want found once, then gone")
	}
	if !h.remove(nil, w) || h.remove(nil, w) {
		t.Fatal("remove by dedup waiter: want found once, then gone")
	}
	if h.remove(&cancelState{}, nil) {
		t.Fatal("remove found an entry for a cancel state that never parked here")
	}
	h.fire()
	if got := fmt.Sprint(h.timerBatches()); got != "[[other]]" {
		t.Fatalf("after both removals the flush shipped %s, want [[other]]", got)
	}
	h.add(liveEntry{key: "last", cancel: cs})
	if !h.remove(cs, nil) {
		t.Fatal("the last parked entry was not removed")
	}
	if n, armed := h.state(); n != 0 || armed {
		t.Fatalf("%d parked, armed=%v after removing the last entry; want idle", n, armed)
	}
	if (*accumulator)(nil).remove(cs, nil) {
		t.Fatal("a nil accumulator reported a removal")
	}
}

// TestAccumulatorDrainAndRetire: drain hands back everything parked and
// retires the accumulator, which then refuses every add.
func TestAccumulatorDrainAndRetire(t *testing.T) {
	h := newAccHarness(time.Hour, 64)
	mustAdd(t, h, "k0")
	mustAdd(t, h, "k1")
	if got := h.drain(); len(got) != 2 {
		t.Fatalf("drain returned %d entries, want 2", len(got))
	}
	if n, armed := h.state(); n != 0 || armed {
		t.Fatalf("%d parked, armed=%v after drain; want idle", n, armed)
	}
	if _, ok := h.add(liveEntry{key: "late"}); ok {
		t.Fatal("a drained accumulator accepted an entry")
	}
}

// addWaited parks one entry with a future of its own, the way route does.
func addWaited(t *testing.T, h *accHarness, key string) *Future {
	t.Helper()
	f := newFuture()
	if _, ok := h.add(liveEntry{key: key, fut: f}); !ok {
		t.Fatalf("add(%s) refused by a live accumulator", key)
	}
	return f
}

func (h *accHarness) flushState() (inflight int, urgent bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.inflight, h.urgent
}

// wantShipped fails unless exactly these batches left through ship, in order,
// each for the stated cause.
func (h *accHarness) wantShipped(t *testing.T, when string, batches string, causes ...flushCause) {
	t.Helper()
	h.shipMu.Lock()
	defer h.shipMu.Unlock()
	if got := fmt.Sprint(h.shipped); got != batches || fmt.Sprint(h.causes) != fmt.Sprint(causes) {
		t.Fatalf("%s: shipped %s for causes %v, want %s for %v", when, got, h.causes, batches, causes)
	}
}

// TestAccumulatorKickIdleShips: a caller blocking on a parked entry ships the
// whole partial batch at once when the destination has nothing in flight.
func TestAccumulatorKickIdleShips(t *testing.T) {
	h := newAccHarness(time.Hour, 64)
	mustAdd(t, h, "k0")
	f := addWaited(t, h, "k1")
	mustAdd(t, h, "k2")
	h.kick(f)
	h.wantShipped(t, "kick on an idle link", "[[k0 k1 k2]]", flushWaiter)
	if n, armed := h.state(); n != 0 || armed {
		t.Fatalf("%d parked, armed=%v after the waiter flush; want idle", n, armed)
	}
	if in, urgent := h.flushState(); in != 1 || urgent {
		t.Fatalf("inflight=%d urgent=%v after one batch left; want 1, false", in, urgent)
	}
	h.kick(f) // a second waiter on the same future: its entry is gone
	h.done()
	h.wantShipped(t, "after a repeated kick and the batch's return", "[[k0 k1 k2]]", flushWaiter)
	if in, _ := h.flushState(); in != 0 {
		t.Fatalf("inflight=%d after the only batch returned", in)
	}
}

// TestAccumulatorKickBusyShipsOnDone: with a batch of the destination out, a
// kick only marks the accumulator urgent; the batch's return ships what is
// parked by then, and a return with no waiter pending ships nothing.
func TestAccumulatorKickBusyShipsOnDone(t *testing.T) {
	h := newAccHarness(time.Hour, 64)
	h.kick(addWaited(t, h, "k0")) // idle: ships, one in flight
	f := addWaited(t, h, "k1")
	h.kick(f)
	if in, urgent := h.flushState(); in != 1 || !urgent {
		t.Fatalf("inflight=%d urgent=%v after a kick on a busy link; want 1, true", in, urgent)
	}
	mustAdd(t, h, "k2") // arrives while the link is busy: rides along
	h.wantShipped(t, "while the first batch is out", "[[k0]]", flushWaiter)
	h.done()
	h.wantShipped(t, "at the first batch's return", "[[k0] [k1 k2]]", flushWaiter, flushCompletion)
	if in, urgent := h.flushState(); in != 1 || urgent {
		t.Fatalf("inflight=%d urgent=%v after the completion flush; want 1 (the new batch), false", in, urgent)
	}
	mustAdd(t, h, "k3") // nobody waits on it
	h.done()
	h.wantShipped(t, "at a return with no waiter pending", "[[k0] [k1 k2]]", flushWaiter, flushCompletion)
	if n, armed := h.state(); n != 1 || !armed {
		t.Fatalf("%d parked, armed=%v; want k3 still under the timer", n, armed)
	}
}

// TestAccumulatorKickStarvedNodeCountsAsBusy: a node advertising no credit
// gets no extra frame from a waiter — the kick waits for a return (or the
// timer) like on a busy link — and kicks ship again once credit is back.
func TestAccumulatorKickStarvedNodeCountsAsBusy(t *testing.T) {
	h := newAccHarness(time.Hour, 64)
	h.noCredit = true
	f := addWaited(t, h, "k0")
	h.kick(f)
	h.wantShipped(t, "kick at a starved node", "[]")
	if in, urgent := h.flushState(); in != 0 || !urgent {
		t.Fatalf("inflight=%d urgent=%v; want 0, true", in, urgent)
	}
	h.noCredit = false
	h.kick(f)
	h.wantShipped(t, "kick once credit is back", "[[k0]]", flushWaiter)
}

// TestAccumulatorNoWaiterOnlySizeAndTimer: with nobody blocked, futures or
// not, only the limit and the timer ship — a batch returning does not.
func TestAccumulatorNoWaiterOnlySizeAndTimer(t *testing.T) {
	h := newAccHarness(time.Hour, 4)
	for i := 0; i < 3; i++ {
		addWaited(t, h, fmt.Sprintf("k%d", i))
	}
	full, _ := h.add(liveEntry{key: "k3", fut: newFuture()})
	if full == nil || full.why != flushSize || len(full.entries) != 4 {
		t.Fatalf("the 4th add of 4 returned %v, want the full batch by size", full)
	}
	putBatch(full)
	addWaited(t, h, "k4")
	addWaited(t, h, "k5")
	h.done() // the size batch returns; nobody kicked
	h.wantShipped(t, "with no waiter", "[]")
	h.fire()
	h.wantShipped(t, "at the max wait", "[[k4 k5]]", flushTimer)
}

// TestAccumulatorStaleKickIsNoOp: a kick acts only while the waiter's own
// entry is parked here. Once it was taken, removed by its cancel, or
// re-routed to another destination, collecting its result must not cut short
// the batch later submissions are filling.
func TestAccumulatorStaleKickIsNoOp(t *testing.T) {
	t.Run("taken", func(t *testing.T) {
		h := newAccHarness(time.Hour, 64)
		f := addWaited(t, h, "k0")
		h.fire() // ships k0
		h.done()
		addWaited(t, h, "k1")
		h.kick(f)
		f.kick()
		h.wantShipped(t, "kick for an entry already taken", "[[k0]]", flushTimer)
		if n, _ := h.state(); n != 1 {
			t.Fatalf("%d parked, want k1 untouched", n)
		}
	})
	t.Run("left behind by a shrunk limit", func(t *testing.T) {
		h := newAccHarness(time.Hour, 64)
		mustAdd(t, h, "k0")
		f := addWaited(t, h, "k1")
		h.limit = 1
		h.fire() // ships k0 only; k1 stays, re-linked
		h.done()
		h.kick(f)
		h.wantShipped(t, "kick for the entry the partial take left", "[[k0] [k1]]", flushTimer, flushWaiter)
	})
	t.Run("removed by cancel", func(t *testing.T) {
		h := newAccHarness(time.Hour, 64)
		cs := &cancelState{}
		f := newFuture()
		h.add(liveEntry{key: "k0", fut: f, cancel: cs})
		addWaited(t, h, "k1")
		if !h.remove(cs, nil) {
			t.Fatal("the canceled entry was not parked")
		}
		h.kick(f)
		f.kick()
		h.wantShipped(t, "kick for a canceled entry", "[]")
		if n, _ := h.state(); n != 1 {
			t.Fatalf("%d parked, want k1 untouched", n)
		}
	})
	t.Run("re-routed", func(t *testing.T) {
		old, next := newAccHarness(time.Hour, 64), newAccHarness(time.Hour, 64)
		f := addWaited(t, old, "k0")
		old.fire() // shipped, failed over: reroute parks it at its next destination
		old.done()
		next.add(liveEntry{key: "k0", fut: f, hops: 1})
		addWaited(t, old, "k1")
		old.kick(f)
		old.wantShipped(t, "kick at the old destination", "[[k0]]", flushTimer)
		f.kick() // the future's own link follows the entry
		next.wantShipped(t, "kick through the re-targeted link", "[[k0]]", flushWaiter)
		if n, _ := old.state(); n != 1 {
			t.Fatalf("old destination: %d parked, want k1 untouched", n)
		}
	})
	t.Run("resolved", func(t *testing.T) {
		h := newAccHarness(time.Hour, 64)
		f := addWaited(t, h, "k0")
		f.reject(&Error{Code: CodeCanceled}) // a cancel rejects before it removes
		f.kick()
		h.wantShipped(t, "wait on an already resolved future", "[]")
	})
}

// --- The executor's use of it, still without sockets ---------------------------

// socketlessExec is an executor over a cluster with no dialed node: every
// submission parks (BatchWait is an hour) and nothing can ever ship.
func socketlessExec(t *testing.T, shards int) *Executor {
	t.Helper()
	reg := NewRegistry()
	reg.Register("id", Identity)
	catalog := store.CatalogFunc(func(string) store.RowMeta { return store.RowMeta{ValueSize: 32} })
	e, err := NewExecutor(ExecConfig{
		Tables:    map[string]*store.Table{"t": store.NewTable("t", catalog, 2, []cluster.NodeID{0})},
		Registry:  reg,
		TableUDF:  map[string]string{"t": "id"},
		Optimizer: core.Config{Policy: core.Policy{AlwaysCompute: true}},
		Shards:    shards,
		BatchWait: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// TestCloseDrainsEveryAccumulator: Close fails every parked entry — exec,
// fetch with piled-on waiters, another priority's — with CodeClosed, and a
// Submit after Close is refused rather than parked.
func TestCloseDrainsEveryAccumulator(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		e := socketlessExec(t, shards)
		tbl, ctx := e.Table("t"), context.Background()
		var futs []*Future
		for i := 0; i < 20; i++ {
			futs = append(futs, tbl.Submit(ctx, fmt.Sprintf("k%d", i), nil))
		}
		futs = append(futs,
			tbl.Submit(ctx, "f0", nil, WithRoute(ForceFetch)),
			tbl.Submit(ctx, "f0", nil, WithRoute(ForceFetch)), // piles onto the parked fetch
			tbl.Submit(ctx, "p0", nil, WithPriority(PriorityLow)))
		if n := len(*e.accs.Load()); n != 3 {
			t.Fatalf("%d accumulators, want 3 (exec, get, exec of its own priority)", n)
		}
		e.Close()
		futs = append(futs, tbl.Submit(ctx, "late", nil))
		for i, f := range futs {
			_, err := waitOrHang(t, f, 5*time.Second)
			var le *Error
			if !errors.As(err, &le) || le.Code != CodeClosed {
				t.Fatalf("op %d after Close: %v, want CodeClosed", i, err)
			}
		}
		if n := len(*e.accs.Load()); n != 0 {
			t.Fatalf("%d accumulators survive Close", n)
		}
		invariantSum(t, e, int64(len(futs)))
	})
}

// inflightOf reads bk's in-flight batch count.
func inflightOf(e *Executor, bk liveBatchKey) int {
	a := (*e.accs.Load())[bk]
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight
}

// take pulls what bk's accumulator holds out as a batch without shipping it,
// so a test can change the world between the take and the ship.
func take(t *testing.T, e *Executor, bk liveBatchKey) *liveBatch {
	t.Helper()
	a := (*e.accs.Load())[bk]
	a.mu.Lock()
	defer a.mu.Unlock()
	b := a.takeLocked(flushTimer)
	if b == nil || a.inflight != 1 {
		t.Fatalf("take: batch %v, inflight %d; want a batch counted in flight", b, a.inflight)
	}
	return b
}

// TestShipReleasesInFlightOnEveryExit: a batch that never reaches the wire —
// every entry canceled while it was being taken, or the executor closed — and
// one whose answer fails over all give the link back, or a later waiter's kick
// would find the destination busy forever.
func TestShipReleasesInFlightOnEveryExit(t *testing.T) {
	t.Run("all canceled", func(t *testing.T) {
		e := socketlessExec(t, 2)
		tbl := e.Table("t")
		bk := liveBatchKey{t: tbl, node: 0, op: OpExec}
		ctx, cancel := context.WithCancel(context.Background())
		f := tbl.Submit(ctx, "k0", nil)
		b := take(t, e, bk)
		cancel()
		_, err := waitOrHang(t, f, 5*time.Second)
		wantCanceled(t, err, "op canceled between take and ship")
		e.ship(b)
		if n := inflightOf(e, bk); n != 0 {
			t.Fatalf("inflight = %d after an all-canceled batch", n)
		}
		invariantSum(t, e, 1)
	})
	t.Run("executor closed", func(t *testing.T) {
		e := socketlessExec(t, 2)
		tbl := e.Table("t")
		bk := liveBatchKey{t: tbl, node: 0, op: OpExec}
		f := tbl.Submit(context.Background(), "k0", nil)
		a := (*e.accs.Load())[bk]
		b := take(t, e, bk)
		e.Close()
		e.ship(b)
		var le *Error
		if _, err := waitOrHang(t, f, 5*time.Second); !errors.As(err, &le) || le.Code != CodeClosed {
			t.Fatalf("op shipped into a closed executor: %v, want CodeClosed", err)
		}
		a.mu.Lock()
		n := a.inflight
		a.mu.Unlock()
		if n != 0 {
			t.Fatalf("inflight = %d after a closed-executor batch", n)
		}
		invariantSum(t, e, 1)
	})
	t.Run("failover", func(t *testing.T) {
		// Two replicas, neither dialed: every send fails at once with a
		// transport error, so the op fails over once and then surfaces it.
		reg := NewRegistry()
		reg.Register("id", Identity)
		tables := map[string]*store.Table{"t": store.NewTable("t", rerouteCatalog, 2, []cluster.NodeID{0, 1})}
		e, err := NewExecutor(ExecConfig{
			Tables:     tables,
			Membership: membership.NewStatic(nil, tables, 2),
			Registry:   reg,
			TableUDF:   map[string]string{"t": "id"},
			Optimizer:  core.Config{Policy: core.Policy{AlwaysCompute: true}},
			Shards:     2,
			MaxRetries: -1,
			BatchWait:  time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		f := e.Table("t").Submit(context.Background(), "k0", nil)
		var first, next liveBatchKey
		for bk := range *e.accs.Load() {
			first = bk
		}
		// Ship to the first replica through the waiter's kick, but with nobody
		// recorded as blocked (Future.kick would): the re-route then leaves the
		// op parked where it lands.
		(*e.accs.Load())[first].kick(f)
		waitUntil(t, 5*time.Second, "the op to re-park at the other replica", func() bool {
			for bk := range *e.accs.Load() {
				if bk.node != first.node && parked(e, bk) == 1 {
					next = bk
					return true
				}
			}
			return false
		})
		if n := inflightOf(e, first); n != 0 {
			t.Fatalf("inflight = %d at the failed replica after the failover", n)
		}
		if e.WaiterFlushes.Load() != 1 {
			t.Fatalf("WaiterFlushes = %d, want the 1 kicked batch", e.WaiterFlushes.Load())
		}
		// The link moved with the entry: the next wait ships it where it is now.
		var le *Error
		if _, err := waitOrHang(t, f, 5*time.Second); !errors.As(err, &le) || le.Code != CodeTransport {
			t.Fatalf("op with every replica down: %v, want CodeTransport", err)
		}
		if n := inflightOf(e, next); n != 0 {
			t.Fatalf("inflight = %d at the second replica after its batch failed", n)
		}
		if e.WaiterFlushes.Load() != 2 || e.Failovers.Load() != 1 {
			t.Fatalf("WaiterFlushes = %d, Failovers = %d; want 2 and 1", e.WaiterFlushes.Load(), e.Failovers.Load())
		}
		assertIdle(t, e)
		invariantSum(t, e, 1)
	})
}

// --- Over real sockets: what a blocked caller is owed ---------------------------

// TestLoneWaiterShipsItsBatch pins the waiter-driven flush: BatchWait is a
// ceiling, not the price of a partial batch. With the batch limit at 64 and
// the max wait an hour out, a lone synchronous call can only return through
// the waiter-driven flush — whichever way it waits, compute or fetch — while
// submissions nobody waits on still leave as one full wire batch.
func TestLoneWaiterShipsItsBatch(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		const batch = 64
		sizes := make(chan int, 8)
		fake := newFakeNode(t, func(req Request) *Response {
			resp := &Response{}
			for _, k := range req.Keys {
				resp.Values = append(resp.Values, []byte("v-"+k))
				resp.Computed = append(resp.Computed, req.Op == OpExec)
				resp.Metas = append(resp.Metas, Meta{ValueSize: 4, ComputedSize: 4, Version: 1})
			}
			sizes <- len(req.Keys)
			return resp
		})
		e := singleNodeExec(t, fake.addr(), func(cfg *ExecConfig) {
			cfg.Optimizer = core.Config{Policy: core.Policy{AlwaysCompute: true}}
			cfg.Shards = shards
			cfg.BatchSize = batch
			cfg.BatchWait = time.Hour
		})
		tbl, ctx := e.Table("t"), context.Background()
		deadline, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()

		if v, err := tbl.Call(deadline, "a", nil); err != nil || string(v) != "v-a" {
			t.Fatalf("lone Call: %q, %v (a blocked caller sat out BatchWait)", v, err)
		}
		if v, err := waitOrHang(t, tbl.Submit(ctx, "b", []byte("p"), WithRoute(ForceFetch)), 10*time.Second); err != nil || string(v) != "v-b/p" {
			t.Fatalf("lone ForceFetch WaitErr: %q, %v", v, err)
		}
		if v, err := tbl.Submit(ctx, "c", nil).WaitCtx(deadline); err != nil || string(v) != "v-c" {
			t.Fatalf("lone WaitCtx: %q, %v", v, err)
		}
		// A second caller piled onto a parked fetch nobody else waits on.
		lead := tbl.Submit(ctx, "d", []byte("p"), WithRoute(ForceFetch))
		if v, err := waitOrHang(t, tbl.Submit(ctx, "d", []byte("q"), WithRoute(ForceFetch)), 10*time.Second); err != nil || string(v) != "v-d/q" {
			t.Fatalf("waiter piled onto a parked fetch: %q, %v", v, err)
		}
		if v, err := waitOrHang(t, lead, 10*time.Second); err != nil || string(v) != "v-d/p" {
			t.Fatalf("the fetch's first waiter: %q, %v", v, err)
		}
		for i := 0; i < 4; i++ {
			if got := <-sizes; got != 1 {
				t.Fatalf("lone call %d crossed the wire in a batch of %d", i, got)
			}
		}
		if got := e.WaiterFlushes.Load(); got != 4 {
			t.Fatalf("WaiterFlushes = %d, want 4", got)
		}

		// Nobody waits: the submissions park until the limit ships them whole.
		futs := make([]*Future, batch)
		for i := range futs {
			if i == batch-1 && len(sizes) != 0 {
				t.Fatalf("a wire batch shipped before the %dth un-waited submission", batch)
			}
			futs[i] = tbl.Submit(ctx, fmt.Sprintf("k%d", i), nil)
		}
		if got := <-sizes; got != batch {
			t.Fatalf("un-waited submissions left in a wire batch of %d keys, want %d", got, batch)
		}
		for i, f := range futs {
			if _, err := waitOrHang(t, f, 10*time.Second); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		if len(sizes) != 0 {
			t.Fatalf("%d extra wire batches", len(sizes))
		}
		if s, w, c, tm := e.SizeFlushes.Load(), e.WaiterFlushes.Load(), e.CompletionFlushes.Load(), e.TimerFlushes.Load(); s != 1 || w != 4 || c != 0 || tm != 0 {
			t.Fatalf("flush causes size/waiter/completion/timer = %d/%d/%d/%d, want 1/4/0/0", s, w, c, tm)
		}
		assertIdle(t, e)
		invariantSum(t, e, 5+batch)
	})
}
