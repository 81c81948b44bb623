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
	limit int

	shipMu  sync.Mutex
	shipped [][]string // keys of each timer-shipped batch
}

func newAccHarness(wait time.Duration, limit int) *accHarness {
	h := &accHarness{limit: limit}
	h.accumulator = &accumulator{bk: liveBatchKey{op: OpExec}, wait: wait,
		limit: func() int { return h.limit },
		ship: func(b *liveBatch) {
			h.shipMu.Lock()
			h.shipped = append(h.shipped, batchKeys(b))
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
	full := h.takeLocked() // the size flush: its Stop loses to the launched fire
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
// retires the accumulator; retireIfIdle refuses while entries are parked.
func TestAccumulatorDrainAndRetire(t *testing.T) {
	h := newAccHarness(time.Hour, 64)
	mustAdd(t, h, "k0")
	if h.retireIfIdle() {
		t.Fatal("retireIfIdle retired an accumulator holding an entry")
	}
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
	idle := newAccHarness(time.Hour, 64)
	if !idle.retireIfIdle() {
		t.Fatal("retireIfIdle refused an empty accumulator")
	}
	if _, ok := idle.add(liveEntry{key: "late"}); ok {
		t.Fatal("a retired accumulator accepted an entry")
	}
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
// fetch with piled-on waiters, per-call policy — with CodeClosed, and a
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
			tbl.Submit(ctx, "p0", nil, WithTimeout(time.Second)))
		if n := len(*e.accs.Load()); n != 3 {
			t.Fatalf("%d accumulators, want 3 (exec, get, exec under its own wire policy)", n)
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

// TestPerCallPolicyAccumulatorsArePruned: the default policy's accumulator
// lives as long as the executor, and so do per-call wire policies up to
// maxPolicyAccs of them; past that the idle ones are unmapped by the next new
// policy to appear — whether their entry shipped or was canceled — so callers
// deriving WithTimeout per call cannot grow the table without bound.
func TestPerCallPolicyAccumulatorsArePruned(t *testing.T) {
	e := socketlessExec(t, 2)
	tbl := e.Table("t")
	keep := tbl.Submit(context.Background(), "k0", nil)
	const oneOffs = 3 * maxPolicyAccs
	for i := 1; i <= oneOffs; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		f := tbl.Submit(ctx, "k1", nil, WithTimeout(time.Duration(i)*time.Second))
		if i%2 == 0 {
			cancel()
			_, err := waitOrHang(t, f, 5*time.Second)
			wantCanceled(t, err, "parked per-call op")
		} else {
			flush(e, liveBatchKey{t: tbl, node: 0, op: OpExec, wire: wireOpts{timeout: time.Duration(i) * time.Second}})
			if _, err := waitOrHang(t, f, 5*time.Second); err == nil {
				t.Fatal("an op shipped to an undialed node succeeded")
			}
			cancel()
		}
		// The default one, the allowance, and the policy whose arrival at
		// the allowance pruned the rest.
		if n := len(*e.accs.Load()); n > maxPolicyAccs+2 {
			t.Fatalf("after %d one-off policies the table holds %d accumulators", i, n)
		}
	}
	if n := parked(e, liveBatchKey{t: tbl, node: 0, op: OpExec}); n != 1 {
		t.Fatalf("default accumulator holds %d entries, want the 1 parked op", n)
	}
	e.Close()
	if _, err := waitOrHang(t, keep, 5*time.Second); err == nil {
		t.Fatal("parked op resolved without an error on Close")
	}
	invariantSum(t, e, oneOffs+1)
}
