package live

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"joinopt/internal/core"
)

// TestCrossPlaneRoutingEquivalence replays one deterministic key trace
// through a single-shard live executor (Workers=1, ConnsPerNode=1, serial
// Submit+Wait, so optimizer interactions form a total order) and then feeds
// the captured interaction stream into a fresh core.Optimizer — the same
// decision engine the simulation plane's compute nodes drive directly. Both
// must make identical cache/compute/fetch routing decisions and end with
// identical counters and cache contents: the sharding refactor must not
// change Algorithm 1's semantics, only its locking.
//
// Learned costs are measured wall-clock times in the live plane, so the
// oracle consumes the live plane's own response metas; what the test pins
// down is that the executor applies exactly the Algorithm 1 interaction
// sequence (no dropped benefit updates, no double-applied responses, no
// reordered invalidations) that the sim plane would.
func TestCrossPlaneRoutingEquivalence(t *testing.T) {
	cfg, _ := testCluster(t, 2, 40, "upper", upperUDF, false)

	var traceMu sync.Mutex
	var events []TraceEvent
	optCfg := core.Config{Policy: core.Policy{Caching: true}, MemCacheBytes: 1 << 20}
	cfg.Optimizer = optCfg
	cfg.Shards = 1
	cfg.Workers = 1
	cfg.ConnsPerNode = 1
	cfg.BatchWait = 200 * time.Microsecond
	cfg.NetBw = 1e9 // set explicitly: the oracle replay uses the same value
	cfg.Trace = func(ev TraceEvent) {
		traceMu.Lock()
		events = append(events, ev)
		traceMu.Unlock()
	}
	e, err := NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Deterministic skewed trace: key k{i*i mod 23} — a few hot keys that
	// cross the ski-rental threshold, a tail that stays rented.
	const ops = 600
	for i := 0; i < ops; i++ {
		k := fmt.Sprintf("k%d", (i*i)%23)
		got := mustWait(t, e.Table("t").Submit(context.Background(), k, []byte("p")))
		if got == nil {
			t.Fatalf("op %d (%s): nil result", i, k)
		}
	}

	traceMu.Lock()
	defer traceMu.Unlock()

	// Replay the interaction stream against the sim plane's decision
	// engine, checking each Route decision as it is re-made.
	oracle := core.New(optCfg)
	routes := 0
	for i, ev := range events {
		switch ev.Kind {
		case TraceRoute:
			routes++
			if r := oracle.Route(ev.Key, cfg.NetBw); r != ev.Route {
				t.Fatalf("event %d: live plane routed %s to %v, oracle to %v",
					i, ev.Key, ev.Route, r)
			}
		case TraceComputeResp:
			oracle.OnComputeResponse(ev.Meta)
		case TraceFetched:
			oracle.OnValueFetched(ev.Key, ev.Size, ev.Version, nil, true)
		case TraceLocalCompute:
			oracle.ObserveLocalCompute(ev.Sojourn, ev.Service)
		case TraceInvalidate:
			oracle.Invalidate(ev.Key, ev.Version)
		}
	}
	if routes != ops {
		t.Fatalf("traced %d route decisions, want %d", routes, ops)
	}

	live := e.Table("t").opts[0] // Shards: 1, the table's only optimizer
	if ls, os := live.Stats(), oracle.Stats(); ls != os {
		t.Fatalf("routing counters diverged:\nlive:   %+v\noracle: %+v", ls, os)
	}
	if lk, ok := live.Cache.Keys(), oracle.Cache.Keys(); !reflect.DeepEqual(lk, ok) {
		t.Fatalf("cache contents diverged:\nlive:   %v\noracle: %v", lk, ok)
	}
	if lm, om := live.Cache.MemUsed(), oracle.Cache.MemUsed(); lm != om {
		t.Fatalf("mem usage diverged: live %d, oracle %d", lm, om)
	}
	// Sanity: the trace must have exercised real decisions, not just
	// first-contact compute requests.
	if live.Stats().LocalMem == 0 && live.Stats().LocalDisk == 0 {
		t.Fatal("trace produced no cache hits; equivalence check is vacuous")
	}
	if live.Stats().DataReqs == 0 {
		t.Fatal("trace produced no buys; equivalence check is vacuous")
	}
}
