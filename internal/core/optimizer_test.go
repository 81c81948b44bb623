package core

import (
	"fmt"
	"math/rand"
	"testing"

	"joinopt/internal/cache"
	"joinopt/internal/freq"
)

const testBw = 100e6

func newFO(mem int64) *Optimizer {
	return New(Config{
		Policy:        Policy{Caching: true},
		MemCacheBytes: mem,
	})
}

// learn simulates a compute-request response so the optimizer knows the
// key's costs.
func learn(o *Optimizer, key string, size int64, cost float64) {
	o.OnComputeResponse(ResponseMeta{
		Key: key, ValueSize: size, ComputedSize: 100, ComputeCost: cost,
	})
}

func TestFirstContactIsComputeRequest(t *testing.T) {
	o := newFO(1 << 20)
	if got := o.Route("k", testBw); got != RouteCompute {
		t.Fatalf("first route = %v, want compute request", got)
	}
	if o.Stats().FirstContact != 1 {
		t.Fatal("first contact not counted")
	}
}

func TestHotKeyGetsBoughtThenServedFromCache(t *testing.T) {
	o := newFO(1 << 20)
	// Expensive value to ship per-request relative to fetch: data-heavy.
	learn(o, "hot", 50_000, 1e-4)
	var route Route
	bought := false
	for i := 0; i < 100; i++ {
		route = o.Route("hot", testBw)
		switch route {
		case RouteCompute:
			// renting
		case RouteDataMem, RouteDataDisk:
			bought = true
			o.OnValueFetched("hot", 50_000, 0, nil, route == RouteDataMem)
		case RouteLocalMem, RouteLocalDisk:
			if !bought {
				t.Fatal("cache hit before any purchase")
			}
		}
	}
	if !bought {
		t.Fatal("hot key was never bought")
	}
	if route != RouteLocalMem && route != RouteLocalDisk {
		t.Fatalf("steady state route = %v, want cache hit", route)
	}
}

func TestColdKeysKeepRenting(t *testing.T) {
	o := newFO(1 << 20)
	// Each key touched once after learning: never crosses the threshold.
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("cold%d", i)
		learn(o, k, 50_000, 1e-4)
		if got := o.Route(k, testBw); got != RouteCompute {
			t.Fatalf("cold key routed %v, want compute request", got)
		}
	}
	if o.Stats().DataReqs != 0 {
		t.Fatal("cold keys triggered purchases")
	}
}

func TestCheapRentNeverBuys(t *testing.T) {
	o := newFO(1 << 20)
	// UDF cost dominates both rent and recurring cost (rent <= recur):
	// buying can never pay off.
	learn(o, "k", 100, 0.5)
	for i := 0; i < 1000; i++ {
		if got := o.Route("k", testBw); got != RouteCompute {
			t.Fatalf("iteration %d routed %v, want compute (rent<=recur)", i, got)
		}
	}
}

func TestOversizedValueGoesToDiskCache(t *testing.T) {
	o := New(Config{Policy: Policy{Caching: true}, MemCacheBytes: 1000, DiskCacheBytes: 1 << 20})
	learn(o, "big", 100_000, 1e-4) // does not fit mCache
	var route Route
	for i := 0; i < 5000; i++ {
		route = o.Route("big", testBw)
		if route == RouteDataDisk {
			break
		}
		if route == RouteDataMem {
			t.Fatal("oversized item routed to memory cache")
		}
	}
	if route != RouteDataDisk {
		t.Fatalf("oversized hot item never bought to disk (last=%v)", route)
	}
	o.OnValueFetched("big", 100_000, 0, nil, false)
	if got := o.Route("big", testBw); got != RouteLocalDisk {
		t.Fatalf("after disk purchase route = %v, want local-disk", got)
	}
}

func TestPolicyAlwaysFetch(t *testing.T) {
	o := New(Config{Policy: Policy{AlwaysFetch: true}})
	for i := 0; i < 10; i++ {
		if got := o.Route("k", testBw); got != RouteDataNoCache {
			t.Fatalf("FC route = %v, want data-req-nocache", got)
		}
	}
}

func TestPolicyAlwaysCompute(t *testing.T) {
	o := New(Config{Policy: Policy{AlwaysCompute: true}})
	for i := 0; i < 10; i++ {
		if got := o.Route("k", testBw); got != RouteCompute {
			t.Fatalf("FD route = %v, want compute-req", got)
		}
	}
}

func TestPolicyRandomMixes(t *testing.T) {
	o := New(Config{Policy: Policy{RandomChoice: true}, Seed: 42})
	var comp, data int
	for i := 0; i < 1000; i++ {
		switch o.Route("k", testBw) {
		case RouteCompute:
			comp++
		case RouteDataNoCache:
			data++
		default:
			t.Fatal("FR produced unexpected route")
		}
	}
	if comp < 400 || data < 400 {
		t.Fatalf("FR split %d/%d, want roughly even", comp, data)
	}
}

func TestUpdateResetsCounter(t *testing.T) {
	o := newFO(1 << 20)
	learn(o, "k", 50_000, 1e-4)
	// Access until just below the buy threshold.
	for i := 0; i < 3; i++ {
		o.Route("k", testBw)
	}
	before := o.Frequency("k")
	// A compute response with a newer version resets the counter.
	o.OnComputeResponse(ResponseMeta{
		Key: "k", ValueSize: 50_000, ComputedSize: 100,
		ComputeCost: 1e-4, Version: 7,
	})
	if got := o.Frequency("k"); got >= before {
		t.Fatalf("counter not reset on update: %d -> %d", before, got)
	}
	if o.Stats().CounterReset != 1 {
		t.Fatal("reset not counted")
	}
}

func TestInvalidateDropsCacheAndCounter(t *testing.T) {
	o := newFO(1 << 20)
	learn(o, "k", 1000, 1e-4)
	for i := 0; i < 200; i++ {
		if r := o.Route("k", testBw); r == RouteDataMem || r == RouteDataDisk {
			o.OnValueFetched("k", 1000, 0, nil, r == RouteDataMem)
		}
	}
	if _, _, ok := o.Cache.Lookup("k"); !ok {
		t.Fatal("setup failed: key not cached")
	}
	o.Invalidate("k", 9)
	if _, _, ok := o.Cache.Lookup("k"); ok {
		t.Fatal("invalidate left key in cache")
	}
	if o.Frequency("k") != 0 {
		t.Fatal("invalidate did not reset the counter")
	}
}

// TestInvalidateFencesUnknownKey: an invalidation for a key with no KeyInfo
// still leaves its version behind for KnownVersion — without creating a
// KeyInfo, which would change what Route decides — and the key's first
// KeyInfo inherits it; versions never run backwards from there.
func TestInvalidateFencesUnknownKey(t *testing.T) {
	o := newFO(1 << 20)
	o.Invalidate("k", 5)
	if _, ok := o.Known("k"); ok {
		t.Fatal("an invalidation created a KeyInfo for a key never seen on a response")
	}
	if got := o.KnownVersion("k"); got != 5 {
		t.Fatalf("KnownVersion after the invalidation = %d, want 5", got)
	}
	if got := o.Route("k", testBw); got != RouteCompute || o.Stats().FirstContact != 1 {
		t.Fatalf("route = %v, first contacts = %d; a fenced key must still take the first-contact path", got, o.Stats().FirstContact)
	}
	o.OnComputeResponse(ResponseMeta{Key: "k", ValueSize: 10, Version: 4}) // a reply that predates the write
	if got := o.KnownVersion("k"); got != 5 {
		t.Fatalf("KnownVersion after an older response = %d, want it held at 5", got)
	}
	o.Invalidate("k", 3)
	o.OnValueFetched("k", 10, 7, nil, true)
	if got := o.KnownVersion("k"); got != 7 {
		t.Fatalf("KnownVersion = %d, want 7 (an older invalidation ignored, the newer fetch taken)", got)
	}
}

// TestForgetVersions: the matched keys' versions and fences go back to 0 —
// so a history that restarted there passes the fence again — and nothing
// else about the keys changes.
func TestForgetVersions(t *testing.T) {
	o := newFO(1 << 20)
	o.OnComputeResponse(ResponseMeta{Key: "a", ValueSize: 10, Version: 5})
	o.OnComputeResponse(ResponseMeta{Key: "b", ValueSize: 10, Version: 6})
	o.Invalidate("fenced", 7)
	o.ForgetVersions(func(k string) bool { return k != "b" })
	if a, b, f := o.KnownVersion("a"), o.KnownVersion("b"), o.KnownVersion("fenced"); a != 0 || b != 6 || f != 0 {
		t.Fatalf("versions a=%d b=%d fenced=%d, want 0, 6 (not matched), 0", a, b, f)
	}
	if info, ok := o.Known("a"); !ok || info.ValueSize != 10 {
		t.Fatalf("forgetting a's version disturbed its KeyInfo: %+v", info)
	}
}

func TestFreezeStopsBuying(t *testing.T) {
	o := New(Config{
		Policy:        Policy{Caching: true},
		MemCacheBytes: 1 << 20,
		FreezeAfter:   5,
	})
	learn(o, "k", 50_000, 1e-4)
	for i := 0; i < 500; i++ {
		r := o.Route("k", testBw)
		if r == RouteDataMem || r == RouteDataDisk {
			if i >= 5 {
				t.Fatalf("purchase at routed=%d after freeze point", i)
			}
			o.OnValueFetched("k", 50_000, 0, nil, true)
		}
	}
}

func TestFrozenCacheStillServesHits(t *testing.T) {
	o := New(Config{
		Policy:        Policy{Caching: true},
		MemCacheBytes: 1 << 20,
		FreezeAfter:   1000,
	})
	learn(o, "k", 50_000, 1e-4)
	for i := 0; i < 100; i++ {
		if r := o.Route("k", testBw); r == RouteDataMem || r == RouteDataDisk {
			o.OnValueFetched("k", 50_000, 0, nil, true)
		}
	}
	if _, tier, ok := o.Cache.Lookup("k"); !ok || tier != cache.TierMem {
		t.Fatal("setup failed: key not in memory cache")
	}
	// Push past the freeze point.
	for i := 0; i < 2000; i++ {
		o.Route("other", testBw)
	}
	if got := o.Route("k", testBw); got != RouteLocalMem {
		t.Fatalf("frozen cache did not serve hit: %v", got)
	}
}

func TestLearnedInfoExposed(t *testing.T) {
	o := newFO(1 << 20)
	learn(o, "k", 1234, 0.5)
	info, ok := o.Known("k")
	if !ok || info.ValueSize != 1234 || info.ComputeCost != 0.5 {
		t.Fatalf("Known = %+v, %v", info, ok)
	}
	if _, ok := o.Known("absent"); ok {
		t.Fatal("unknown key returned info")
	}
}

func TestRouteString(t *testing.T) {
	names := map[Route]string{
		RouteLocalMem: "local-mem", RouteLocalDisk: "local-disk",
		RouteCompute: "compute-req", RouteDataMem: "data-req-mem",
		RouteDataDisk: "data-req-disk", RouteDataNoCache: "data-req-nocache",
		Route(99): "unknown",
	}
	for r, want := range names {
		if r.String() != want {
			t.Fatalf("%d.String() = %q, want %q", r, r.String(), want)
		}
	}
}

// The ratio of purchases to accesses for a hot key must respect the
// ski-rental bound: at most one purchase, after roughly b/(r-br) rents.
func TestSkiRentalAccountingOnHotKey(t *testing.T) {
	o := newFO(1 << 20)
	learn(o, "hot", 50_000, 1e-4)
	purchases := 0
	rentsBefore := 0
	for i := 0; i < 1000; i++ {
		switch r := o.Route("hot", testBw); r {
		case RouteCompute:
			if purchases == 0 {
				rentsBefore++
			}
		case RouteDataMem, RouteDataDisk:
			purchases++
			o.OnValueFetched("hot", 50_000, 0, nil, true)
		}
	}
	if purchases != 1 {
		t.Fatalf("purchases = %d, want exactly 1", purchases)
	}
	if rentsBefore == 0 {
		t.Fatal("bought immediately; ski-rental must rent first")
	}
	if rentsBefore > 200 {
		t.Fatalf("rented %d times before buying; threshold unreasonably high", rentsBefore)
	}
}

func TestOffloadDisabledByDefault(t *testing.T) {
	o := newFO(1 << 20)
	learn(o, "k", 50_000, 1e-4)
	for i := 0; i < 50; i++ {
		if r := o.Route("k", testBw); r == RouteDataMem || r == RouteDataDisk {
			o.OnValueFetched("k", 50_000, 0, nil, true)
		}
	}
	for i := 0; i < 50; i++ {
		o.ObserveLocalCompute(100e-4, 1e-4) // extreme local congestion
	}
	// Faithful paper behavior (footnote 4): cached keys stay local.
	if got := o.Route("k", testBw); got != RouteLocalMem {
		t.Fatalf("default route = %v, want local despite congestion", got)
	}
}

func TestConfigShardBudgetSplit(t *testing.T) {
	base := Config{MemCacheBytes: 1 << 20, DiskCacheBytes: 1000, FreezeAfter: 10, Seed: 3}
	if got := base.Shard(0, 1); got != base {
		t.Fatalf("Shard(0,1) changed the config: %+v", got)
	}
	const n = 7
	var mem, disk int64
	seeds := make(map[int64]bool)
	for i := 0; i < n; i++ {
		sc := base.Shard(i, n)
		mem += sc.MemCacheBytes
		disk += sc.DiskCacheBytes
		if sc.FreezeAfter < 1 || sc.FreezeAfter > base.FreezeAfter {
			t.Fatalf("shard %d FreezeAfter = %d", i, sc.FreezeAfter)
		}
		if sc.Policy != base.Policy {
			t.Fatalf("shard %d changed the policy", i)
		}
		seeds[sc.Seed] = true
	}
	if mem != base.MemCacheBytes {
		t.Fatalf("shard mem budgets sum to %d, want %d", mem, base.MemCacheBytes)
	}
	if disk != base.DiskCacheBytes {
		t.Fatalf("shard disk budgets sum to %d, want %d", disk, base.DiskCacheBytes)
	}
	if len(seeds) != n {
		t.Fatalf("shard seeds not decorrelated: %d distinct of %d", len(seeds), n)
	}
	// An empty disk tier must stay empty on every shard, and the zero
	// (default) mem budget must divide the default, not stay zero.
	sc := (Config{}).Shard(2, 4)
	if sc.DiskCacheBytes != 0 {
		t.Fatalf("an empty disk tier got a shard budget: %d", sc.DiskCacheBytes)
	}
	if sc.MemCacheBytes != (100<<20)/4 {
		t.Fatalf("default mem budget shard = %d, want %d", sc.MemCacheBytes, (100<<20)/4)
	}
	// Shard-local optimizers must be constructible even for tiny budgets.
	for i := 0; i < 4; i++ {
		New(Config{MemCacheBytes: 2}.Shard(i, 4))
	}
}

// TestDiskHitPromotionKeepsValue: a disk-tier hit that promotes the entry
// to memory removes the disk copy, so the promoted entry must carry the
// cached value — the live executor reads it right after Route.
func TestDiskHitPromotionKeepsValue(t *testing.T) {
	o := New(Config{Policy: Policy{Caching: true}, MemCacheBytes: 1000, DiskCacheBytes: 1000})
	learn(o, "k", 100, 1e-4)
	o.OnValueFetched("k", 100, 1, []byte("row"), false) // bought to disk
	if got := o.Route("k", testBw); got != RouteLocalDisk {
		t.Fatalf("route = %v, want local-disk", got)
	}
	it, tier, ok := o.Cache.Lookup("k")
	if !ok || tier != cache.TierMem {
		t.Fatalf("disk hit with free memory was not promoted (tier %v, ok %v)", tier, ok)
	}
	if v, _ := it.Value.([]byte); string(v) != "row" {
		t.Fatalf("promoted entry holds %v, want the cached value", it.Value)
	}
}

// TestDiskTierOnlyWhenSized runs one skewed stream, whose bought values
// overflow the memory tier, through two configs. The zero-value one has no
// disk tier: it never routes to or from disk, and its disk tier stays empty.
// With a disk tier sized to hold the overflow, the same stream demotes
// memory evictions there, hits them, and promotes them back.
func TestDiskTierOnlyWhenSized(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"zero-value", Config{Policy: Policy{Caching: true}}},
		{"explicit-disk", Config{Policy: Policy{Caching: true}, DiskCacheBytes: 1 << 40}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const size = 1 << 20 // DefaultMemCacheBytes holds 100 of these
			o := New(tc.cfg)
			rng := rand.New(rand.NewSource(5))
			zipf := rand.NewZipf(rng, 1.1, 1, 999)
			routes := make(map[Route]int)
			promoted := 0
			for i := 0; i < 200_000; i++ {
				k := fmt.Sprintf("k%d", zipf.Uint64())
				r := o.Route(k, testBw)
				routes[r]++
				switch r {
				case RouteCompute:
					o.OnComputeResponse(ResponseMeta{Key: k, ValueSize: size, ComputedSize: 100, ComputeCost: 1e-4})
				case RouteDataMem, RouteDataDisk:
					o.OnValueFetched(k, size, 0, nil, r == RouteDataMem)
				case RouteLocalDisk:
					if _, tier, _ := o.Cache.Lookup(k); tier == cache.TierMem {
						promoted++
					}
				}
			}
			cs := o.Cache.Stats()
			if cs.EvictToDisk == 0 || routes[RouteLocalMem] == 0 {
				t.Fatalf("the stream never evicted or hit memory (routes %v, cache %+v): it tests nothing", routes, cs)
			}
			disk := routes[RouteDataDisk] + routes[RouteLocalDisk]
			if tc.cfg.DiskCacheBytes == 0 {
				if disk != 0 || o.Cache.DiskLen() != 0 || cs.DiskInserts != 0 {
					t.Fatalf("no disk tier, yet routes %v, DiskLen %d, cache %+v", routes, o.Cache.DiskLen(), cs)
				}
				return
			}
			if cs.DiskInserts == 0 || routes[RouteLocalDisk] == 0 || promoted == 0 {
				t.Fatalf("a sized disk tier must demote, hit and promote: routes %v, promoted %d, cache %+v",
					routes, promoted, cs)
			}
		})
	}
}

// TestFrequencyMatchesLossyReference: the count each record keeps is the
// lossy-counting rule of freq.Lossy, compresses included. At ε = 0.01 a
// bucket closes every 100 observations, so a compress fires many times;
// after every call each key seen must estimate what a freq.Lossy fed the
// same observations and resets estimates.
func TestFrequencyMatchesLossyReference(t *testing.T) {
	const eps = 0.01
	o := New(Config{Policy: Policy{Caching: true}, MemCacheBytes: 1 << 20, Epsilon: eps})
	ref := freq.NewLossy(eps)
	rng := rand.New(rand.NewSource(11))
	zipf := rand.NewZipf(rng, 1.2, 1, 299)
	seen := make(map[string]bool)
	learned := make(map[string]bool)
	versions := make(map[string]int64)
	for i := 0; i < 6000; i++ {
		k := fmt.Sprintf("k%d", zipf.Uint64())
		seen[k] = true
		switch p := rng.Intn(20); {
		case p == 0: // an update notification
			versions[k]++
			o.Invalidate(k, versions[k])
			ref.Reset(k)
		case p == 1: // a response that saw a newer version of the row
			versions[k]++
			o.OnComputeResponse(ResponseMeta{Key: k, ValueSize: 1000, ComputedSize: 100, ComputeCost: 1e-4, Version: versions[k]})
			if learned[k] {
				ref.Reset(k)
			}
			learned[k] = true
		default:
			if r := o.Route(k, testBw); r == RouteDataMem || r == RouteDataDisk {
				o.OnValueFetched(k, 1000, versions[k], nil, r == RouteDataMem)
				learned[k] = true
			}
			ref.Observe(k)
		}
		for s := range seen {
			if got, want := o.Frequency(s), ref.Estimate(s); got != want {
				t.Fatalf("call %d: Frequency(%s) = %d, reference lossy counter says %d", i, s, got, want)
			}
		}
	}
	if o.Stats().CounterReset == 0 || o.Stats().DataReqs == 0 {
		t.Fatalf("stream never reset a count or bought a value: %+v", o.Stats())
	}
}

// TestRecordsBoundedUnderExactCounting: exact counting (Epsilon 0, what the
// live client runs) never compresses, so the record map's one bound is
// maxKeys: keys routed once each must not grow it past that.
func TestRecordsBoundedUnderExactCounting(t *testing.T) {
	o := newFO(1 << 20)
	o.maxKeys = 1024
	for i := 0; i < 4*o.maxKeys; i++ {
		o.Route(fmt.Sprintf("k%d", i), testBw)
		if len(o.recs) > o.maxKeys {
			t.Fatalf("after %d distinct keys the optimizer holds %d records, bound %d", i+1, len(o.recs), o.maxKeys)
		}
	}
}

// TestPrunedRecordReusedClean: a record dropped at maxKeys goes back on the
// free list, and the new key that takes it starts from nothing — whatever
// costs, version, fence or count the dropped key left behind.
func TestPrunedRecordReusedClean(t *testing.T) {
	o := newFO(1 << 20)
	o.maxKeys = 4
	for i := 0; i < o.maxKeys; i++ {
		k := fmt.Sprintf("k%d", i)
		o.Route(k, testBw) // a count of 1: still prunable
		o.OnComputeResponse(ResponseMeta{Key: k, ValueSize: 10, ComputedSize: 5, ComputeCost: 1, Version: 3})
	}
	o.Invalidate("k0", 9) // one record carries a fence above its learned version
	dropped := make(map[*keyRec]bool, len(o.recs))
	for _, r := range o.recs {
		dropped[r] = true
	}
	for i := 0; i < o.maxKeys; i++ {
		k := fmt.Sprintf("new%d", i)
		before := o.Stats().FirstContact
		if got := o.Route(k, testBw); got != RouteCompute || o.Stats().FirstContact != before+1 {
			t.Fatalf("%s: route %v, first contacts %d -> %d; want a first-contact compute request", k, got, before, o.Stats().FirstContact)
		}
		if !dropped[o.recs[k]] {
			t.Fatalf("%s did not land on a pruned record", k)
		}
		delete(dropped, o.recs[k])
		if _, ok := o.Known(k); ok {
			t.Fatalf("%s inherited learned costs", k)
		}
		if v := o.KnownVersion(k); v != 0 {
			t.Fatalf("%s: KnownVersion %d, want 0", k, v)
		}
		if f := o.Frequency(k); f != 1 {
			t.Fatalf("%s: Frequency %d, want 1", k, f)
		}
	}
	if len(dropped) != 0 {
		t.Fatalf("%d pruned records were never reused", len(dropped))
	}
}
