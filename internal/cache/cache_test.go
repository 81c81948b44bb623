package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFitsInFreeSpace(t *testing.T) {
	c := New(100, 0)
	if !c.CondCacheInMemory("a", 60, "va", true) {
		t.Fatal("item fitting in free space rejected")
	}
	if !c.CondCacheInMemory("b", 40, "vb", true) {
		t.Fatal("second item fitting exactly rejected")
	}
	if c.MemUsed() != 100 || c.MemLen() != 2 {
		t.Fatalf("mem used=%d len=%d, want 100/2", c.MemUsed(), c.MemLen())
	}
}

func TestOversizedItemNeverAdmitted(t *testing.T) {
	c := New(100, 0)
	if c.CondCacheInMemory("big", 101, nil, true) {
		t.Fatal("item larger than mCache admitted")
	}
}

func TestEvictionRequiresHigherBenefit(t *testing.T) {
	c := New(100, 1000)
	c.UpdateBenefit("old", 10)
	if !c.CondCacheInMemory("old", 100, "v", true) {
		t.Fatal("initial insert failed")
	}
	// Newcomer with lower benefit must be rejected.
	c.UpdateBenefit("new", 5)
	if c.CondCacheInMemory("new", 100, "v", true) {
		t.Fatal("lower-benefit item evicted a higher-benefit one")
	}
	// Newcomer with higher benefit evicts to disk.
	c.UpdateBenefit("new", 20)
	if !c.CondCacheInMemory("new", 100, "v", true) {
		t.Fatal("higher-benefit item was rejected")
	}
	if _, tier, ok := c.Lookup("old"); !ok || tier != TierDisk {
		t.Fatalf("evicted item not on disk: tier=%v ok=%v", tier, ok)
	}
	if _, tier, _ := c.Lookup("new"); tier != TierMem {
		t.Fatal("new item not in memory")
	}
}

func TestVariableSizeEvictionKeepsBestFit(t *testing.T) {
	c := New(100, 1000)
	// Three items: benefits 1, 2, 30 with sizes 40, 30, 30.
	c.UpdateBenefit("low", 1)
	c.CondCacheInMemory("low", 40, nil, true)
	c.UpdateBenefit("mid", 2)
	c.CondCacheInMemory("mid", 30, nil, true)
	c.UpdateBenefit("high", 30)
	c.CondCacheInMemory("high", 30, nil, true)
	// New item of size 50 with large benefit: must evict from the low end.
	c.UpdateBenefit("new", 50)
	if !c.CondCacheInMemory("new", 50, nil, true) {
		t.Fatal("beneficial item rejected")
	}
	if _, tier, _ := c.Lookup("high"); tier != TierMem {
		t.Fatal("highest-benefit resident was evicted")
	}
	if _, tier, _ := c.Lookup("new"); tier != TierMem {
		t.Fatal("new item missing from memory")
	}
	// Of low/mid, the algorithm keeps what fits in the slack: after
	// freeing both (70), slack = 100-50-30(high)=20 ... mid (30) cannot
	// fit, low(40) cannot: both must be on disk.
	if _, tier, _ := c.Lookup("low"); tier != TierDisk {
		t.Fatal("low not demoted to disk")
	}
	if c.MemUsed() > 100 {
		t.Fatalf("memory overcommitted: %d", c.MemUsed())
	}
}

func TestAdmissionTestDoesNotInsert(t *testing.T) {
	c := New(100, 0)
	c.UpdateBenefit("k", 5)
	if !c.CondCacheInMemory("k", 50, nil, false) {
		t.Fatal("admission test rejected admissible item")
	}
	if _, _, ok := c.Lookup("k"); ok {
		t.Fatal("admission test inserted the item")
	}
}

func TestAddToDiskAndPromotion(t *testing.T) {
	c := New(100, 1000)
	c.UpdateBenefit("k", 5)
	c.AddToDisk("k", 80, "v")
	if _, tier, _ := c.Lookup("k"); tier != TierDisk {
		t.Fatal("AddToDisk did not store on disk")
	}
	// Promote via CondCacheInMemory the way a disk hit does — with the
	// looked-up item's own value: the item must move, not copy, and the
	// memory entry is the only holder of the value afterwards.
	it, _, _ := c.Get("k")
	if !c.CondCacheInMemory("k", it.Size, it.Value, true) {
		t.Fatal("promotion rejected")
	}
	if got, tier, _ := c.Lookup("k"); tier != TierMem || got.Value != "v" {
		t.Fatalf("promoted item = %+v in %v, want value \"v\" in memory", got, tier)
	}
	if c.DiskLen() != 0 {
		t.Fatal("promoted item left a copy on disk")
	}
}

// A disk tier of 0 bytes holds nothing: a memory eviction and a direct
// disk install are both dropped, so the cache is one bounded tier.
func TestZeroDiskTierHoldsNothing(t *testing.T) {
	c := New(100, 0)
	c.UpdateBenefit("old", 1)
	c.CondCacheInMemory("old", 100, "v", true)
	c.UpdateBenefit("new", 5)
	if !c.CondCacheInMemory("new", 100, "v", true) {
		t.Fatal("higher-benefit item was rejected")
	}
	c.AddToDisk("d", 10, "v")
	if _, _, ok := c.Lookup("old"); ok {
		t.Fatal("an evicted item stayed cached")
	}
	if _, _, ok := c.Lookup("d"); ok {
		t.Fatal("AddToDisk stored an item in a zero-byte disk tier")
	}
	if c.DiskLen() != 0 || c.DiskUsed() != 0 || c.Stats().DiskInserts != 0 {
		t.Fatalf("disk tier holds %d items, %d bytes; stats %+v", c.DiskLen(), c.DiskUsed(), c.Stats())
	}
	if c.Stats().EvictToDisk != 1 {
		t.Fatalf("EvictToDisk = %d, want 1: the memory eviction still counts", c.Stats().EvictToDisk)
	}
}

func TestBoundedDiskEvicts(t *testing.T) {
	c := New(100, 100)
	c.AddToDisk("a", 60, nil)
	c.AddToDisk("b", 60, nil)
	if c.DiskUsed() > 100 {
		t.Fatalf("disk overcommitted: %d", c.DiskUsed())
	}
	if c.DiskLen() != 1 {
		t.Fatalf("disk len=%d, want 1 after eviction", c.DiskLen())
	}
}

func TestInvalidate(t *testing.T) {
	c := New(100, 1000)
	c.UpdateBenefit("m", 3)
	c.CondCacheInMemory("m", 10, nil, true)
	c.AddToDisk("d", 10, nil)
	if !c.Invalidate("m") || !c.Invalidate("d") {
		t.Fatal("invalidate returned false for cached keys")
	}
	if c.Invalidate("nope") {
		t.Fatal("invalidate returned true for unknown key")
	}
	if len(c.Keys()) != 0 {
		t.Fatalf("keys remain after invalidation: %v", c.Keys())
	}
	if c.Stats().Invalidations != 2 {
		t.Fatalf("invalidations=%d, want 2", c.Stats().Invalidations)
	}
}

func TestLFUDAAgingLetsNewItemsIn(t *testing.T) {
	c := New(100, 0)
	// An item becomes very hot, then goes cold.
	for i := 0; i < 100; i++ {
		c.UpdateBenefit("veteran", 1)
	}
	c.CondCacheInMemory("veteran", 100, nil, true)
	// Evict it once via a hotter item to raise L.
	for i := 0; i < 200; i++ {
		c.UpdateBenefit("challenger", 1)
	}
	if !c.CondCacheInMemory("challenger", 100, nil, true) {
		t.Fatal("hotter challenger rejected")
	}
	// Aging factor is now >= veteran's benefit, so a fresh key needs only
	// a few touches to beat the (aged) challenger baseline eventually.
	if c.AgingFactor() < 100 {
		t.Fatalf("aging factor %v, want >= veteran benefit 100", c.AgingFactor())
	}
	newcomerBen := c.UpdateBenefit("newcomer", 1)
	if newcomerBen <= 100 {
		t.Fatalf("newcomer benefit %v not boosted by aging factor", newcomerBen)
	}
}

func TestGetRecordsStats(t *testing.T) {
	c := New(100, 1000)
	c.CondCacheInMemory("m", 10, nil, true)
	c.AddToDisk("d", 10, nil)
	c.Get("m")
	c.Get("d")
	c.Get("x")
	s := c.Stats()
	if s.MemHits != 1 || s.DiskHits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// Property: the memory tier never exceeds its capacity, regardless of the
// operation mix.
func TestMemNeverOvercommittedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(1000, 500)
		for i := 0; i < 300; i++ {
			k := fmt.Sprintf("k%d", rng.Intn(40))
			switch rng.Intn(4) {
			case 0:
				c.UpdateBenefit(k, rng.Float64()*10)
			case 1:
				c.CondCacheInMemory(k, int64(rng.Intn(600)+1), nil, rng.Intn(2) == 0)
			case 2:
				c.AddToDisk(k, int64(rng.Intn(600)+1), nil)
			case 3:
				c.Invalidate(k)
			}
			if c.MemUsed() > 1000 || c.DiskUsed() > 500 {
				return false
			}
			if c.MemUsed() < 0 || c.DiskUsed() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: an item is never resident in both tiers at once.
func TestNoDualResidencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(500, 1000)
		for i := 0; i < 200; i++ {
			k := fmt.Sprintf("k%d", rng.Intn(10))
			c.UpdateBenefit(k, rng.Float64()*5)
			if rng.Intn(2) == 0 {
				c.CondCacheInMemory(k, int64(rng.Intn(300)+1), nil, true)
			} else {
				c.AddToDisk(k, int64(rng.Intn(300)+1), nil)
			}
		}
		seen := map[string]bool{}
		for _, k := range c.Keys() {
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: rejecting an admission leaves the cache contents unchanged.
func TestRejectionIsSideEffectFreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(100, 0)
		// Fill with high-benefit items.
		for i := 0; i < 4; i++ {
			k := fmt.Sprintf("res%d", i)
			c.UpdateBenefit(k, 100+rng.Float64())
			c.CondCacheInMemory(k, 25, nil, true)
		}
		before := fmt.Sprint(c.Keys(), c.MemUsed())
		// Low-benefit challenger must be rejected and change nothing.
		c.UpdateBenefit("challenger", 0.001)
		if c.CondCacheInMemory("challenger", 90, nil, true) {
			return true // admitted legitimately (aging could allow it)
		}
		after := fmt.Sprint(c.Keys(), c.MemUsed())
		return before == after
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGhostBenefitSurvivesUntilCached(t *testing.T) {
	c := New(100, 0)
	c.UpdateBenefit("k", 7)
	if got := c.Benefit("k"); got != 7 {
		t.Fatalf("ghost benefit = %v, want 7", got)
	}
	c.CondCacheInMemory("k", 10, nil, true)
	if got := c.Benefit("k"); got != 7 {
		t.Fatalf("cached benefit = %v, want 7 (carried over)", got)
	}
}

func TestSplitBudget(t *testing.T) {
	cases := []struct {
		total int64
		n     int
	}{
		{100 << 20, 8}, {1000, 7}, {5, 8}, {1, 16}, {3, 2},
	}
	for _, tc := range cases {
		var sum int64
		for i := 0; i < tc.n; i++ {
			share := SplitBudget(tc.total, i, tc.n)
			if share < 1 {
				t.Fatalf("SplitBudget(%d, %d, %d) = %d, want >= 1", tc.total, i, tc.n, share)
			}
			sum += share
			// Every share must be usable as a cache capacity.
			New(share, 0)
		}
		if tc.total >= int64(tc.n) && sum != tc.total {
			t.Fatalf("SplitBudget(%d, _, %d) shares sum to %d", tc.total, tc.n, sum)
		}
	}
	if got := SplitBudget(12345, 0, 1); got != 12345 {
		t.Fatalf("SplitBudget(n=1) = %d, want the whole budget", got)
	}
}
