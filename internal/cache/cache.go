// Package cache implements the paper's two-tier compute-node cache
// (Section 4.2.2 and Appendix B): a bounded in-memory cache (mCache), a disk
// cache (dCache), weighted LFU-DA benefit tracking with aging, and the
// condCacheInMemory admission/eviction procedure for both uniform
// (Algorithm 2) and variable (Algorithm 3) item sizes.
package cache

import (
	"container/heap"
	"maps"
	"slices"
	"sort"
)

// Tier identifies which cache level holds an item.
type Tier int

const (
	// TierNone means the item is not cached.
	TierNone Tier = iota
	// TierMem is the in-memory cache (mCache).
	TierMem
	// TierDisk is the on-disk cache (dCache).
	TierDisk
)

// String returns a short name for the tier.
func (t Tier) String() string {
	switch t {
	case TierMem:
		return "mem"
	case TierDisk:
		return "disk"
	}
	return "none"
}

// Item is a cached value. Value is opaque to the cache; the simulator stores
// metadata, the live plane stores bytes.
type Item struct {
	Key   string
	Size  int64
	Value interface{}
}

type entry struct {
	Item
	benefit float64
	tier    *tier // the tier holding the entry
	idx     int   // position in that tier's min-heap
}

type entryHeap []*entry

func (h entryHeap) Len() int            { return len(h) }
func (h entryHeap) Less(i, j int) bool  { return h[i].benefit < h[j].benefit }
func (h entryHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].idx = i; h[j].idx = j }
func (h *entryHeap) Push(x interface{}) { e := x.(*entry); e.idx = len(*h); *h = append(*h, e) }
func (h *entryHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}

// tier is one cache level: its entries' min-heap by benefit and its space.
// The entries themselves are indexed in TwoTier.items, shared by both tiers.
type tier struct {
	id   Tier
	h    entryHeap
	used int64
	cap  int64 // bytes; a tier of 0 holds nothing
}

func (t *tier) free() int64 { return t.cap - t.used }

// add places e in tier t and indexes it.
func (c *TwoTier) add(t *tier, e *entry) {
	c.items[e.Key] = e
	e.tier = t
	heap.Push(&t.h, e)
	t.used += e.Size
}

// remove drops e from its tier and from the index.
func (c *TwoTier) remove(e *entry) {
	delete(c.items, e.Key)
	heap.Remove(&e.tier.h, e.idx)
	e.tier.used -= e.Size
}

func (t *tier) min() *entry {
	if len(t.h) == 0 {
		return nil
	}
	return t.h[0]
}

// Stats counts cache activity for metrics and tests.
type Stats struct {
	MemHits       int64
	DiskHits      int64
	Misses        int64
	MemInserts    int64
	DiskInserts   int64
	EvictToDisk   int64
	EvictFromDisk int64
	Rejected      int64 // condCacheInMemory said no
	Invalidations int64
}

// TwoTier is the compute-node cache. It is not safe for concurrent use; the
// simulator is single-threaded and the live plane wraps it with a mutex.
type TwoTier struct {
	// items indexes every cached entry, whichever tier holds it: a key is
	// in at most one tier.
	items map[string]*entry
	mem   *tier
	disk  *tier

	// LFU-DA aging factor: set to the benefit of the last item evicted
	// from memory so that newly touched items are not starved by
	// long-dead heavy hitters.
	agingL float64

	// benefits remembers benefit for keys not currently cached so that a
	// key builds up admission credit before it is bought. Bounded by
	// maxGhost entries; lowest-benefit ghosts are pruned.
	benefits map[string]float64
	maxGhost int

	stats Stats
}

// SplitBudget returns shard i's slice of a byte budget divided n ways:
// total/n with the remainder spread over the low shards, never less than
// one byte so a shard-local cache stays constructible. Callers that stripe
// one logical cache across n shard-local TwoTier instances use this so the
// striped whole still respects the configured total.
func SplitBudget(total int64, i, n int) int64 {
	if n <= 1 {
		return total
	}
	share := total / int64(n)
	if int64(i) < total%int64(n) {
		share++
	}
	if share < 1 {
		share = 1
	}
	return share
}

// New creates a two-tier cache with the given capacities in bytes. A diskCap
// of 0 holds nothing: memory evictions are dropped, and the cache is one
// tier. The paper's default, an unbounded dCache, is the caller's to ask
// for with a large diskCap (the sim plane's exec.Config does).
func New(memCap, diskCap int64) *TwoTier {
	if memCap <= 0 {
		panic("cache: memory capacity must be positive")
	}
	return &TwoTier{
		items:    make(map[string]*entry),
		mem:      &tier{id: TierMem, cap: memCap},
		disk:     &tier{id: TierDisk, cap: diskCap},
		benefits: make(map[string]float64),
		maxGhost: 1 << 16,
	}
}

// Stats returns a copy of the activity counters.
func (c *TwoTier) Stats() Stats { return c.stats }

// MemUsed returns bytes currently held in the memory tier.
func (c *TwoTier) MemUsed() int64 { return c.mem.used }

// DiskUsed returns bytes currently held in the disk tier.
func (c *TwoTier) DiskUsed() int64 { return c.disk.used }

// MemLen returns the number of items in the memory tier.
func (c *TwoTier) MemLen() int { return len(c.mem.h) }

// DiskLen returns the number of items in the disk tier.
func (c *TwoTier) DiskLen() int { return len(c.disk.h) }

// AgingFactor exposes the current LFU-DA L value (for tests/metrics).
func (c *TwoTier) AgingFactor() float64 { return c.agingL }

// UpdateBenefit implements updateBenefit(k) from Algorithm 1: it credits the
// key with weight (typically the rent cost it would save per access) using
// the LFU-DA rule benefit = max(old, L) + weight, so that recency (via L)
// and frequency (via accumulation) both count.
func (c *TwoTier) UpdateBenefit(key string, weight float64) float64 {
	if e := c.items[key]; e != nil {
		e.benefit = lfuda(e.benefit, c.agingL, weight)
		heap.Fix(&e.tier.h, e.idx)
		return e.benefit
	}
	b := lfuda(c.benefits[key], c.agingL, weight)
	c.benefits[key] = b
	if len(c.benefits) > c.maxGhost {
		c.pruneGhosts()
	}
	return b
}

func lfuda(old, l, weight float64) float64 {
	if old < l {
		old = l
	}
	return old + weight
}

// pruneGhosts drops the lower-benefit half of the ghost map.
func (c *TwoTier) pruneGhosts() {
	vals := make([]float64, 0, len(c.benefits))
	for _, v := range c.benefits {
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	cut := vals[len(vals)/2]
	for k, v := range c.benefits {
		if v <= cut {
			delete(c.benefits, k)
		}
	}
}

// Benefit returns the current benefit for a key, whether cached or ghost.
func (c *TwoTier) Benefit(key string) float64 {
	if e := c.items[key]; e != nil {
		return e.benefit
	}
	return c.benefits[key]
}

// Lookup finds key in either tier without recording a hit.
func (c *TwoTier) Lookup(key string) (Item, Tier, bool) {
	if e := c.items[key]; e != nil {
		return e.Item, e.tier.id, true
	}
	return Item{}, TierNone, false
}

// Get finds key in either tier and records hit/miss statistics.
func (c *TwoTier) Get(key string) (Item, Tier, bool) {
	it, tier, ok := c.Lookup(key)
	switch tier {
	case TierMem:
		c.stats.MemHits++
	case TierDisk:
		c.stats.DiskHits++
	default:
		c.stats.Misses++
	}
	return it, tier, ok
}

// CondCacheInMemory implements Algorithms 2 and 3. If insert is true and the
// decision is positive, the item is actually placed in the memory tier
// (evicting lower-benefit items to disk as needed); if insert is false the
// call is a pure admission test (the second-argument-phi case of
// Algorithm 1 line 14).
//
// Items larger than the memory capacity are never admitted.
func (c *TwoTier) CondCacheInMemory(key string, size int64, value interface{}, insert bool) bool {
	if size > c.mem.cap {
		c.stats.Rejected++
		return false
	}
	ben := c.benefits[key]
	if cur := c.items[key]; cur != nil {
		if cur.tier == c.mem {
			// Already resident: refresh metadata if we can still fit it.
			if insert {
				c.refreshMem(cur, size, value)
			}
			return true
		}
		ben = cur.benefit
	}
	if c.mem.free() >= size {
		if insert {
			c.insertMem(key, size, value, ben)
		}
		return true
	}
	// Gather the least-benefit entries until evicting them would free
	// enough space (Algorithm 3 line 5). For uniform sizes this collects
	// exactly one entry and degenerates to Algorithm 2.
	need := size - c.mem.free()
	var prelim []*entry
	var freed int64
	var prelimBenefit float64
	// Pop from the min-heap, collecting candidates; reinsert afterwards
	// unless evicted.
	for freed < need {
		e := c.popMinMem()
		if e == nil {
			break // nothing left to evict; should not happen given cap check
		}
		prelim = append(prelim, e)
		freed += e.Size
		prelimBenefit += e.benefit
	}
	if freed < need || ben < prelimBenefit {
		// Not beneficial: put candidates back, reject.
		for _, e := range prelim {
			c.add(c.mem, e)
		}
		c.stats.Rejected++
		return false
	}
	// Keep the highest-benefit prelim entries that still fit in the slack
	// (Algorithm 3 lines 8-9), evict the rest to disk. popMinMem already
	// released the candidates' space, so free() reflects it.
	slack := c.mem.free() - size
	sort.Slice(prelim, func(i, j int) bool { return prelim[i].benefit > prelim[j].benefit })
	for _, e := range prelim {
		if e.Size <= slack {
			c.add(c.mem, e) // retained
			slack -= e.Size
			continue
		}
		c.evictToDisk(e)
	}
	if insert { // else an admission test: nothing to place
		c.insertMem(key, size, value, ben)
	}
	return true
}

func (c *TwoTier) popMinMem() *entry {
	e := c.mem.min()
	if e != nil {
		c.remove(e)
	}
	return e
}

// refreshMem updates a memory-resident entry in place if the new size still
// fits.
func (c *TwoTier) refreshMem(e *entry, size int64, value interface{}) {
	if c.mem.free()+e.Size >= size {
		c.mem.used += size - e.Size
		e.Size, e.Value = size, value
	}
}

func (c *TwoTier) insertMem(key string, size int64, value interface{}, benefit float64) {
	// If it was on disk, move it (Appendix B: items moved to mCache can be
	// removed from dCache to save space).
	if e := c.items[key]; e != nil {
		c.remove(e)
	}
	delete(c.benefits, key)
	c.add(c.mem, &entry{Item: Item{Key: key, Size: size, Value: value}, benefit: benefit})
	c.stats.MemInserts++
}

// evictToDisk demotes a memory entry (already detached from the memory tier)
// into the disk tier, updating the LFU-DA aging factor.
func (c *TwoTier) evictToDisk(e *entry) {
	if e.benefit > c.agingL {
		c.agingL = e.benefit
	}
	c.stats.EvictToDisk++
	c.toDisk(e)
}

// toDisk places e in the disk tier, first evicting the lowest-benefit disk
// entries if the tier is full; an entry that cannot fit is dropped.
func (c *TwoTier) toDisk(e *entry) {
	for c.disk.free() < e.Size {
		victim := c.disk.min()
		if victim == nil {
			return
		}
		c.remove(victim)
		c.benefits[victim.Key] = victim.benefit
		c.stats.EvictFromDisk++
	}
	c.add(c.disk, e)
	c.stats.DiskInserts++
}

// AddToDisk places a fetched item directly in the disk tier (the buy-to-disk
// path of Algorithm 1 line 19).
func (c *TwoTier) AddToDisk(key string, size int64, value interface{}) {
	ben := c.benefits[key]
	if e := c.items[key]; e != nil {
		if e.tier == c.mem {
			c.refreshMem(e, size, value) // already in the faster tier
			return
		}
		// Re-add through the capacity loop so a grown item still fits.
		c.remove(e)
		ben = e.benefit
	}
	delete(c.benefits, key)
	c.toDisk(&entry{Item: Item{Key: key, Size: size, Value: value}, benefit: ben})
}

// Invalidate removes the key from whichever tier holds it (data-store
// update, Section 4.2.3). It reports whether anything was removed.
func (c *TwoTier) Invalidate(key string) bool {
	e := c.items[key]
	if e != nil {
		c.remove(e)
		c.stats.Invalidations++
	}
	delete(c.benefits, key)
	return e != nil
}

// EachKey calls f for every cached key (both tiers, unordered). It is the
// cheap enumeration for callers that only filter — no allocation beyond
// what f does, no sort.
func (c *TwoTier) EachKey(f func(key string)) {
	for k := range c.items {
		f(k)
	}
}

// Keys returns all cached keys (both tiers), for tests and introspection.
func (c *TwoTier) Keys() []string {
	return slices.Sorted(maps.Keys(c.items))
}
