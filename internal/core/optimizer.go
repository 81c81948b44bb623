// Package core implements the paper's runtime join-location optimizer: the
// skiRentalCaching procedure of Algorithm 1 combined with per-key learned
// costs, frequency tracking, two-tier caching, and the update-invalidation
// rules of Section 4.2.3.
//
// Everything the optimizer knows about one key (learned costs, the version
// an invalidation fenced it at, the access count) sits in one record behind
// one map lookup; the cached value and an uncached key's admission benefit
// stay in the cache.
//
// The optimizer is execution-plane agnostic: it decides where each request
// should go and mutates its own cache/counter state, while the caller (the
// discrete-event executor or the live TCP executor) performs the actual
// I/O and calls back with responses.
package core

import (
	"math/rand"

	"joinopt/internal/cache"
	"joinopt/internal/costmodel"
	"joinopt/internal/freq"
	"joinopt/internal/skirental"
	"joinopt/internal/slab"
)

// Route says where one request should be executed.
type Route int

const (
	// RouteLocalMem: value cached in memory; compute at this node.
	RouteLocalMem Route = iota
	// RouteLocalDisk: value in the disk cache; read it and compute here.
	RouteLocalDisk
	// RouteCompute: ship (k, p) to the data node (compute request).
	RouteCompute
	// RouteDataMem: fetch the value and cache it in memory (buy).
	RouteDataMem
	// RouteDataDisk: fetch the value and cache it on disk (buy).
	RouteDataDisk
	// RouteDataNoCache: fetch the value, compute locally, do not cache
	// (the NO/FC/FR function-at-compute-node strategies).
	RouteDataNoCache
)

// String names the route for logs and metrics.
func (r Route) String() string {
	switch r {
	case RouteLocalMem:
		return "local-mem"
	case RouteLocalDisk:
		return "local-disk"
	case RouteCompute:
		return "compute-req"
	case RouteDataMem:
		return "data-req-mem"
	case RouteDataDisk:
		return "data-req-disk"
	case RouteDataNoCache:
		return "data-req-nocache"
	}
	return "unknown"
}

// Policy selects which of the paper's decision mechanisms are active; the
// experiment strategies (NO, FC, FD, FR, CO, LO, FO) map onto these knobs.
type Policy struct {
	// Caching enables ski-rental-based buying and the two-tier cache
	// (CO and FO).
	Caching bool
	// AlwaysCompute forces every request to the data node (FD and LO;
	// with LO the data node's load balancer sends some work back).
	AlwaysCompute bool
	// AlwaysFetch forces every request to fetch-and-compute-locally
	// without caching (NO and FC).
	AlwaysFetch bool
	// RandomChoice picks uniformly between compute request and
	// fetch-no-cache per tuple (FR).
	RandomChoice bool
}

// Config configures an Optimizer (one per compute node).
type Config struct {
	Policy Policy

	MemCacheBytes  int64
	DiskCacheBytes int64 // 0 = no disk tier: Route never buys to disk
	// Epsilon is the lossy-counting error bound; <=0 selects exact
	// counting (small key spaces / tests).
	Epsilon float64
	// Seed drives the FR random choice.
	Seed int64
	// FreezeAfter stops adaptation (benefit updates, new purchases,
	// evictions) after this many routed requests; 0 means never. This is
	// the "non-adaptive" configuration of Figure 9.
	FreezeAfter int
}

// Shard derives the configuration for shard i of n when a caller stripes
// one logical optimizer across n shard-local instances (the live executor's
// parallel Submit path). Because every structure Algorithm 1 maintains is
// per-key — ski-rental counters, lossy-counting frequencies, learned costs,
// cache entries — hash-partitioning keys across n independent optimizers
// preserves its semantics as long as each key always lands on the same
// instance. Only the aggregate resources need dividing:
//
//   - MemCacheBytes and a nonzero DiskCacheBytes are split so the striped
//     whole uses the configured totals (cache.SplitBudget).
//   - FreezeAfter divides by n (each shard sees ~1/n of the traffic, so
//     the freeze point stays at roughly the same total request count).
//   - Seed is decorrelated so FR's random choices are independent.
//
// Shard(i, 1) returns the config unchanged: a single shard is exactly the
// unsharded optimizer.
func (c Config) Shard(i, n int) Config {
	if n <= 1 {
		return c
	}
	mem := c.MemCacheBytes
	if mem <= 0 {
		mem = DefaultMemCacheBytes // divided rather than multiplied n-fold
	}
	c.MemCacheBytes = cache.SplitBudget(mem, i, n)
	if c.DiskCacheBytes > 0 {
		c.DiskCacheBytes = cache.SplitBudget(c.DiskCacheBytes, i, n)
	}
	if c.FreezeAfter > 0 {
		c.FreezeAfter = (c.FreezeAfter + n - 1) / n
	}
	c.Seed += int64(i) * 1000003
	return c
}

// KeyInfo is what the optimizer has learned about one key from compute
// responses (Section 4.3: the first request is always a compute request and
// the response carries the cost parameters).
type KeyInfo struct {
	ValueSize    int64
	ComputedSize int64
	ComputeCost  float64
	Version      int64 // last row version seen on a response
}

// Counters tallies routing decisions for metrics and tests.
type Counters struct {
	Routed       int64
	LocalMem     int64
	LocalDisk    int64
	ComputeReqs  int64
	DataReqs     int64
	NoCacheReqs  int64
	FirstContact int64 // compute requests forced because costs were unknown
	CounterReset int64 // ski-rental counters reset by observed updates
}

// keyRec is everything the optimizer knows about one key. Until learned is
// set, info holds only Version: the fence, the newest version an
// invalidation announced, which KnownVersion reports so that a cache install
// racing the invalidation still has a version to beat. Learning is a bit,
// not the record's existence, because learned costs change what Route
// decides.
type keyRec struct {
	info    KeyInfo
	learned bool
	count   freq.Count
}

// Optimizer makes per-request routing decisions for one compute node. Its
// per-key state is one map of records. A lossy-counting compress visits no
// record: a count it drops reads as 0 from then on (freq.Window.Estimate).
// Records come from free, a chunk at a time, and are deleted only at their
// one bound, maxKeys (pruneKeysIfNeeded), which puts them back on free.
type Optimizer struct {
	cfg    Config
	Cache  *cache.TwoTier
	Model  *costmodel.Model
	recs   map[string]*keyRec
	free   slab.List[keyRec]
	window freq.Window // the lossy-counting stream position of every count
	rng    *rand.Rand
	stats  Counters

	// Intrinsic (queueing-free) UDF costs, tracked alongside the
	// effective costs in Model so that per-key costs can be scaled by the
	// observed congestion: inflation = effective / intrinsic.
	trueDataCost  *costmodel.Smoother
	trueLocalCost *costmodel.Smoother

	maxKeys int
}

// DefaultMemCacheBytes is the mCache capacity used when Config leaves
// MemCacheBytes unset (the paper's 100 MB default).
const DefaultMemCacheBytes int64 = 100 << 20

// New creates an optimizer. The cache is created even for non-caching
// policies (it stays empty) so that metrics are uniform.
func New(cfg Config) *Optimizer {
	if cfg.MemCacheBytes <= 0 {
		cfg.MemCacheBytes = DefaultMemCacheBytes
	}
	return &Optimizer{
		cfg:           cfg,
		Cache:         cache.New(cfg.MemCacheBytes, cfg.DiskCacheBytes),
		Model:         costmodel.NewModel(costmodel.DefaultAlpha),
		recs:          make(map[string]*keyRec),
		window:        freq.NewWindow(cfg.Epsilon),
		rng:           rand.New(rand.NewSource(cfg.Seed)),
		trueDataCost:  costmodel.NewSmoother(costmodel.DefaultAlpha, 1e-3),
		trueLocalCost: costmodel.NewSmoother(costmodel.DefaultAlpha, 1e-3),
		maxKeys:       1 << 20,
	}
}

// Stats returns a copy of the routing counters.
func (o *Optimizer) Stats() Counters { return o.stats }

// Known returns a copy of the learned information about a key, and whether
// there is any.
func (o *Optimizer) Known(key string) (KeyInfo, bool) {
	if r := o.recs[key]; r != nil && r.learned {
		return r.info, true
	}
	return KeyInfo{}, false
}

// Frequency returns the current access-count estimate for key.
func (o *Optimizer) Frequency(key string) int {
	if r := o.recs[key]; r != nil {
		return o.window.Estimate(r.count)
	}
	return 0
}

// record returns key's record, creating an empty one if there is none.
func (o *Optimizer) record(key string) *keyRec {
	r := o.recs[key]
	if r == nil {
		o.pruneKeysIfNeeded()
		r = o.free.Get()
		*r = keyRec{}
		o.recs[key] = r
	}
	return r
}

func (o *Optimizer) frozen() bool {
	return o.cfg.FreezeAfter > 0 && o.stats.Routed > int64(o.cfg.FreezeAfter)
}

// Route implements Algorithm 1 for one incoming tuple with join key `key`.
// netBw is the effective bandwidth to the data node owning the key
// (Appendix D.4 measurement). The returned route tells the caller what to
// do; cache bookkeeping for local hits has already been done.
func (o *Optimizer) Route(key string, netBw float64) Route {
	o.stats.Routed++
	p := o.Policy()

	// Fixed-location strategies bypass Algorithm 1 entirely.
	switch {
	case p.AlwaysFetch:
		o.stats.NoCacheReqs++
		return RouteDataNoCache
	case p.RandomChoice:
		if o.rng.Intn(2) == 0 {
			o.stats.ComputeReqs++
			return RouteCompute
		}
		o.stats.NoCacheReqs++
		return RouteDataNoCache
	case p.AlwaysCompute:
		o.stats.ComputeReqs++
		return RouteCompute
	}

	frozen := o.frozen()
	r := o.record(key)
	var info *KeyInfo
	if r.learned {
		info = &r.info
	}
	params := o.paramsFor(info, netBw)

	// Lines 1-2: updateBenefit, updateCounter. The benefit weight is the
	// rent this access would have cost (what caching saves).
	if !frozen {
		o.Cache.UpdateBenefit(key, params.TCompute())
	}
	count, _ := o.window.Observe(&r.count)

	// Lines 3-9: cache hits.
	if item, tier, ok := o.Cache.Get(key); ok {
		if tier == cache.TierMem {
			o.stats.LocalMem++
			return RouteLocalMem
		}
		// Disk hit: consider promotion (line 9). The promoted entry replaces
		// the disk copy, so it must carry the value that copy held.
		if !frozen && info != nil {
			o.Cache.CondCacheInMemory(key, info.ValueSize, item.Value, true)
		}
		o.stats.LocalDisk++
		return RouteLocalDisk
	}

	// First contact: costs unknown, always send a compute request so the
	// response brings the parameters back (Section 4.3). Only the first
	// access is forced; later accesses whose response is still in flight
	// decide with the model's cross-key averages instead, otherwise a
	// burst of hot-key arrivals would all be force-rented to one node.
	if info == nil && count <= 1 {
		o.stats.FirstContact++
		o.stats.ComputeReqs++
		return RouteCompute
	}

	// Non-adaptive mode never buys after the freeze point.
	if frozen {
		o.stats.ComputeReqs++
		return RouteCompute
	}

	// Lines 10-21: the ski-rental decision.
	costs := skirental.Costs{
		Rent:      params.TCompute(),
		Buy:       params.TFetch(),
		RecurMem:  params.TRecMem(),
		RecurDisk: params.TRecDisk(),
	}
	size := int64(params.SV) // model average until the key's size is known
	if info != nil {
		size = info.ValueSize
	}
	memAdmissible := o.Cache.CondCacheInMemory(key, size, nil, false)
	switch d := skirental.Decide(costs, count, memAdmissible); {
	case d == skirental.BuyToMem:
		o.stats.DataReqs++
		return RouteDataMem
	case d == skirental.BuyToDisk && size <= o.cfg.DiskCacheBytes: // else rent
		o.stats.DataReqs++
		return RouteDataDisk
	}
	o.stats.ComputeReqs++
	return RouteCompute
}

// Policy returns the active policy.
func (o *Optimizer) Policy() Policy { return o.cfg.Policy }

// paramsFor builds cost parameters, using per-key specifics when known.
// Per-key intrinsic costs are scaled by the observed congestion at each
// side (effective/intrinsic ratio), so a loaded data node raises the rent
// and a loaded compute node raises the recurring cost.
func (o *Optimizer) paramsFor(info *KeyInfo, netBw float64) costmodel.Params {
	var sv, tcd, tcc float64
	if info != nil {
		sv = float64(info.ValueSize)
		tcd = info.ComputeCost * o.inflation(o.Model.CPUData, o.trueDataCost)
		tcc = info.ComputeCost * o.inflation(o.Model.CPUCompute, o.trueLocalCost)
	}
	return o.Model.Params(netBw, sv, tcd, tcc)
}

// inflation returns the congestion multiplier effective/intrinsic, at least
// 1 (queueing cannot make work cheaper).
func (o *Optimizer) inflation(effective, intrinsic *costmodel.Smoother) float64 {
	if intrinsic.Samples() == 0 || intrinsic.Value() <= 0 {
		return 1
	}
	r := effective.Value() / intrinsic.Value()
	if r < 1 {
		return 1
	}
	return r
}

// ObserveLocalCompute records one locally executed UDF: its wall time in
// the local CPU queue (sojourn) and its intrinsic cost.
func (o *Optimizer) ObserveLocalCompute(sojourn, trueCost float64) {
	o.Model.CPUCompute.Observe(sojourn)
	o.trueLocalCost.Observe(trueCost)
}

// ResponseMeta is what rides back on every compute-request response: the
// cost parameters for the key and the row's last-update version.
type ResponseMeta struct {
	Key          string
	ValueSize    int64
	ComputedSize int64
	// ComputeCost is the key's intrinsic UDF time (pure CPU).
	ComputeCost float64
	// EffectiveCost is the UDF time as experienced at the data node,
	// including CPU queueing. Section 3.2 measures costs at runtime; on a
	// loaded node the measured wall time inflates, which is what lets the
	// ski-rental shift work away from overloaded data nodes.
	EffectiveCost float64
	Version       int64
}

// OnComputeResponse folds the piggybacked parameters into the model and
// applies the timestamp rule of Section 4.2.3: if the row version advanced
// between two compute requests, the ski-rental counter is reset so that
// frequently updated items are not bought.
func (o *Optimizer) OnComputeResponse(m ResponseMeta) {
	r := o.record(m.Key)
	info := &r.info
	if !r.learned {
		r.learned = true
	} else if m.Version > info.Version {
		r.count.Reset()
		o.Cache.Invalidate(m.Key)
		o.stats.CounterReset++
	}
	info.ValueSize = m.ValueSize
	info.ComputedSize = m.ComputedSize
	info.ComputeCost = m.ComputeCost
	info.Version = max(info.Version, m.Version)

	o.Model.SizeV.Observe(float64(m.ValueSize))
	o.Model.SizeCV.Observe(float64(m.ComputedSize))
	eff := m.EffectiveCost
	if eff <= 0 {
		eff = m.ComputeCost
	}
	o.Model.CPUData.Observe(eff)
	o.trueDataCost.Observe(m.ComputeCost)
}

// OnValueFetched installs a bought value in the cache. toMem reflects the
// route chosen at request time (RouteDataMem vs RouteDataDisk); admission is
// re-checked because the cache may have churned while the fetch was in
// flight, falling back to the disk tier, which drops what it cannot hold.
func (o *Optimizer) OnValueFetched(key string, size int64, version int64, value interface{}, toMem bool) {
	r := o.record(key)
	r.learned = true
	r.info.ValueSize = size
	r.info.Version = max(r.info.Version, version)
	if toMem && o.Cache.CondCacheInMemory(key, size, value, true) {
		return
	}
	o.Cache.AddToDisk(key, size, value)
}

// KnownVersion returns the newest row version the optimizer has learned
// for key (from compute responses, fetches and invalidations), or 0 for an
// unknown key; it never runs backwards while the key is known. The live
// executor fences every cache install with it: a fetched value older than a
// version already seen — answered by a lagging replica, or read just before
// a put whose invalidation overtook the reply — must not be installed, or
// the cache would hold a value nobody is left to invalidate.
func (o *Optimizer) KnownVersion(key string) int64 {
	if r := o.recs[key]; r != nil {
		return r.info.Version
	}
	return 0
}

// ForgetVersions zeroes the learned version or fence of every key match
// accepts, leaving the rest of the key's state alone. For the caller that
// knows those keys' version history may have restarted from 0 (the one node
// holding it went away): otherwise KnownVersion would fence them out of the
// cache until the new history overtook the old.
func (o *Optimizer) ForgetVersions(match func(key string) bool) {
	for k, r := range o.recs {
		if r.info.Version != 0 && match(k) {
			r.info.Version = 0
		}
	}
}

// Invalidate handles an update notification from a data node: the cached
// copy is dropped and the counter restarts (Section 4.2.3). The announced
// version is remembered even for a key not yet learned (its fence).
func (o *Optimizer) Invalidate(key string, version int64) {
	o.Cache.Invalidate(key)
	r := o.record(key)
	r.count.Reset()
	r.info.Version = max(r.info.Version, version)
	o.stats.CounterReset++
}

// pruneKeysIfNeeded is the one bound on records: at maxKeys, every record
// counted at most once is dropped, whatever else it holds. Its key is
// re-learned by a first-contact compute request if seen again; a dropped
// fence only reopens the race it closed. Each dropped record goes back on
// the free list.
func (o *Optimizer) pruneKeysIfNeeded() {
	if len(o.recs) < o.maxKeys {
		return
	}
	for k, r := range o.recs {
		if o.window.Estimate(r.count) <= 1 {
			delete(o.recs, k)
			o.free.Put(r)
		}
	}
}
