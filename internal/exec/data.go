package exec

import (
	"joinopt/internal/cluster"
	"joinopt/internal/core"
	"joinopt/internal/costmodel"
	"joinopt/internal/loadbalance"
	"joinopt/internal/sim"
)

// fromTrack is the per-compute-node view a data node keeps (nrd_ij, rd_ij).
type fromTrack struct {
	pending        int // compute requests from i awaiting completion here
	computedAtData int // of those, committed to local execution
	// plannedBounce counts requests this node has decided to return to i
	// whose responses have not been sent yet. They are invisible both in
	// i's (stale) statistics and in the pending counters above, so the
	// balancer adds them to i's CPU backlog to avoid dog-piling work onto
	// a compute node between statistics updates.
	plannedBounce int
}

type dataNode struct {
	ex   *Executor
	id   cluster.NodeID
	node *cluster.Node

	// Appendix C statistics (data side).
	pendingDataReqs  int // ndc_j
	pendingDataResps int // ndrd_j (responses being assembled)
	pendingCompute   int // nrd_j
	committedLocal   int // rd_j
	from             map[cluster.NodeID]*fromTrack

	model *costmodel.Model // observed sizes and local UDF cost
	// sojourn is the measured wall time of a UDF through the local CPU
	// queue (queueing included); it rides on responses as EffectiveCost.
	sojourn *costmodel.Smoother

	// blockCache is the optional LRU over stored values (ablation).
	blockCache *blockLRU

	computedHere   int64
	returnedRaw    int64
	BlockCacheHits int64
}

// blockLRU is a byte-bounded LRU of stored values, keyed by row key.
type blockLRU struct {
	cap   int64
	used  int64
	order []string // LRU order, front = oldest; small enough for a sim
	sizes map[string]int64
}

func newBlockLRU(capacity int64) *blockLRU {
	return &blockLRU{cap: capacity, sizes: make(map[string]int64)}
}

// touch reports whether key was resident, inserting/refreshing it either way.
func (b *blockLRU) touch(key string, size int64) bool {
	if _, hit := b.sizes[key]; hit {
		for i, k := range b.order {
			if k == key {
				b.order = append(append(b.order[:i:i], b.order[i+1:]...), key)
				break
			}
		}
		return true
	}
	if size > b.cap {
		return false
	}
	for b.used+size > b.cap && len(b.order) > 0 {
		victim := b.order[0]
		b.order = b.order[1:]
		b.used -= b.sizes[victim]
		delete(b.sizes, victim)
	}
	b.sizes[key] = size
	b.used += size
	b.order = append(b.order, key)
	return false
}

func newDataNode(ex *Executor, id cluster.NodeID) *dataNode {
	dn := &dataNode{
		ex:      ex,
		id:      id,
		node:    ex.c.Node(id),
		from:    make(map[cluster.NodeID]*fromTrack),
		model:   costmodel.NewModel(costmodel.DefaultAlpha),
		sojourn: costmodel.NewSmoother(costmodel.DefaultAlpha, 1e-3),
	}
	if ex.cfg.BlockCacheBytes > 0 {
		dn.blockCache = newBlockLRU(ex.cfg.BlockCacheBytes)
	}
	return dn
}

func (dn *dataNode) fromTrackFor(i cluster.NodeID) *fromTrack {
	t := dn.from[i]
	if t == nil {
		t = &fromTrack{}
		dn.from[i] = t
	}
	return t
}

// metaFor builds the response metadata for one request (the piggybacked
// cost parameters of Section 4.3).
func (dn *dataNode) metaFor(stage int, key string) core.ResponseMeta {
	row := dn.ex.rowMeta(stage, key)
	return core.ResponseMeta{
		Key:          key,
		ValueSize:    row.ValueSize,
		ComputedSize: row.ComputedSize,
		ComputeCost:  row.ComputeCost,
		Version:      dn.ex.tables[stage].Version(key),
	}
}

// observe folds one request's sizes and UDF cost into the node's model.
// The cost is known from the catalog as soon as the request arrives, so the
// balancer has sane estimates from the first batch onward.
func (dn *dataNode) observe(m core.ResponseMeta, paramSize int64) {
	dn.model.SizeK.Observe(float64(len(m.Key)))
	dn.model.SizeP.Observe(float64(paramSize))
	dn.model.SizeV.Observe(float64(m.ValueSize))
	dn.model.SizeCV.Observe(float64(m.ComputedSize))
	dn.model.CPUData.Observe(m.ComputeCost)
}

// handleComputeBatch processes a batch of compute requests: fetch each
// requested value from disk, decide how many to execute locally
// (Section 5), run those on the local CPU, and ship back two responses --
// computed results and raw values for the remainder.
func (dn *dataNode) handleComputeBatch(cn *computeNode, stage int, reqs []*request, cs loadbalance.ComputeStats) {
	ex := dn.ex
	b := len(reqs)
	ft := dn.fromTrackFor(cn.id)

	d := b
	if ex.cfg.Strategy.loadBalanced() {
		d = dn.balance(cn.id, cs, b)
	}

	dn.pendingCompute += b
	dn.committedLocal += d
	ft.pending += b
	ft.computedAtData += d
	ft.plannedBounce += b - d

	computed := reqs[:d]
	raw := reqs[d:]
	dn.computedHere += int64(d)
	dn.returnedRaw += int64(b - d)

	compMetas := make([]core.ResponseMeta, len(computed))
	rawMetas := make([]core.ResponseMeta, len(raw))
	remainingComp := len(computed)
	remainingRaw := len(raw)
	var compBytes, rawBytes int64 = ex.cfg.MsgHeader, ex.cfg.MsgHeader

	finishComputed := func() {
		dn.pendingCompute -= len(computed)
		dn.committedLocal -= len(computed)
		ft.pending -= len(computed)
		ft.computedAtData -= len(computed)
		ex.send(dn.id, cn.id, compBytes, func() {
			cn.onComputedResponse(dn.id, computed, compMetas)
		})
	}
	finishRaw := func() {
		dn.pendingCompute -= len(raw)
		ft.pending -= len(raw)
		ft.plannedBounce -= len(raw)
		ex.send(dn.id, cn.id, rawBytes, func() {
			cn.onRawResponse(dn.id, raw, rawMetas)
		})
	}

	for i, req := range computed {
		i := i
		m := dn.metaFor(stage, req.key)
		dn.observe(m, req.tuple.ParamSize)
		compMetas[i] = m
		compBytes += ex.cfg.PerReqBytes + m.ComputedSize
		dn.serveValue(m, true, func(sojourn float64) {
			dn.sojourn.Observe(sojourn)
			compMetas[i].EffectiveCost = sojourn
			remainingComp--
			if remainingComp == 0 {
				finishComputed()
			}
		})
	}
	for i, req := range raw {
		i := i
		m := dn.metaFor(stage, req.key)
		dn.observe(m, req.tuple.ParamSize)
		m.EffectiveCost = dn.effectiveCostFor(m)
		rawMetas[i] = m
		rawBytes += ex.cfg.PerReqBytes + m.ValueSize
		dn.serveValue(m, false, func(float64) {
			remainingRaw--
			if remainingRaw == 0 {
				finishRaw()
			}
		})
	}
}

// effectiveCostFor scales a key's intrinsic cost by the node's current
// measured congestion, for responses that did not run the UDF here.
func (dn *dataNode) effectiveCostFor(m core.ResponseMeta) float64 {
	base := dn.model.CPUData.Value()
	if dn.sojourn.Samples() == 0 || base <= 0 {
		return m.ComputeCost
	}
	inflation := dn.sojourn.Value() / base
	if inflation < 1 {
		inflation = 1
	}
	return m.ComputeCost * inflation
}

// serveValue models the store read path for one request: a disk fetch
// followed by request-handling CPU (deserialization proportional to the
// value size), and the UDF itself when compute is true. done receives the
// request's CPU sojourn (queue wait + service), the runtime cost
// measurement of Section 3.2.
func (dn *dataNode) serveValue(m core.ResponseMeta, compute bool, done func(sojourn float64)) {
	ex := dn.ex
	runCPU := func() {
		cost := ex.cfg.RequestCPU +
			sim.Duration(float64(m.ValueSize)/ex.cfg.ValueProcBps)
		if compute {
			cost += sim.Duration(m.ComputeCost)
		}
		enqueued := ex.k.Now()
		dn.node.CPU.Schedule(cost, func() {
			done(float64(ex.k.Now() - enqueued))
		})
	}
	if dn.blockCache != nil && dn.blockCache.touch(m.Key, m.ValueSize) {
		// Block-cache hit (ablation): a memory read instead of a disk
		// fetch, charged on the CPU.
		dn.BlockCacheHits++
		dn.node.CPU.Schedule(ex.c.MemReadTime(m.ValueSize), runCPU)
		return
	}
	dn.node.Disk.Schedule(ex.c.DiskReadTime(m.ValueSize), runCPU)
}

// handleDataBatch processes a batch of data requests (fetches).
func (dn *dataNode) handleDataBatch(cn *computeNode, stage int, reqs []*request) {
	ex := dn.ex
	dn.pendingDataReqs += len(reqs)
	var metas []core.ResponseMeta
	var bytes int64 = ex.cfg.MsgHeader
	remaining := len(reqs)
	for _, req := range reqs {
		m := dn.metaFor(stage, req.key)
		dn.observe(m, req.tuple.ParamSize)
		m.EffectiveCost = dn.effectiveCostFor(m)
		metas = append(metas, m)
		bytes += ex.cfg.PerReqBytes + m.ValueSize
		dn.serveValue(m, false, func(float64) {
			remaining--
			if remaining == 0 {
				dn.pendingDataReqs -= len(reqs)
				dn.pendingDataResps += len(reqs)
				ex.send(dn.id, cn.id, bytes, func() {
					dn.pendingDataResps -= len(reqs)
					cn.onDataResponse(dn.id, reqs, metas)
				})
			}
		})
	}
}

// balance runs the Section 5 / Appendix C optimization: choose d, the number
// of requests from this batch to execute locally.
func (dn *dataNode) balance(from cluster.NodeID, cs loadbalance.ComputeStats, b int) int {
	sk, sp, sv, scv := sizesFor(dn.model)
	if cs.TCC <= 0 {
		// The compute node has not executed any UDF yet; nodes are
		// homogeneous, so our own measurement is the best estimate.
		cs.TCC = dn.model.CPUData.Value()
	}
	ds := loadbalance.DataStats{
		PendingDataReqs:    dn.pendingDataReqs,
		PendingDataResps:   dn.pendingDataResps,
		PendingComputeReqs: dn.pendingCompute,
		ComputedAtData:     dn.committedLocal,
		TCD:                dn.model.CPUData.Value(),
		NetBw:              dn.ex.c.Cfg.NetBwBps,
	}
	if ft := dn.from[from]; ft != nil {
		ds.FromIPending = ft.pending
		ds.FromIComputedAtData = ft.computedAtData
		// Work already bounced to i but not yet visible in its
		// statistics counts against its CPU backlog.
		cs.PendingLocal += ft.plannedBounce
	}
	p := loadbalance.Build(cs, ds, loadbalance.Sizes{SK: sk, SP: sp, SV: sv, SCV: scv}, b)
	if dn.ex.cfg.UseGradientDescent {
		d, _ := p.SolveGradientDescent(float64(b)/2, 64)
		return d
	}
	d, _ := p.SolveExact()
	return d
}

// applyUpdate bumps a row version and emits invalidations to compute nodes
// known to cache the key (the tracked-cacher mode of Section 4.2.3).
func (dn *dataNode) applyUpdate(stage int, key string, broadcast bool) {
	ex := dn.ex
	table := ex.tables[stage]
	version := table.Update(key)
	notifyBytes := ex.cfg.MsgHeader + int64(len(key))
	notify := func(cn *computeNode) {
		ex.send(dn.id, cn.id, notifyBytes, func() {
			cn.opts[stage].Invalidate(key, version)
			ex.cfg.Store.DropCacher(ex.cfg.Tables[stage], key, cn.id)
		})
	}
	if broadcast {
		for _, cn := range ex.computes {
			notify(cn)
		}
		return
	}
	for _, id := range ex.cfg.Store.Cachers(ex.cfg.Tables[stage], key) {
		for _, cn := range ex.computes {
			if cn.id == id {
				notify(cn)
			}
		}
	}
}
