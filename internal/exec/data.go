package exec

import (
	"slices"

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

// batchMsg is one request chunk on its way to a data node and back. It is
// the event that delivers the chunk (Fire), it holds the data node's
// response metadata and one serveSlot per request, and its two replies are
// the events that deliver the responses. It goes back on the free list
// after its last reply.
type batchMsg struct {
	cn    *computeNode
	key   batchKey
	reqs  []*request
	stats loadbalance.ComputeStats

	// Set when the data node takes the batch: reqs[:d] run the UDF there,
	// reqs[d:] go back raw (all of a data batch does).
	dn      *dataNode
	ft      *fromTrack
	d       int
	metas   []core.ResponseMeta // one per request
	slots   []serveSlot         // one per request
	bytes   [2]int64            // per reply: computed, raw
	left    [2]int              // serves outstanding per reply
	replies int                 // replies not yet handled

	computed, raw reply
}

// Fire delivers the batch to its data node.
func (m *batchMsg) Fire() {
	dn := m.cn.ex.datas[m.key.node]
	if m.key.kind == kindCompute {
		dn.handleComputeBatch(m)
	} else {
		dn.handleDataBatch(m)
	}
}

// reply is one response message of a batch, delivered to its compute node.
type reply struct {
	m   *batchMsg
	raw bool
}

func (r *reply) Fire() {
	m := r.m
	cn, j := m.cn, m.dn.id
	switch {
	case m.key.kind == kindData:
		m.dn.pendingDataResps -= len(m.reqs)
		cn.onDataResponse(j, m.reqs, m.metas)
	case r.raw:
		cn.onRawResponse(j, m.reqs[m.d:], m.metas[m.d:])
	default:
		cn.onComputedResponse(j, m.reqs[:m.d], m.metas[:m.d])
	}
	if m.replies--; m.replies == 0 {
		cn.ex.msgs.Put(m)
	}
}

// serveSlot is one request's pass through the store read path at a data
// node: a read (disk, or the block cache), then request-handling CPU
// (deserialization proportional to the value size) plus the UDF when it
// runs here.
type serveSlot struct {
	m        *batchMsg
	i        int // index into m.reqs and m.metas
	cpu      bool
	enqueued sim.Time
}

// Fire ends the slot's current phase: a finished read queues the CPU work,
// finished CPU work reports the request served with its sojourn (queue
// wait + service), the runtime cost measurement of Section 3.2.
func (s *serveSlot) Fire() {
	m := s.m
	ex := m.cn.ex
	if s.cpu {
		m.served(s.i, float64(ex.k.Now()-s.enqueued))
		return
	}
	meta := &m.metas[s.i]
	cost := requestCPU + sim.Duration(float64(meta.ValueSize)/valueProcBps)
	if s.i < m.d {
		cost += sim.Duration(meta.ComputeCost)
	}
	s.cpu = true
	s.enqueued = ex.k.Now()
	m.dn.node.CPU.Schedule(cost, s)
}

// handleComputeBatch processes a batch of compute requests: fetch each
// requested value from disk, decide how many to execute locally
// (Section 5), run those on the local CPU, and ship back two responses --
// computed results and raw values for the remainder.
func (dn *dataNode) handleComputeBatch(m *batchMsg) {
	ex := dn.ex
	b := len(m.reqs)
	ft := dn.fromTrackFor(m.cn.id)

	d := b
	if ex.cfg.Strategy.loadBalanced() {
		d = dn.balance(m.cn.id, m.stats, b)
	}

	dn.pendingCompute += b
	dn.committedLocal += d
	ft.pending += b
	ft.computedAtData += d
	ft.plannedBounce += b - d

	dn.computedHere += int64(d)
	dn.returnedRaw += int64(b - d)
	dn.serve(m, ft, d)
}

// handleDataBatch processes a batch of data requests (fetches).
func (dn *dataNode) handleDataBatch(m *batchMsg) {
	dn.pendingDataReqs += len(m.reqs)
	dn.serve(m, nil, 0)
}

// serve starts every request of a batch down the store read path, the d
// computed ones first.
func (dn *dataNode) serve(m *batchMsg, ft *fromTrack, d int) {
	n := len(m.reqs)
	m.dn, m.ft, m.d = dn, ft, d
	m.metas = slices.Grow(m.metas[:0], n)[:n]
	m.slots = slices.Grow(m.slots[:0], n)[:n]
	m.bytes = [2]int64{msgHeader, msgHeader}
	m.left = [2]int{d, n - d}
	m.computed, m.raw = reply{m: m}, reply{m: m, raw: true}
	m.replies = min(d, 1) + min(n-d, 1) // one per nonempty part
	for i, req := range m.reqs {
		meta := dn.metaFor(m.key.stage, req.key)
		dn.observe(meta, req.tuple.ParamSize)
		if i < d {
			m.bytes[0] += perReqBytes + meta.ComputedSize
		} else {
			meta.EffectiveCost = dn.effectiveCostFor(meta)
			m.bytes[1] += perReqBytes + meta.ValueSize
		}
		m.metas[i] = meta
		m.slots[i] = serveSlot{m: m, i: i}
		dn.serveValue(&m.slots[i])
	}
}

// served counts request i of a batch done, after a CPU sojourn, and sends a
// reply once its last request is.
func (m *batchMsg) served(i int, sojourn float64) {
	dn, ft := m.dn, m.ft
	if i < m.d {
		dn.sojourn.Observe(sojourn)
		m.metas[i].EffectiveCost = sojourn
		if m.left[0]--; m.left[0] > 0 {
			return
		}
		dn.pendingCompute -= m.d
		dn.committedLocal -= m.d
		ft.pending -= m.d
		ft.computedAtData -= m.d
		dn.ex.send(dn.id, m.cn.id, m.bytes[0], &m.computed)
		return
	}
	if m.left[1]--; m.left[1] > 0 {
		return
	}
	if n := len(m.reqs) - m.d; m.key.kind == kindCompute {
		dn.pendingCompute -= n
		ft.pending -= n
		ft.plannedBounce -= n
	} else {
		dn.pendingDataReqs -= n
		dn.pendingDataResps += n
	}
	dn.ex.send(dn.id, m.cn.id, m.bytes[1], &m.raw)
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

// serveValue starts one request down the store read path: a disk fetch, or
// a block-cache read (ablation); the slot then queues its CPU work.
func (dn *dataNode) serveValue(s *serveSlot) {
	ex := dn.ex
	meta := &s.m.metas[s.i]
	if dn.blockCache != nil && dn.blockCache.touch(meta.Key, meta.ValueSize) {
		// Block-cache hit (ablation): a memory read instead of a disk
		// fetch, charged on the CPU.
		dn.BlockCacheHits++
		dn.node.CPU.Schedule(ex.c.MemReadTime(meta.ValueSize), s)
		return
	}
	dn.node.Disk.Schedule(ex.c.DiskReadTime(meta.ValueSize), s)
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
	d, _ := p.SolveExact()
	return d
}

// applyUpdate bumps a row version and emits invalidations to compute nodes
// known to cache the key (the tracked-cacher mode of Section 4.2.3).
func (dn *dataNode) applyUpdate(stage int, key string, broadcast bool) {
	ex := dn.ex
	table := ex.tables[stage]
	version := table.Update(key)
	notifyBytes := msgHeader + int64(len(key))
	notify := func(cn *computeNode) {
		ex.send(dn.id, cn.id, notifyBytes, sim.Func(func() {
			cn.opts[stage].Invalidate(key, version)
			ex.cfg.Store.DropCacher(ex.cfg.Tables[stage], key, cn.id)
		}))
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
