package exec

import (
	"math"
	"slices"

	"joinopt/internal/cluster"
	"joinopt/internal/core"
	"joinopt/internal/costmodel"
	"joinopt/internal/loadbalance"
	"joinopt/internal/sim"
)

// batchKey identifies a pending request batch: one per (stage, data node,
// kind). Compute and data requests batch separately because their response
// handling differs.
type batchKey struct {
	stage int
	node  cluster.NodeID
	kind  batchKind
}

type batchKind int

const (
	kindCompute batchKind = iota
	kindData
)

// pendingBatch is the batch a batchKey is filling. There is one for the life
// of the node, and gen counts the times flush has drained it.
type pendingBatch struct {
	cn   *computeNode
	key  batchKey
	reqs []*request
	gen  uint64
}

// batchTimer is a batch's max-wait timer. It flushes only the filling it was
// armed for: if the batch has drained since, gen is stale and it does
// nothing.
type batchTimer struct {
	b   *pendingBatch
	gen uint64
}

func (t *batchTimer) Fire() {
	b, gen := t.b, t.gen
	b.cn.ex.timers.Put(t)
	if b.gen == gen {
		b.cn.flush(b)
	}
}

// fetchKey identifies an in-flight cache fill.
type fetchKey struct {
	stage int
	key   string
}

// fetchWaiters lists the requests waiting on one in-flight cache fill,
// linked through request.next; head triggered the fill.
type fetchWaiters struct {
	head, tail *request
}

// outTrack tracks compute requests in flight to one data node and the
// historical fraction the data node chose to compute locally (used to
// estimate rc_ij in Appendix C).
type outTrack struct {
	inflight     int
	fracComputed *costmodel.Smoother
}

type computeNode struct {
	ex   *Executor
	id   cluster.NodeID
	node *cluster.Node

	// One optimizer per join stage (Section 6: per-join ski-rental).
	opts []*core.Optimizer

	outstanding int

	batches map[batchKey]*pendingBatch
	kicked  []*pendingBatch // kick's scratch
	// inflightFetch holds requests waiting on a cache fill already in
	// flight, keyed by (stage, key).
	inflightFetch map[fetchKey]fetchWaiters

	// Load statistics (Appendix C, compute side).
	pendingLocal   int // lcc_i
	unsentData     int // ndc_i
	unsentCompute  int // ncc_i
	pendingFetches int // ndrc_i
	out            map[cluster.NodeID]*outTrack
	localCPUSmooth *costmodel.Smoother // measured tcc (pure service time)

	// outstandingTo counts requests in flight per data node, for the RPC
	// backpressure cap.
	outstandingTo map[cluster.NodeID]int
}

func newComputeNode(ex *Executor, id cluster.NodeID, idx int64) *computeNode {
	cn := &computeNode{
		ex:            ex,
		id:            id,
		node:          ex.c.Node(id),
		batches:       make(map[batchKey]*pendingBatch),
		inflightFetch: make(map[fetchKey]fetchWaiters),
		out:           make(map[cluster.NodeID]*outTrack),
		outstandingTo: make(map[cluster.NodeID]int),
		localCPUSmooth: costmodel.NewSmoother(
			costmodel.DefaultAlpha, 1e-3),
	}
	disk := ex.cfg.DiskCacheBytes
	if disk == 0 {
		disk = math.MaxInt64 // the paper's unbounded dCache
	}
	for range ex.cfg.Tables {
		cn.opts = append(cn.opts, core.New(core.Config{
			Policy:         ex.cfg.Strategy.policy(),
			MemCacheBytes:  ex.cfg.MemCacheBytes,
			DiskCacheBytes: disk,
			Epsilon:        lossyEpsilon,
			Seed:           ex.cfg.Seed*1021 + idx,
			FreezeAfter:    ex.cfg.FreezeAfter,
		}))
	}
	return cn
}

func (cn *computeNode) track(j cluster.NodeID) *outTrack {
	t := cn.out[j]
	if t == nil {
		t = &outTrack{fracComputed: costmodel.NewSmoother(costmodel.DefaultAlpha, 1)}
		cn.out[j] = t
	}
	return t
}

// pump admits one tuple into this node's window if the source has more.
// Initial filling is done round-robin by Executor.deal so that the input is
// distributed evenly across compute nodes (the paper's standing assumption).
func (cn *computeNode) pump() {
	ex := cn.ex
	if cn.outstanding >= ex.cfg.Window || ex.exhausted {
		return
	}
	t, ok := ex.source.Next()
	if !ok {
		ex.exhausted = true
		return
	}
	ex.admitted++
	cn.outstanding++
	cn.admit(t)
}

// admit charges the per-tuple input cost and dispatches stage 0.
func (cn *computeNode) admit(t Tuple) {
	req := cn.ex.reqs.Get()
	*req = request{cn: cn, key: t.Keys[0], tuple: t, phase: phaseAdmitted}
	cn.node.CPU.Schedule(cn.ex.cfg.PerTupleCPU, req)
}

// advance moves a finished stage-result to the next stage or completes the
// tuple, applying the stage selectivity. The request itself goes on to the
// next stage.
func (cn *computeNode) advance(req *request) {
	ex := cn.ex
	next := req.stage + 1
	if next >= len(ex.tables) || !survives(req.key, req.stage, ex.selectivity(req.stage)) {
		ex.tupleDone(cn, req)
		return
	}
	req.stage, req.key = next, req.tuple.Keys[next]
	cn.dispatch(req)
}

// dispatch routes one request per Algorithm 1, then acts on the decision.
func (cn *computeNode) dispatch(req *request) {
	ex := cn.ex
	req.node = ex.tables[req.stage].Locate(req.key)
	req.route = cn.opts[req.stage].Route(req.key, ex.effectiveBw(cn.id, req.node))

	// The optimized strategies pay a small bookkeeping cost per decision
	// (statistics, counters, cache maintenance).
	if ex.cfg.Strategy.optimized() {
		req.phase = phaseDecided
		cn.node.CPU.Schedule(decisionCPU, req)
		return
	}
	cn.act(req)
}

// act carries out a request's routing decision.
func (cn *computeNode) act(req *request) {
	ex := cn.ex
	switch req.route {
	case core.RouteLocalMem:
		cn.computeLocally(req, 0)
	case core.RouteLocalDisk:
		opt := cn.opts[req.stage]
		info, _ := opt.Known(req.key) // size 0 if unknown
		// Disk-cache reads go through the FS buffer (Section 9's
		// SSD-cost observation): CPU + memory bandwidth.
		fs := ex.c.FSReadTime(info.ValueSize)
		opt.Model.DiskCompute.Observe(float64(fs))
		cn.pendingLocal++
		req.phase = phaseDiskRead
		cn.node.CPU.Schedule(fs, req)
	case core.RouteCompute:
		cn.enqueue(batchKey{req.stage, req.node, kindCompute}, req)
	case core.RouteDataMem, core.RouteDataDisk:
		fk := fetchKey{req.stage, req.key}
		if w, inflight := cn.inflightFetch[fk]; inflight {
			w.tail.next = req
			cn.inflightFetch[fk] = fetchWaiters{w.head, req}
			return
		}
		cn.inflightFetch[fk] = fetchWaiters{req, req}
		cn.enqueue(batchKey{req.stage, req.node, kindData}, req)
	case core.RouteDataNoCache:
		cn.enqueue(batchKey{req.stage, req.node, kindData}, req)
	}
}

// computeLocally charges the UDF cost (plus optional value materialization
// cost) on the local CPU; the request advances when it is done.
func (cn *computeNode) computeLocally(req *request, procBytes int64) {
	ex := cn.ex
	req.cost = ex.rowMeta(req.stage, req.key).ComputeCost
	d := sim.Duration(req.cost)
	if procBytes > 0 {
		d += sim.Duration(float64(procBytes) / valueProcBps)
	}
	cn.pendingLocal++
	req.enqueued = ex.k.Now()
	req.phase = phaseLocalUDF
	cn.node.CPU.Schedule(d, req)
}

// enqueue adds the request to its batch, flushing on size and arming the
// max-wait timer otherwise (Section 7.2).
func (cn *computeNode) enqueue(bk batchKey, req *request) {
	ex := cn.ex
	b := cn.batches[bk]
	if b == nil {
		b = &pendingBatch{cn: cn, key: bk}
		cn.batches[bk] = b
	}
	b.reqs = append(b.reqs, req)
	if bk.kind == kindCompute {
		cn.unsentCompute++
	} else {
		cn.unsentData++
	}
	if len(b.reqs) >= ex.cfg.BatchSize {
		cn.flush(b)
		return
	}
	if len(b.reqs) == 1 && ex.cfg.Strategy.batched() {
		t := ex.timers.Get()
		*t = batchTimer{b, b.gen}
		ex.k.Post(ex.k.Now()+batchTimeout, t)
	}
}

// flush drains a batch toward its data node in chunks of at most BatchSize
// requests, stopping when the per-data-node backpressure cap is reached;
// held requests are retried when responses free capacity (kick).
func (cn *computeNode) flush(b *pendingBatch) {
	ex := cn.ex
	sent := 0
	for sent < len(b.reqs) && cn.outstandingTo[b.key.node] < ex.cfg.MaxPerDataNode {
		n := min(ex.cfg.BatchSize, len(b.reqs)-sent)
		cn.sendChunk(b.key, b.reqs[sent:sent+n])
		sent += n
	}
	b.reqs = b.reqs[:copy(b.reqs, b.reqs[sent:])]
	if len(b.reqs) == 0 {
		b.gen++
	}
}

// kick retries held batches for a data node after responses freed capacity.
// Candidates are flushed in a fixed order (stage, then kind) so runs stay
// deterministic despite map iteration.
func (cn *computeNode) kick(j cluster.NodeID) {
	held := cn.kicked[:0]
	for bk, b := range cn.batches {
		if bk.node == j && len(b.reqs) > 0 {
			held = append(held, b)
		}
	}
	slices.SortFunc(held, func(a, b *pendingBatch) int {
		if a.key.stage != b.key.stage {
			return a.key.stage - b.key.stage
		}
		return int(a.key.kind) - int(b.key.kind)
	})
	for _, b := range held {
		cn.flush(b)
	}
	cn.kicked = held[:0]
}

// sendChunk ships one request chunk as a single message, a batchMsg that
// copies the chunk.
func (cn *computeNode) sendChunk(bk batchKey, reqs []*request) {
	ex := cn.ex
	n := len(reqs)
	bytes := msgHeader
	for _, r := range reqs {
		bytes += perReqBytes + int64(len(r.key))
		if bk.kind == kindCompute {
			bytes += r.tuple.ParamSize
		}
	}

	var stats loadbalance.ComputeStats
	if bk.kind == kindCompute {
		cn.unsentCompute -= n
		cn.track(bk.node).inflight += n
		if ex.cfg.Strategy.optimized() {
			bytes += statsBytes
			stats = cn.snapshotStats(bk.node)
		}
	} else {
		cn.unsentData -= n
		cn.pendingFetches += n
	}
	cn.outstandingTo[bk.node] += n

	m := ex.msgs.Get()
	m.cn, m.key, m.stats = cn, bk, stats
	m.reqs = append(m.reqs[:0], reqs...)
	ex.send(cn.id, bk.node, bytes, m)
}

// send is the message primitive of both node kinds: it transfers a message,
// charging the per-message NIC occupancy on both endpoints in addition to
// the byte time.
func (ex *Executor) send(from, to cluster.NodeID, bytes int64, deliver sim.Handler) {
	overhead := int64(float64(msgNICSec) * ex.c.Bandwidth(from, to))
	ex.c.Send(from, to, bytes+overhead, deliver)
}

// snapshotStats builds the Appendix C compute-side statistics for a batch
// heading to data node j.
func (cn *computeNode) snapshotStats(j cluster.NodeID) loadbalance.ComputeStats {
	var otherIn, otherComputed int
	for id, t := range cn.out {
		if id == j {
			continue
		}
		otherIn += t.inflight
		otherComputed += int(float64(t.inflight) * t.fracComputed.Value())
	}
	tcc := cn.localCPUSmooth.Value()
	if cn.localCPUSmooth.Samples() == 0 {
		tcc = 0 // nothing measured yet; the data node substitutes its own
	}
	return loadbalance.ComputeStats{
		PendingLocal:        cn.pendingLocal,
		PendingDataReqs:     cn.unsentData,
		PendingComputeReqs:  cn.unsentCompute,
		PendingDataResps:    cn.pendingFetches,
		OutstandingOther:    otherIn,
		OtherComputedAtData: otherComputed,
		TCC:                 tcc,
		NetBw:               cn.ex.c.Cfg.NetBwBps,
	}
}

// onComputedResponse handles UDF results computed at the data node.
func (cn *computeNode) onComputedResponse(j cluster.NodeID, reqs []*request, metas []core.ResponseMeta) {
	t := cn.track(j)
	t.inflight -= len(reqs)
	cn.outstandingTo[j] -= len(reqs)
	defer cn.kick(j)
	for i, req := range reqs {
		cn.opts[req.stage].OnComputeResponse(metas[i])
		cn.localCPUSmooth.Observe(metas[i].ComputeCost)
		t.fracComputed.Observe(1)
		cn.advance(req)
	}
}

// onRawResponse handles compute requests the balancer bounced back: the
// stored values arrive uncomputed and the UDF runs here. Per the paper's
// accounting these are rentals, so nothing is cached.
func (cn *computeNode) onRawResponse(j cluster.NodeID, reqs []*request, metas []core.ResponseMeta) {
	t := cn.track(j)
	t.inflight -= len(reqs)
	cn.outstandingTo[j] -= len(reqs)
	defer cn.kick(j)
	for i, req := range reqs {
		cn.opts[req.stage].OnComputeResponse(metas[i])
		cn.localCPUSmooth.Observe(metas[i].ComputeCost)
		t.fracComputed.Observe(0)
		cn.computeLocally(req, metas[i].ValueSize)
	}
}

// onDataResponse handles fetched values: cache fills (RouteDataMem/Disk,
// waking all waiters) and no-cache fetches (NO/FC/FR).
func (cn *computeNode) onDataResponse(j cluster.NodeID, reqs []*request, metas []core.ResponseMeta) {
	cn.pendingFetches -= len(reqs)
	cn.outstandingTo[j] -= len(reqs)
	defer cn.kick(j)
	for i, req := range reqs {
		m := metas[i]
		switch req.route {
		case core.RouteDataMem, core.RouteDataDisk:
			opt := cn.opts[req.stage]
			opt.OnValueFetched(req.key, m.ValueSize, m.Version, nil,
				req.route == core.RouteDataMem)
			cn.ex.cfg.Store.RecordCacher(cn.ex.cfg.Tables[req.stage], req.key, cn.id)
			fk := fetchKey{req.stage, req.key}
			waiters := cn.inflightFetch[fk]
			delete(cn.inflightFetch, fk)
			// Materialize the value once, then run the UDF for every
			// waiting tuple.
			proc := m.ValueSize
			for w := waiters.head; w != nil; {
				next := w.next
				w.next = nil
				cn.computeLocally(w, proc)
				proc, w = 0, next
			}
		default: // RouteDataNoCache
			cn.computeLocally(req, m.ValueSize)
		}
	}
}
