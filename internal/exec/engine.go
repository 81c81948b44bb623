package exec

import (
	"joinopt/internal/cluster"
	"joinopt/internal/core"
	"joinopt/internal/costmodel"
	"joinopt/internal/sim"
	"joinopt/internal/slab"
	"joinopt/internal/store"
)

// Executor runs one workload on the simulated cluster.
type Executor struct {
	cfg    Config
	k      *sim.Kernel
	c      *cluster.Cluster
	tables []*store.Table
	source Source

	computes []*computeNode
	datas    map[cluster.NodeID]*dataNode

	admitted  int64
	completed int64
	exhausted bool
	lastDone  sim.Time

	// Free lists: the run's requests, batch messages and batch timers are
	// recycled, so the steady state allocates none of them, and the
	// warm-up allocates them a chunk at a time.
	reqs   slab.List[request]
	msgs   slab.List[batchMsg]
	timers slab.List[batchTimer]

	report Report
}

// request is one tuple's work at one join stage. It is its own event (see
// Fire): phase says which step its next firing takes. advance reuses it for
// the tuple's next stage, and it goes back on the free list when the tuple
// is done.
type request struct {
	cn    *computeNode
	stage int
	key   string
	tuple Tuple
	route core.Route
	phase phase
	node  cluster.NodeID // the data node holding key
	next  *request       // the next waiter on the same in-flight fetch

	// The local UDF run in flight (phaseLocalUDF).
	enqueued sim.Time
	cost     float64
}

// phase is the step a request takes when it next fires.
type phase uint8

const (
	phaseAdmitted phase = iota // input cost paid: route it (dispatch)
	phaseDecided               // decision cost paid: act on the route
	phaseDiskRead              // disk-cache read done: run the UDF here
	phaseLocalUDF              // local UDF done: advance to the next stage
)

// Fire takes the request's next step.
func (r *request) Fire() {
	cn := r.cn
	switch r.phase {
	case phaseAdmitted:
		cn.dispatch(r)
	case phaseDecided:
		cn.act(r)
	case phaseDiskRead:
		cn.pendingLocal--
		cn.computeLocally(r, 0)
	case phaseLocalUDF:
		cn.pendingLocal--
		cn.localCPUSmooth.Observe(r.cost)
		cn.opts[r.stage].ObserveLocalCompute(float64(cn.ex.k.Now()-r.enqueued), r.cost)
		cn.advance(r)
	}
}

// New builds an executor. The cluster must already have roles assigned and
// the store must contain all configured tables.
func New(cfg Config, source Source) *Executor {
	cfg = cfg.withDefaults()
	ex := &Executor{
		cfg:    cfg,
		k:      cfg.Cluster.K,
		c:      cfg.Cluster,
		source: source,
		datas:  make(map[cluster.NodeID]*dataNode),
	}
	if len(cfg.Tables) == 0 {
		panic("exec: at least one table required")
	}
	for _, name := range cfg.Tables {
		t := cfg.Store.Table(name)
		if t == nil {
			panic("exec: unknown table " + name)
		}
		ex.tables = append(ex.tables, t)
	}
	for i, id := range ex.c.ComputeNodes() {
		ex.computes = append(ex.computes, newComputeNode(ex, id, int64(i)))
	}
	if len(ex.computes) == 0 {
		panic("exec: no compute nodes")
	}
	for _, id := range ex.c.DataNodes() {
		ex.datas[id] = newDataNode(ex, id)
	}
	if len(ex.datas) == 0 {
		panic("exec: no data nodes")
	}
	return ex
}

// Run executes the workload to completion and returns the report.
func (ex *Executor) Run() Report {
	ex.deal()
	ex.k.Run()
	return ex.buildReport()
}

// deal fills every compute node's window round-robin, one tuple per node per
// round, so the input is spread evenly (round-robin distribution,
// Section 3.1).
func (ex *Executor) deal() {
	for !ex.exhausted {
		progress := false
		for _, cn := range ex.computes {
			if cn.outstanding >= ex.cfg.Window {
				continue
			}
			t, ok := ex.source.Next()
			if !ok {
				ex.exhausted = true
				return
			}
			ex.admitted++
			cn.outstanding++
			cn.admit(t)
			progress = true
		}
		if !progress {
			return
		}
	}
}

// selectivity returns the survival probability after the given stage.
func (ex *Executor) selectivity(stage int) float64 {
	if stage >= len(ex.cfg.StageSelectivity) {
		return 1
	}
	return ex.cfg.StageSelectivity[stage]
}

// tupleDone finalizes one tuple and frees its request.
func (ex *Executor) tupleDone(cn *computeNode, req *request) {
	ex.reqs.Put(req)
	ex.completed++
	ex.lastDone = ex.k.Now()
	cn.outstanding--
	cn.pump()
}

func (ex *Executor) buildReport() Report {
	r := &ex.report
	r.Strategy = ex.cfg.Strategy
	r.Tuples = ex.completed
	r.Makespan = float64(ex.lastDone)
	if r.Makespan > 0 {
		r.Throughput = float64(ex.completed) / r.Makespan
	}
	r.Messages = ex.c.TotalMessages
	r.BytesOnWire = ex.c.TotalBytes
	for _, cn := range ex.computes {
		s := cn.opts[0].Stats()
		for _, o := range cn.opts[1:] {
			st := o.Stats()
			s.ComputeReqs += st.ComputeReqs
			s.DataReqs += st.DataReqs
			s.NoCacheReqs += st.NoCacheReqs
			s.LocalMem += st.LocalMem
			s.LocalDisk += st.LocalDisk
		}
		r.ComputeReqs += s.ComputeReqs
		r.DataReqs += s.DataReqs
		r.NoCacheReqs += s.NoCacheReqs
		r.MemHits += s.LocalMem
		r.DiskHits += s.LocalDisk
	}
	for _, dn := range ex.datas {
		r.ComputedAtDN += dn.computedHere
		r.ReturnedRaw += dn.returnedRaw
	}
	for _, n := range ex.c.Nodes {
		if b := float64(n.CPU.BusyTime()); b > r.MaxCPUBusy {
			r.MaxCPUBusy = b
		}
		if b := float64(n.Disk.BusyTime()); b > r.MaxDiskBusy {
			r.MaxDiskBusy = b
		}
		nic := float64(n.NetIn.BusyTime() + n.NetOut.BusyTime())
		if nic > r.MaxNICBusy {
			r.MaxNICBusy = nic
		}
	}
	return *r
}

// effectiveBw is the bandwidth used in cost formulas for a node pair.
func (ex *Executor) effectiveBw(a, b cluster.NodeID) float64 {
	return ex.c.Bandwidth(a, b)
}

// rowMeta fetches catalog metadata for a stage key.
func (ex *Executor) rowMeta(stage int, key string) store.RowMeta {
	return ex.tables[stage].Row(key)
}

// sizesFor builds the average message-component sizes the load balancer
// uses, from a data node's observed model.
func sizesFor(m *costmodel.Model) (sk, sp, sv, scv float64) {
	return m.SizeK.Value(), m.SizeP.Value(), m.SizeV.Value(), m.SizeCV.Value()
}
