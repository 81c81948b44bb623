// Package exec is the discrete-event execution engine that runs the paper's
// join workloads on the simulated cluster. It wires the core optimizer
// (Algorithm 1) onto compute nodes, models data-node request service
// (disk + coprocessor CPU + NIC), performs the batch-level load balancing of
// Section 5 at data nodes, and measures makespan/throughput.
//
// All of the paper's experiment strategies are supported:
//
//	NO  map-side join, blocking singleton requests, no optimizations
//	FC  function at compute nodes with batching/prefetching, no caching
//	FD  function at data nodes with batching/prefetching
//	FR  random per-tuple choice between compute and data requests
//	CO  ski-rental caching only (no load balancing)
//	LO  load balancing only (no caching)
//	FO  all optimizations (the paper's full system)
//
// The executor's moving parts are their own kernel events (sim.Handler):
// a request, a batch message and its replies, a data node's serve slot and
// a batch's max-wait timer each fire themselves, so no closure is built per
// request, batch or message. Requests, batch messages and timers are
// recycled on free lists owned by the Executor, under two ownership rules:
//
//   - A request is in exactly one place at a time: the event queue, a
//     pending batch, an in-flight fetch's waiters or a batch message.
//     advance reuses it for the tuple's next stage, and it is freed at
//     tupleDone.
//   - A batchMsg carries one chunk of requests to a data node and its
//     responses back, and is freed after its last reply.
package exec

import (
	"fmt"
	"strconv"

	"joinopt/internal/cluster"
	"joinopt/internal/core"
	"joinopt/internal/sim"
	"joinopt/internal/store"
	"joinopt/internal/workload"
)

// Strategy selects one of the paper's execution strategies.
type Strategy int

// The strategies of Section 9.
const (
	NO Strategy = iota
	FC
	FD
	FR
	CO
	LO
	FO
)

// String returns the paper's abbreviation.
func (s Strategy) String() string {
	switch s {
	case NO:
		return "NO"
	case FC:
		return "FC"
	case FD:
		return "FD"
	case FR:
		return "FR"
	case CO:
		return "CO"
	case LO:
		return "LO"
	case FO:
		return "FO"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// policy maps a strategy to the optimizer policy knobs.
func (s Strategy) policy() core.Policy {
	switch s {
	case NO, FC:
		return core.Policy{AlwaysFetch: true}
	case FD, LO:
		return core.Policy{AlwaysCompute: true}
	case FR:
		return core.Policy{RandomChoice: true}
	default: // CO, FO
		return core.Policy{Caching: true}
	}
}

// loadBalanced reports whether data nodes run the Section 5 balancer.
func (s Strategy) loadBalanced() bool { return s == LO || s == FO }

// optimized reports whether the strategy pays the paper's bookkeeping
// overheads (statistics piggybacking, decision CPU).
func (s Strategy) optimized() bool { return s == CO || s == LO || s == FO }

// batched reports whether requests are batched and prefetched (everything
// except NO, which models the default blocking API).
func (s Strategy) batched() bool { return s != NO }

// Tuple and Source are re-exported from the workload package for
// convenience: the executor consumes workload sources directly.
type (
	// Tuple is one input item (see workload.Tuple).
	Tuple = workload.Tuple
	// Source yields the input relation or stream (see workload.Source).
	Source = workload.Source
	// SliceSource serves tuples from a slice (see workload.SliceSource).
	SliceSource = workload.SliceSource
)

// Config configures a run.
type Config struct {
	Cluster  *cluster.Cluster
	Store    *store.Store
	Tables   []string // one stored table per join stage
	Strategy Strategy

	// StageSelectivity[i] is the probability a tuple survives stage i and
	// proceeds to stage i+1 (deterministic, hash-derived). Empty = all 1.
	StageSelectivity []float64

	BatchSize int // requests per batch (Section 7.2); default 64
	Window    int // max outstanding tuples per compute node; default 256
	// MaxPerDataNode bounds requests in flight from one compute node to
	// one data node (the store's RPC handler-queue backpressure); default
	// 32. Without it a skewed data node absorbs its entire backlog before
	// any cost feedback returns.
	MaxPerDataNode int

	MemCacheBytes  int64 // mCache capacity per compute node; default 100 MB
	DiskCacheBytes int64 // dCache capacity; 0 = unbounded
	Seed           int64

	// FreezeAfter stops ski-rental adaptation after this many routed
	// tuples per compute node (Figure 9 non-adaptive mode). 0 = adaptive.
	FreezeAfter int

	// BlockCacheBytes enables an LRU block cache at each data node
	// (ablation; 0 = off). The faithful configuration keeps it off: the
	// paper sizes the large workloads at 200 GB specifically so stored
	// data does not fit in memory, and the skew effects of Figures 8a/11a
	// depend on hot keys hitting the read path.
	BlockCacheBytes int64

	// PerTupleCPU is the input parse/map cost per tuple at a compute
	// node; default 10µs.
	PerTupleCPU sim.Duration
}

// The service model's fixed parameters.
const (
	batchTimeout sim.Duration = 0.005  // max wait before flushing a partial batch
	lossyEpsilon              = 1e-4   // the optimizers' lossy-counting error bound
	decisionCPU  sim.Duration = 2e-6   // optimizer bookkeeping per routed tuple (CO/LO/FO)
	requestCPU   sim.Duration = 30e-6  // per-request handling CPU at the data node
	valueProcBps              = 500e6  // value materialization bandwidth (bytes/sec of CPU)
	msgHeader    int64        = 256    // fixed wire bytes per message
	perReqBytes  int64        = 32     // framing bytes per request within a batch
	statsBytes   int64        = 200    // piggybacked statistics per batch (Section 5)
	msgNICSec    sim.Duration = 0.3e-3 // per-message NIC occupancy (RPC framing/syscalls)
)

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.BatchSize == 0 {
		c.BatchSize = 64
	}
	if c.Window == 0 {
		c.Window = 256
	}
	if c.MaxPerDataNode == 0 {
		c.MaxPerDataNode = 32
	}
	if c.MemCacheBytes == 0 {
		c.MemCacheBytes = 100 << 20
	}
	if c.PerTupleCPU == 0 {
		c.PerTupleCPU = 10e-6
	}
	if c.Strategy == NO {
		// Default blocking API: one request per call, one call per map
		// task; map tasks = cores.
		c.BatchSize = 1
		c.Window = c.Cluster.Cfg.Cores
	}
	return c
}

// Report is the outcome of a run.
type Report struct {
	Strategy   Strategy
	Tuples     int64
	Makespan   float64 // virtual seconds until the last tuple completed
	Throughput float64 // tuples per virtual second

	ComputeReqs   int64 // requests shipped to data nodes
	DataReqs      int64 // cache-filling fetches
	NoCacheReqs   int64 // fetch-and-forget requests (NO/FC/FR)
	MemHits       int64
	DiskHits      int64
	ComputedAtDN  int64 // compute requests executed at data nodes
	ReturnedRaw   int64 // compute requests bounced back by the balancer
	Messages      int64
	BytesOnWire   int64
	MaxCPUBusy    float64 // busiest node CPU seconds
	MaxDiskBusy   float64
	MaxNICBusy    float64
	Invalidations int64
}

// String formats the headline numbers.
func (r Report) String() string {
	return fmt.Sprintf("%s: %d tuples in %.3fs (%.0f tuples/s) computeReqs=%d dataReqs=%d memHits=%d",
		r.Strategy, r.Tuples, r.Makespan, r.Throughput,
		r.ComputeReqs, r.DataReqs, r.MemHits)
}

// survives deterministically decides whether a tuple passes stage s with the
// given selectivity, using a hash of the stage key.
func survives(key string, stage int, selectivity float64) bool {
	if selectivity >= 1 {
		return true
	}
	if selectivity <= 0 {
		return false
	}
	u := stageHash(key, stage) >> 11 // 53 bits
	return float64(u)/float64(1<<53) < selectivity
}

// stageHash is the 64-bit FNV-1a hash of "key/stage", computed inline so it
// allocates nothing.
func stageHash(key string, stage int) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime64
	}
	var buf [24]byte
	for _, c := range strconv.AppendInt(append(buf[:0], '/'), int64(stage), 10) {
		h = (h ^ uint64(c)) * prime64
	}
	return h
}
