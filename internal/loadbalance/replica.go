package loadbalance

import (
	"math"
	"sync"
	"sync/atomic"
)

// ReplicaTracker learns per-replica service times so the executor can price
// Algorithm 1's fetch-vs-compute decision against the CHEAPEST live replica
// of a key instead of its nominal owner (the replicated-placement extension
// the ROADMAP's replication item calls for: the same runtime statistics
// Section 3.2 measures, fed into a choice among replicas). Each node's
// estimate is an EWMA of observed per-request wall seconds — the same
// 0.25/0.75 blend the servers use for their UDF averages — stored as atomic
// float bits so the routing hot path reads without a lock.
//
// Nodes are registered lazily on first Observe; Estimate for an unobserved
// node is 0, which Pick treats as "no evidence against it" so fresh (or
// freshly rejoined) replicas are tried rather than starved. The EWMA is a
// trailing signal; the leading one — a node advertising an exhausted admission
// window — is held by the caller's connection pool, which sees it on every
// response, and the caller's picker applies it (live.Executor.pickReplica).
type ReplicaTracker struct {
	mu    sync.Mutex
	nodes map[int]*atomic.Uint64 // node id -> math.Float64bits(EWMA seconds)
}

// NewReplicaTracker returns an empty tracker.
func NewReplicaTracker() *ReplicaTracker {
	return &ReplicaTracker{nodes: make(map[int]*atomic.Uint64)}
}

const replicaEWMA = 0.25

// Observe folds one request's measured service time (seconds) into the
// node's estimate.
func (rt *ReplicaTracker) Observe(node int, seconds float64) {
	if seconds < 0 || math.IsNaN(seconds) || math.IsInf(seconds, 0) {
		return
	}
	cell := rt.cell(node)
	for {
		old := cell.Load()
		prev := math.Float64frombits(old)
		next := seconds
		if old != 0 {
			next = replicaEWMA*seconds + (1-replicaEWMA)*prev
		}
		if cell.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// Estimate returns the node's EWMA service seconds, or 0 when it has never
// been observed.
func (rt *ReplicaTracker) Estimate(node int) float64 {
	rt.mu.Lock()
	cell := rt.nodes[node]
	rt.mu.Unlock()
	if cell == nil {
		return 0
	}
	return math.Float64frombits(cell.Load())
}

// cell returns (creating if absent) the node's estimate cell.
func (rt *ReplicaTracker) cell(node int) *atomic.Uint64 {
	rt.mu.Lock()
	c := rt.nodes[node]
	if c == nil {
		c = &atomic.Uint64{}
		rt.nodes[node] = c
	}
	rt.mu.Unlock()
	return c
}

// Pick returns the index into nodes of the cheapest live replica: among the
// nodes for which alive answers true, the one with the lowest estimate
// (ties and unobserved nodes resolve to the earliest index, so the primary
// is preferred until the measurements say otherwise). With every node dead
// it returns 0 — the caller's transport path surfaces the failure.
func (rt *ReplicaTracker) Pick(nodes []int, alive func(int) bool) int {
	best, bestCost, haveLive := 0, math.MaxFloat64, false
	for i, n := range nodes {
		if alive != nil && !alive(n) {
			continue
		}
		if c := rt.Estimate(n); !haveLive || c < bestCost {
			best, bestCost, haveLive = i, c, true
		}
	}
	return best
}
