// Package cluster models a parallel data-management cluster on top of the
// discrete-event kernel: nodes with CPU, disk and full-duplex NIC resources,
// and a message layer that charges network transfer costs on both endpoints.
//
// The model matches the paper's cost formulation (Section 3.2 / 4.3): disk,
// CPU and network transfers overlap, so the latency of an operation is
// governed by its bottleneck resource; contention within one resource is
// FCFS.
package cluster

import (
	"fmt"

	"joinopt/internal/sim"
)

// NodeID identifies a node within a Cluster.
type NodeID int

// Role says what a node is used for. A node can be both (the reduce-side
// baselines use all nodes for both storage and computation).
type Role int

const (
	// RoleCompute marks a node running application (compute) tasks.
	RoleCompute Role = 1 << iota
	// RoleData marks a node hosting data-store regions.
	RoleData
)

// Config describes the hardware of the simulated cluster. The defaults
// mirror the paper's testbed: 20 nodes, 2x quad-core Xeon, 16 GB RAM,
// 1 GbE network, and a disk whose random-read cost matches an HBase
// region-server read.
type Config struct {
	Nodes      int     // total node count
	Cores      int     // CPU cores per node
	DiskChans  int     // parallel disk channels per node (1 = single spindle/SSD queue)
	NetBwBps   float64 // NIC bandwidth, bytes/second, each direction
	LatencySec float64 // one-way message latency, seconds
	DiskSeek   float64 // per-random-read seek/service overhead, seconds
	DiskBwBps  float64 // disk streaming bandwidth, bytes/second
	MemBwBps   float64 // memory-cache read bandwidth, bytes/second (used for mCache reads)
}

// DefaultConfig returns hardware matching the paper's 20-node testbed.
func DefaultConfig() Config {
	return Config{
		Nodes:      20,
		Cores:      8,
		DiskChans:  1,
		NetBwBps:   117e6, // ~1 GbE effective
		LatencySec: 200e-6,
		DiskSeek:   1e-4, // SSD-like random read (paper: disk cache ~ SSD cost)
		DiskBwBps:  400e6,
		MemBwBps:   8e9,
	}
}

// Node bundles the simulated resources of one machine.
type Node struct {
	ID     NodeID
	Roles  Role
	CPU    *sim.Resource
	Disk   *sim.Resource
	NetIn  *sim.Resource
	NetOut *sim.Resource

	cfg *Config

	// Traffic accounting.
	BytesSent     int64
	BytesReceived int64
	MsgsSent      int64
}

// Cluster owns the kernel and all nodes.
type Cluster struct {
	K     *sim.Kernel
	Nodes []*Node
	Cfg   Config

	// bw[i][j] overrides the effective bandwidth between i and j when
	// non-zero; otherwise Cfg.NetBwBps applies. Supports the paper's
	// inter-rack vs intra-rack scenario (Appendix D.4).
	bw map[NodeID]map[NodeID]float64

	TotalMessages int64
	TotalBytes    int64

	transfers []*transfer // free list
}

// transfer is a message between its sender's NetOut and its receiver's
// NetIn. It is the event NetOut fires when the bytes have left, and goes
// back on its cluster's free list once it has booked NetIn.
type transfer struct {
	c       *Cluster
	dst     *Node
	d       sim.Duration
	deliver sim.Handler
}

// Fire books the receiver's NetIn. It must run when NetOut completes, not
// when the message is sent: that call order decides NetIn's reservation
// order.
func (t *transfer) Fire() {
	c := t.c
	arrive := c.K.Now() + sim.Time(c.Cfg.LatencySec)
	t.dst.NetIn.ScheduleAfter(arrive, t.d, t.deliver)
	*t = transfer{c: c}
	c.transfers = append(c.transfers, t)
}

// New builds a cluster from cfg. Panics on nonsensical configs: cluster
// construction errors are programming errors in experiment setup.
func New(cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		panic("cluster: need at least one node")
	}
	if cfg.Cores <= 0 || cfg.NetBwBps <= 0 {
		panic("cluster: cores and bandwidth must be positive")
	}
	if cfg.DiskChans <= 0 {
		cfg.DiskChans = 1
	}
	k := sim.NewKernel()
	c := &Cluster{K: k, Cfg: cfg}
	for i := 0; i < cfg.Nodes; i++ {
		id := NodeID(i)
		c.Nodes = append(c.Nodes, &Node{
			ID:     id,
			CPU:    sim.NewResource(k, fmt.Sprintf("n%d.cpu", i), cfg.Cores),
			Disk:   sim.NewResource(k, fmt.Sprintf("n%d.disk", i), cfg.DiskChans),
			NetIn:  sim.NewResource(k, fmt.Sprintf("n%d.in", i), 1),
			NetOut: sim.NewResource(k, fmt.Sprintf("n%d.out", i), 1),
			cfg:    &c.Cfg,
		})
	}
	return c
}

// Node returns the node with the given id.
func (c *Cluster) Node(id NodeID) *Node {
	return c.Nodes[int(id)]
}

// SetBandwidth overrides the effective bandwidth (bytes/sec) used for
// transfers between a and b, in both directions.
func (c *Cluster) SetBandwidth(a, b NodeID, bps float64) {
	if c.bw == nil {
		c.bw = make(map[NodeID]map[NodeID]float64)
	}
	set := func(x, y NodeID) {
		m := c.bw[x]
		if m == nil {
			m = make(map[NodeID]float64)
			c.bw[x] = m
		}
		m[y] = bps
	}
	set(a, b)
	set(b, a)
}

// Bandwidth returns the effective bandwidth between from and to.
func (c *Cluster) Bandwidth(from, to NodeID) float64 {
	if m, ok := c.bw[from]; ok {
		if v, ok := m[to]; ok {
			return v
		}
	}
	return c.Cfg.NetBwBps
}

// Send models transferring a message of size bytes from one node to another
// and fires deliver at the receiver once the transfer completes. The
// transfer occupies the sender's outbound NIC and the receiver's inbound NIC
// sequentially (store-and-forward with a propagation latency in between),
// which yields FCFS bandwidth contention on both endpoints.
//
// Local sends (from == to) are delivered after a negligible loopback delay
// without consuming NIC capacity. Once the cluster has carried as many
// messages at a time as it ever will, Send allocates nothing.
func (c *Cluster) Send(from, to NodeID, bytes int64, deliver sim.Handler) {
	if bytes < 0 {
		panic("cluster: negative message size")
	}
	c.TotalMessages++
	c.TotalBytes += bytes
	src := c.Node(from)
	src.MsgsSent++
	src.BytesSent += bytes
	if from == to {
		c.K.Post(c.K.Now()+1e-7, deliver)
		return
	}
	dst := c.Node(to)
	dst.BytesReceived += bytes
	var t *transfer
	if n := len(c.transfers); n > 0 {
		t = c.transfers[n-1]
		c.transfers = c.transfers[:n-1]
	} else {
		t = &transfer{c: c}
	}
	t.dst, t.deliver = dst, deliver
	t.d = sim.Duration(float64(bytes) / c.Bandwidth(from, to))
	src.NetOut.Schedule(t.d, t)
}

// DiskReadTime returns the service time of a random read of size bytes:
// seek overhead plus streaming transfer.
func (c *Cluster) DiskReadTime(bytes int64) sim.Duration {
	return sim.Duration(c.Cfg.DiskSeek + float64(bytes)/c.Cfg.DiskBwBps)
}

// MemReadTime returns the service time of reading size bytes from the
// in-memory cache.
func (c *Cluster) MemReadTime(bytes int64) sim.Duration {
	return sim.Duration(float64(bytes) / c.Cfg.MemBwBps)
}

// FSReadTime returns the service time of reading size bytes through the
// file system from the disk cache. Per the paper's observation (Section 9),
// disk-cache contents are usually resident in the FS buffer cache: reads
// pay a file-system overhead and a memory-bandwidth copy, not a disk seek,
// and consume CPU rather than the disk channel.
func (c *Cluster) FSReadTime(bytes int64) sim.Duration {
	return sim.Duration(100e-6 + float64(bytes)/c.Cfg.MemBwBps)
}

// ComputeNodes returns the ids of nodes with RoleCompute.
func (c *Cluster) ComputeNodes() []NodeID {
	var out []NodeID
	for _, n := range c.Nodes {
		if n.Roles&RoleCompute != 0 {
			out = append(out, n.ID)
		}
	}
	return out
}

// DataNodes returns the ids of nodes with RoleData.
func (c *Cluster) DataNodes() []NodeID {
	var out []NodeID
	for _, n := range c.Nodes {
		if n.Roles&RoleData != 0 {
			out = append(out, n.ID)
		}
	}
	return out
}

// AssignRoles gives the first nCompute nodes RoleCompute and the next nData
// nodes RoleData. If overlap is true, every node gets both roles instead
// (the all-20-node reduce-side configurations).
func (c *Cluster) AssignRoles(nCompute, nData int, overlap bool) {
	if overlap {
		for _, n := range c.Nodes {
			n.Roles = RoleCompute | RoleData
		}
		return
	}
	if nCompute+nData > len(c.Nodes) {
		panic("cluster: not enough nodes for role assignment")
	}
	for i := 0; i < nCompute; i++ {
		c.Nodes[i].Roles = RoleCompute
	}
	for i := nCompute; i < nCompute+nData; i++ {
		c.Nodes[i].Roles = RoleData
	}
}
