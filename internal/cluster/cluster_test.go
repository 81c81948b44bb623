package cluster

import (
	"testing"

	"joinopt/internal/sim"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	return cfg
}

func TestAssignRolesSplit(t *testing.T) {
	c := New(testConfig())
	c.AssignRoles(2, 2, false)
	if got := len(c.ComputeNodes()); got != 2 {
		t.Fatalf("compute nodes = %d, want 2", got)
	}
	if got := len(c.DataNodes()); got != 2 {
		t.Fatalf("data nodes = %d, want 2", got)
	}
	for _, id := range c.ComputeNodes() {
		for _, did := range c.DataNodes() {
			if id == did {
				t.Fatalf("node %d has both roles in split mode", id)
			}
		}
	}
}

func TestAssignRolesOverlap(t *testing.T) {
	c := New(testConfig())
	c.AssignRoles(0, 0, true)
	if len(c.ComputeNodes()) != 4 || len(c.DataNodes()) != 4 {
		t.Fatalf("overlap roles: compute=%d data=%d, want 4/4",
			len(c.ComputeNodes()), len(c.DataNodes()))
	}
}

func TestSendTransferTime(t *testing.T) {
	cfg := testConfig()
	cfg.NetBwBps = 1e6
	cfg.LatencySec = 0.001
	c := New(cfg)
	var delivered sim.Time
	c.Send(0, 1, 1e6, sim.Func(func() { delivered = c.K.Now() }))
	c.K.Run()
	// 1 MB at 1 MB/s: 1s on sender NIC + 1ms latency + 1s on receiver NIC.
	want := sim.Time(2.001)
	if diff := delivered - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("delivered at %v, want %v", delivered, want)
	}
}

func TestSendContentionSerializesOnSenderNIC(t *testing.T) {
	cfg := testConfig()
	cfg.NetBwBps = 1e6
	cfg.LatencySec = 0
	c := New(cfg)
	var last sim.Time
	for i := 0; i < 3; i++ {
		c.Send(0, 1, 1e6, sim.Func(func() {
			if c.K.Now() > last {
				last = c.K.Now()
			}
		}))
	}
	c.K.Run()
	// Three 1s sends: sender NIC serializes at 1,2,3; receiver NIC then
	// adds 1s each but can overlap with later sender transfers:
	// deliveries at 2,3,4.
	if diff := last - 4; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("last delivery at %v, want 4", last)
	}
}

func TestSendLocalLoopback(t *testing.T) {
	c := New(testConfig())
	done := false
	c.Send(2, 2, 1<<30, sim.Func(func() { done = true }))
	end := c.K.Run()
	if !done {
		t.Fatal("local send not delivered")
	}
	if end > 1e-3 {
		t.Fatalf("local send took %v, should be near-instant", end)
	}
	if c.Node(2).NetOut.Jobs() != 0 {
		t.Fatal("local send consumed NIC capacity")
	}
}

func TestBandwidthOverride(t *testing.T) {
	cfg := testConfig()
	cfg.NetBwBps = 1e6
	cfg.LatencySec = 0
	c := New(cfg)
	c.SetBandwidth(0, 1, 2e6)
	if got := c.Bandwidth(0, 1); got != 2e6 {
		t.Fatalf("Bandwidth(0,1) = %v, want 2e6", got)
	}
	if got := c.Bandwidth(1, 0); got != 2e6 {
		t.Fatalf("Bandwidth(1,0) = %v, want 2e6 (symmetric)", got)
	}
	if got := c.Bandwidth(0, 2); got != 1e6 {
		t.Fatalf("Bandwidth(0,2) = %v, want default 1e6", got)
	}
	var delivered sim.Time
	c.Send(0, 1, 2e6, sim.Func(func() { delivered = c.K.Now() }))
	c.K.Run()
	if diff := delivered - 2; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("override transfer delivered at %v, want 2", delivered)
	}
}

func TestDiskAndMemReadTimes(t *testing.T) {
	cfg := testConfig()
	cfg.DiskSeek = 0.01
	cfg.DiskBwBps = 100
	cfg.MemBwBps = 1000
	c := New(cfg)
	if got := c.DiskReadTime(100); got != sim.Duration(1.01) {
		t.Fatalf("DiskReadTime = %v, want 1.01", got)
	}
	if got := c.MemReadTime(100); got != sim.Duration(0.1) {
		t.Fatalf("MemReadTime = %v, want 0.1", got)
	}
}

func TestTrafficAccounting(t *testing.T) {
	c := New(testConfig())
	c.Send(0, 1, 100, sim.Func(func() {}))
	c.Send(0, 2, 200, sim.Func(func() {}))
	c.K.Run()
	if c.TotalMessages != 2 || c.TotalBytes != 300 {
		t.Fatalf("totals = %d msgs / %d bytes, want 2/300", c.TotalMessages, c.TotalBytes)
	}
	if c.Node(0).BytesSent != 300 {
		t.Fatalf("node0 sent %d, want 300", c.Node(0).BytesSent)
	}
	if c.Node(1).BytesReceived != 100 || c.Node(2).BytesReceived != 200 {
		t.Fatal("receiver byte accounting wrong")
	}
}
