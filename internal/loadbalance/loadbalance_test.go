package loadbalance

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func balancedInputs() (ComputeStats, DataStats, Sizes) {
	cs := ComputeStats{TCC: 0.01, NetBw: 100e6}
	ds := DataStats{TCD: 0.01, NetBw: 100e6}
	sz := Sizes{SK: 16, SP: 100, SV: 1000, SCV: 100}
	return cs, ds, sz
}

func TestIdleNodesSplitEvenly(t *testing.T) {
	cs, ds, sz := balancedInputs()
	// No backlog anywhere, equal CPU speeds, tiny messages: the optimum
	// splits the batch roughly in half.
	sz.SV, sz.SCV = 100, 100 // neutral network
	p := Build(cs, ds, sz, 100)
	d, _ := p.SolveExact()
	if d < 40 || d > 60 {
		t.Fatalf("idle symmetric split d=%d, want ~50", d)
	}
}

func TestLoadedDataNodePushesWorkBack(t *testing.T) {
	cs, ds, sz := balancedInputs()
	sz.SV, sz.SCV = 100, 100
	ds.ComputedAtData = 5000 // data node has a big CPU backlog
	p := Build(cs, ds, sz, 100)
	d, _ := p.SolveExact()
	if d > 5 {
		t.Fatalf("loaded data node still took d=%d of 100", d)
	}
}

func TestLoadedComputeNodePushesWorkToData(t *testing.T) {
	cs, ds, sz := balancedInputs()
	sz.SV, sz.SCV = 100, 100
	cs.PendingLocal = 5000
	p := Build(cs, ds, sz, 100)
	d, _ := p.SolveExact()
	if d < 95 {
		t.Fatalf("loaded compute node only pushed d=%d of 100 to data node", d)
	}
}

func TestNetworkHeavyValuesFavorComputingAtData(t *testing.T) {
	cs, ds, sz := balancedInputs()
	// Stored value is huge, computed value tiny, CPU almost free:
	// shipping values back dominates, so compute at the data node.
	sz.SV, sz.SCV = 1e6, 100
	cs.TCC, ds.TCD = 1e-6, 1e-6
	cs.NetBw, ds.NetBw = 1e6, 1e6
	p := Build(cs, ds, sz, 100)
	d, _ := p.SolveExact()
	if d < 95 {
		t.Fatalf("network-heavy workload computed only d=%d at data node", d)
	}
}

func TestCPUHeavySplitsByCapacity(t *testing.T) {
	cs, ds, sz := balancedInputs()
	sz.SV, sz.SCV = 100, 100
	cs.TCC, ds.TCD = 0.1, 0.1 // expensive UDF, cheap network
	p := Build(cs, ds, sz, 100)
	d, _ := p.SolveExact()
	if d < 40 || d > 60 {
		t.Fatalf("CPU-heavy split d=%d, want ~50", d)
	}
}

func TestExactIsOptimalOnGrid(t *testing.T) {
	cs, ds, sz := balancedInputs()
	cs.PendingLocal = 37
	ds.ComputedAtData = 11
	p := Build(cs, ds, sz, 64)
	d, v := p.SolveExact()
	for x := 0; x <= 64; x++ {
		if p.At(float64(x)) < v-1e-12 {
			t.Fatalf("grid point %d beats exact solution d=%d (%v < %v)",
				x, d, p.At(float64(x)), v)
		}
	}
}

// Property: the exact solver is optimal over the integer grid for random
// problems.
func TestExactOptimalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng)
		_, v := p.SolveExact()
		for x := 0; x <= p.B; x++ {
			if p.At(float64(x)) < v-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func randomProblem(rng *rand.Rand) Problem {
	cs := ComputeStats{
		PendingLocal:        rng.Intn(1000),
		PendingDataReqs:     rng.Intn(100),
		PendingComputeReqs:  rng.Intn(100),
		PendingDataResps:    rng.Intn(100),
		OutstandingOther:    rng.Intn(200),
		OtherComputedAtData: 0,
		TCC:                 rng.Float64() * 0.1,
		NetBw:               1e6 + rng.Float64()*1e9,
	}
	cs.OtherComputedAtData = rng.Intn(cs.OutstandingOther + 1)
	ds := DataStats{
		PendingDataReqs:    rng.Intn(100),
		PendingDataResps:   rng.Intn(100),
		PendingComputeReqs: rng.Intn(500),
		TCD:                rng.Float64() * 0.1,
		NetBw:              1e6 + rng.Float64()*1e9,
	}
	ds.ComputedAtData = rng.Intn(ds.PendingComputeReqs + 1)
	ds.FromIPending = rng.Intn(ds.PendingComputeReqs + 1)
	ds.FromIComputedAtData = rng.Intn(ds.FromIPending + 1)
	sz := Sizes{
		SK:  rng.Float64() * 64,
		SP:  rng.Float64() * 1e3,
		SV:  rng.Float64() * 1e6,
		SCV: rng.Float64() * 1e4,
	}
	return Build(cs, ds, sz, rng.Intn(256)+1)
}

func TestObjectiveIsConvex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		p := randomProblem(rng)
		b := float64(p.B)
		for i := 0; i < 20; i++ {
			x := rng.Float64() * b
			y := rng.Float64() * b
			mid := (x + y) / 2
			if p.At(mid) > (p.At(x)+p.At(y))/2+1e-9 {
				t.Fatalf("objective not convex at %v/%v", x, y)
			}
		}
	}
}

func TestLinearAt(t *testing.T) {
	l := Linear{Slope: 2, Intercept: 3}
	if l.At(4) != 11 {
		t.Fatalf("Linear.At = %v, want 11", l.At(4))
	}
}

func TestBatchOfOne(t *testing.T) {
	cs, ds, sz := balancedInputs()
	p := Build(cs, ds, sz, 1)
	d, _ := p.SolveExact()
	if d != 0 && d != 1 {
		t.Fatalf("b=1 returned d=%d", d)
	}
}

func TestMaxAt(t *testing.T) {
	p := Problem{Loads: [4]Linear{{1, 0}, {-1, 10}, {0, 3}, {0, 0}}, B: 10}
	if got := p.At(0); got != 10 {
		t.Fatalf("At(0) = %v, want 10", got)
	}
	if got := p.At(10); got != 10 {
		t.Fatalf("At(10) = %v, want 10", got)
	}
	if got := p.At(5); got != 5 {
		t.Fatalf("At(5) = %v, want 5", got)
	}
	if math.Abs(p.At(3.0)-7.0) > 1e-12 {
		t.Fatalf("At(3) = %v, want 7", p.At(3))
	}
}
