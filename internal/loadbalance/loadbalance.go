// Package loadbalance implements the compute/data-node load balancing of
// Section 5 and Appendix C: for a batch of b compute requests from compute
// node i arriving at data node j, choose how many requests d the data node
// executes locally (sending b-d back as raw values) so as to minimize the
// batch completion time
//
//	max(compCPU(d), compNet(d), dataCPU(d), dataNet(d))
//
// All four loads are linear in d, so the objective is convex piecewise
// linear. The paper minimizes it with gradient descent; this package
// minimizes it exactly (SolveExact), checking the few points where the
// optimum can lie.
package loadbalance

import "math"

// ComputeStats is the statistical snapshot a compute node piggybacks on each
// request batch (Appendix C, superscript c). Counts are numbers of requests.
type ComputeStats struct {
	PendingLocal        int     // lcc_i: computations queued at the compute node
	PendingDataReqs     int     // ndc_i: data requests not yet sent
	PendingComputeReqs  int     // ncc_i: compute requests not yet sent
	PendingDataResps    int     // ndrc_i: responses to data requests still inbound
	OutstandingOther    int     // nrc_ij: compute requests pending at data nodes other than j
	OtherComputedAtData int     // rc_ij: of those, expected computed at the data nodes
	TCC                 float64 // average UDF time at the compute node, seconds
	NetBw               float64 // effective bandwidth at the compute node, bytes/second
}

// DataStats is the data node's local view (Appendix C, superscript d).
type DataStats struct {
	PendingDataReqs     int     // ndc_j: data requests pending at j from all compute nodes
	PendingDataResps    int     // ndrd_j: data-request responses waiting to be sent
	PendingComputeReqs  int     // nrd_j: compute requests pending at j from all compute nodes
	ComputedAtData      int     // rd_j: of those, to be computed at j
	FromIPending        int     // nrd_ij: compute requests pending at j from node i (earlier batches)
	FromIComputedAtData int     // rd_ij: of those, to be computed at j
	TCD                 float64 // average UDF time at the data node, seconds
	NetBw               float64 // effective bandwidth at the data node, bytes/second
}

// Sizes carries the average message component sizes in bytes.
type Sizes struct {
	SK  float64 // key
	SP  float64 // parameters
	SV  float64 // stored value
	SCV float64 // computed value
}

// Linear is f(d) = Slope*d + Intercept.
type Linear struct {
	Slope     float64
	Intercept float64
}

// At evaluates the function.
func (l Linear) At(d float64) float64 { return l.Slope*d + l.Intercept }

// Problem is the one-dimensional min-max problem over d in [0, B].
type Problem struct {
	Loads [4]Linear // compCPU, compNet, dataCPU, dataNet
	B     int       // batch size
}

// At returns the objective max_k Loads[k](d).
func (p Problem) At(d float64) float64 {
	v := p.Loads[0].At(d)
	for _, l := range p.Loads[1:] {
		if w := l.At(d); w > v {
			v = w
		}
	}
	return v
}

// Build constructs the Problem for a batch of b requests using the paper's
// formulas.
//
// Note on Appendix C's compCPU: the printed formula multiplies the
// computations performed *at the compute node* (terms 2-4) by tcd, the data
// node's per-UDF time. Since those UDFs run at the compute node we use tcc,
// which is what the prose describes; with homogeneous nodes (the paper's
// testbed) the two coincide.
func Build(cs ComputeStats, ds DataStats, sz Sizes, b int) Problem {
	var p Problem
	p.B = b
	bf := float64(b)

	// compCPU(d): pending local work plus everything that will come back
	// uncomputed, including (b-d) of this batch.
	returnedOther := float64(cs.OutstandingOther - cs.OtherComputedAtData)
	returnedFromJ := float64(ds.FromIPending - ds.FromIComputedAtData)
	p.Loads[0] = Linear{
		Slope: -cs.TCC,
		Intercept: cs.TCC*float64(cs.PendingLocal) +
			cs.TCC*returnedOther +
			cs.TCC*returnedFromJ +
			cs.TCC*bf,
	}

	// compNet(d): all bytes the compute node's NIC must still move.
	fixed := float64(cs.PendingDataReqs)*(sz.SK+sz.SV) +
		float64(cs.PendingComputeReqs)*(sz.SK+sz.SP) +
		float64(cs.PendingDataResps)*sz.SV +
		returnedOther*sz.SV +
		float64(cs.OtherComputedAtData)*sz.SCV +
		returnedFromJ*sz.SV +
		float64(ds.FromIComputedAtData)*sz.SCV +
		bf*sz.SV
	p.Loads[1] = Linear{
		Slope:     (sz.SCV - sz.SV) / cs.NetBw,
		Intercept: fixed / cs.NetBw,
	}

	// dataCPU(d): UDFs the data node has committed to, plus d new ones.
	p.Loads[2] = Linear{
		Slope:     ds.TCD,
		Intercept: ds.TCD * float64(ds.ComputedAtData),
	}

	// dataNet(d): all bytes the data node's NIC must still move.
	dfixed := float64(ds.PendingDataReqs)*(sz.SK+sz.SV) +
		float64(ds.PendingDataResps)*sz.SV +
		float64(ds.PendingComputeReqs)*(sz.SK+sz.SP) +
		float64(ds.PendingComputeReqs-ds.ComputedAtData)*sz.SV +
		float64(ds.ComputedAtData)*sz.SCV +
		bf*sz.SV
	p.Loads[3] = Linear{
		Slope:     (sz.SCV - sz.SV) / ds.NetBw,
		Intercept: dfixed / ds.NetBw,
	}
	return p
}

// SolveExact minimizes the objective exactly. Because the objective is the
// max of four linear functions, its minimum over [0, B] lies at an interval
// endpoint or at an intersection of two of the lines; at most C(4,2)+2 = 8
// candidates need evaluating. The returned d is an integer (requests are
// indivisible): both neighbors of the fractional optimum are checked.
func (p Problem) SolveExact() (d int, value float64) {
	bf := float64(p.B)
	cands := []float64{0, bf}
	for i := 0; i < len(p.Loads); i++ {
		for j := i + 1; j < len(p.Loads); j++ {
			a, c := p.Loads[i], p.Loads[j]
			if a.Slope == c.Slope {
				continue
			}
			x := (c.Intercept - a.Intercept) / (a.Slope - c.Slope)
			if x > 0 && x < bf {
				cands = append(cands, math.Floor(x), math.Ceil(x))
			}
		}
	}
	best := math.Inf(1)
	bestD := 0.0
	for _, x := range cands {
		if x < 0 || x > bf {
			continue
		}
		if v := p.At(x); v < best {
			best = v
			bestD = x
		}
	}
	return int(bestD + 0.5), best
}
