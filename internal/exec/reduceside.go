package exec

import (
	"math"

	"joinopt/internal/cluster"
	"joinopt/internal/workload"
)

// ReduceSideVariant selects one of the reduce-side join baselines of
// Section 9.1.1. These run on all cluster nodes (mappers and reducers
// colocated), matching the paper's "all 20 nodes" configurations.
type ReduceSideVariant int

const (
	// PlainHadoop is the naive reduce-side join: hash partitioning only.
	PlainHadoop ReduceSideVariant = iota
	// CSAWPartitioner replicates models whose total work (frequency x
	// classification cost) is high, per Gupta et al. [12].
	CSAWPartitioner
	// FlowJoinLB replicates models by frequency alone, with exact
	// full-input statistics (the paper's lower bound for Flow-Join [23]).
	FlowJoinLB
)

// String names the variant as in Figure 5.
func (v ReduceSideVariant) String() string {
	switch v {
	case PlainHadoop:
		return "Hadoop"
	case CSAWPartitioner:
		return "CSAW"
	case FlowJoinLB:
		return "FlowJoinLB"
	}
	return "?"
}

// ReduceSideConfig configures a reduce-side entity-annotation job.
type ReduceSideConfig struct {
	Hardware cluster.Config
	Nodes    int
	Ann      workload.Annotate
	Variant  ReduceSideVariant
}

const (
	// mapCostPerSpot is the CPU time to extract one spot and its context.
	mapCostPerSpot = 30e-6
	// replicationFactor is the work multiple of a fair reducer share
	// above which CSAW replicates a model. It replicates only models that
	// would singlehandedly overwhelm a reducer: the paper's critique of
	// threshold-based schemes is precisely that mid-weight keys below any
	// fixed threshold still skew the reducers.
	replicationFactor = 1.0
	// freqFraction is FlowJoinLB's heavy-hitter threshold as a fraction
	// of the input size.
	freqFraction = 0.002
)

// ReduceSideReport breaks down a reduce-side run.
type ReduceSideReport struct {
	Variant     ReduceSideVariant
	Makespan    float64
	MapTime     float64
	ShuffleTime float64
	ReduceMax   float64 // straggler reducer
	ReduceAvg   float64
	Replicated  int // models replicated to all reducers
}

// RunReduceSide evaluates the phase model of a reduce-side entity-annotation
// job. Phases are barriered (map -> shuffle -> reduce) as in MapReduce; the
// job time is the sum of phase times, with the reduce phase governed by its
// straggler. Statistics (exact expected token frequencies) are free for
// CSAW/FlowJoinLB, matching Section 9.1.1 ("we precompute statistics ... and
// do not include the time taken").
func RunReduceSide(cfg ReduceSideConfig) ReduceSideReport {
	n := cfg.Nodes
	if n == 0 {
		n = cfg.Hardware.Nodes
	}
	hw := cfg.Hardware
	ann := cfg.Ann
	freqs := ann.SpotFreqs()
	totalSpots := float64(ann.Spots)

	// Decide replication per token.
	replicated := make([]bool, ann.Tokens)
	nReplicated := 0
	switch cfg.Variant {
	case CSAWPartitioner, FlowJoinLB:
		var totalWork float64
		for r, f := range freqs {
			totalWork += f * ann.ClassifyCost(r)
		}
		fairShare := totalWork / float64(n)
		for r, f := range freqs {
			switch cfg.Variant {
			case CSAWPartitioner:
				// Cost-aware: replicate when this one model's work
				// is a material fraction of a fair reducer share.
				if f*ann.ClassifyCost(r) > replicationFactor*fairShare {
					replicated[r] = true
					nReplicated++
				}
			case FlowJoinLB:
				// Frequency-only heavy hitters.
				if f > freqFraction*totalSpots {
					replicated[r] = true
					nReplicated++
				}
			}
		}
	}

	// Map phase: spots evenly spread over all nodes.
	mapTime := totalSpots / float64(n) * mapCostPerSpot / float64(hw.Cores)

	// Shuffle phase: every spot record crosses the network (1/n stays
	// local). Outbound is uniform; inbound concentrates on the reducers
	// owning hot tokens, unless those tokens are replicated.
	recB := float64(ann.ContextBytes + 16) // one shuffled (token, context) record
	outPerNode := totalSpots / float64(n) * recB * (1 - 1/float64(n))
	inbound := make([]float64, n)
	reduceCPU := make([]float64, n)
	reduceDisk := make([]float64, n)
	for r, f := range freqs {
		if f <= 0 {
			continue
		}
		cost := ann.ClassifyCost(r)
		// Weight the one-time model load by the probability the token
		// actually appears in the input (freqs are expectations).
		pTouched := 1 - math.Exp(-f)
		modelDisk := (hw.DiskSeek + float64(ann.ModelBytes(r))/hw.DiskBwBps) * pTouched
		if replicated[r] {
			// Spread across all reducers; model loaded everywhere.
			for i := 0; i < n; i++ {
				inbound[i] += f / float64(n) * recB
				reduceCPU[i] += f / float64(n) * cost
				reduceDisk[i] += modelDisk
			}
			continue
		}
		red := partitionOf(r, n)
		inbound[red] += f * recB
		reduceCPU[red] += f * cost
		reduceDisk[red] += modelDisk
	}
	shuffle := outPerNode / hw.NetBwBps
	for _, in := range inbound {
		if t := in / hw.NetBwBps; t > shuffle {
			shuffle = t
		}
	}

	// Reduce phase: disk loads and classification overlap; each reducer
	// finishes at max(disk, cpu/cores).
	var reduceMax, reduceSum float64
	for i := 0; i < n; i++ {
		t := math.Max(reduceDisk[i], reduceCPU[i]/float64(hw.Cores))
		reduceSum += t
		if t > reduceMax {
			reduceMax = t
		}
	}

	return ReduceSideReport{
		Variant:     cfg.Variant,
		Makespan:    mapTime + shuffle + reduceMax,
		MapTime:     mapTime,
		ShuffleTime: shuffle,
		ReduceMax:   reduceMax,
		ReduceAvg:   reduceSum / float64(n),
		Replicated:  nReplicated,
	}
}

// partitionOf hash-partitions a token rank onto a reducer.
func partitionOf(rank, n int) int {
	h := uint64(rank) * 0x9E3779B97F4A7C15
	return int(h % uint64(n))
}
