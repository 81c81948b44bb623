//go:build amd64 && !amd64.v3

// Exact bits of a float64 sum depend on whether the compiler fuses a
// multiply and an add into one FMA instruction, which it may do for
// GOAMD64=v3 and on other architectures but never for the amd64 baseline.
// The same commit reports different sim_paper makespans on hosts that
// differ only there, so these pinned bits hold on baseline amd64 alone.
// Everywhere else the sim kernel's heap-order property test
// (internal/sim) is the guarantee that a kernel change cannot reorder a
// simulation.

package joinopt

import (
	"math"
	"testing"

	"joinopt/internal/workload"
)

// simGolden is the makespan, as math.Float64bits of seconds, of each job of
// the benchmark's sim_paper workload at seed 1: the paper's Figure 8c
// synthetic workload at 20,000 tuples, skews in the outer loop and
// strategies in the inner one, in simGoldenStrategies order.
var simGolden = [...]uint64{
	0x403a1c1c5bf225f5, // NO z=0.0 26.109807726495962 s
	0x4039aaffe34cab49, // FD z=0.0 25.667967039316213 s
	0x402a8b0879c63f45, // FR z=0.0 13.271549039316264 s
	0x4039aafd3a75c1c6, // CO z=0.0 25.66792645811963 s
	0x403082e9ffb597a3, // LO z=0.0 16.51138303931624 s
	0x4030429ac230e9aa, // FO z=0.0 16.2601739282051 s
	0x403a1cb6b82b3451, // NO z=1.0 26.112163076923313 s
	0x4041b1faa2d5c667, // FD z=1.0 35.3904613059829 s
	0x40328d32c871424d, // FR z=1.0 18.551556136752243 s
	0x403228a2b3d55ad9, // CO z=1.0 18.158732642735092 s
	0x402f895edbf001d3, // LO z=1.0 15.768301842735047 s
	0x402e1166f6678929, // FO z=1.0 15.033988666666646 s
	0x403a2223f62cb58e, // NO z=1.5 26.133361230769474 s
	0x405922986c3f8b18, // FD z=1.5 100.54055315213589 s
	0x404a128bf49aeac5, // FR z=1.5 52.14489610256491 s
	0x403e249c8b7df989, // CO z=1.5 30.143013685470155 s
	0x4033701d43b36e52, // LO z=1.5 19.437946540171033 s
	0x4033cfdb5d388580, // FO z=1.5 19.811940981196585 s
}

var (
	simGoldenStrategies = []Strategy{StrategyNO, StrategyFD, StrategyFR, StrategyCO, StrategyLO, StrategyFO}
	simGoldenSkews      = []float64{0, 1.0, 1.5}
)

// TestSimPaperMakespansGolden pins the simulated makespans the sim_paper
// benchmark reports as lat_*: a change to the event kernel, the cluster
// model or the optimizer that moves any of them by one bit fails here.
func TestSimPaperMakespansGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 18 simulations of 20,000 tuples")
	}
	const tuples, seed = 20_000, 1
	var got []uint64
	for _, z := range simGoldenSkews {
		syn := workload.NewSynth(workload.DataComputeHeavy, tuples, z, seed)
		src := syn.Source()
		ts := make([]SimTuple, 0, tuples)
		for tu, ok := src.Next(); ok; tu, ok = src.Next() {
			ts = append(ts, tu)
		}
		for _, s := range simGoldenStrategies {
			rep := Simulate(SimConfig{
				Strategy: s,
				Seed:     seed,
				Tables: []SimTable{{Name: "synth", Row: func(string) (int64, int64, float64) {
					return syn.ValueSize, syn.ComputedSize, syn.ComputeCost
				}}},
			}, ts)
			got = append(got, math.Float64bits(rep.Makespan))
		}
	}
	if len(got) != len(simGolden) {
		for i, b := range got {
			t.Logf("%#016x, // %s z=%.1f %v s", b, simGoldenStrategies[i%len(simGoldenStrategies)], simGoldenSkews[i/len(simGoldenStrategies)], math.Float64frombits(b))
		}
		t.Fatalf("%d makespans, %d pinned", len(got), len(simGolden))
	}
	for i, b := range got {
		if b != simGolden[i] {
			t.Errorf("%s at z=%.1f: makespan %v s (%#x), pinned %v s (%#x)",
				simGoldenStrategies[i%len(simGoldenStrategies)], simGoldenSkews[i/len(simGoldenStrategies)],
				math.Float64frombits(b), b, math.Float64frombits(simGolden[i]), simGolden[i])
		}
	}
}
