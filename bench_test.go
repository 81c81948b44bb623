package joinopt

// The benchmarks below regenerate every figure of the paper's evaluation
// (there are no result tables in the paper other than the parameter table):
//
//	Figure 5   entity annotation on Hadoop (8 techniques)
//	Figure 6   Twitter entity annotation on Muppet (tweets/s)
//	Figure 7   TPC-DS multi-joins, SparkSQL vs our framework
//	Figure 8a-c synthetic workloads, normalized time vs skew
//	Figure 9   adaptive vs non-adaptive caching, shifting hot keys
//	Figure 11a-c synthetic workloads on Muppet, normalized throughput
//
// Each benchmark executes the figure's full configuration sweep per
// iteration at a reduced input size and reports the figure's headline
// comparison as custom metrics. Run `go run ./cmd/joinbench -fig all` for
// the full-size tables, committed as internal/bench/testdata/fig_all.golden.

import (
	"testing"

	"joinopt/internal/bench"
	"joinopt/internal/exec"
	"joinopt/internal/workload"
)

const benchTuples = 6000

func benchOpts() bench.Options { return bench.Options{Tuples: benchTuples, Seed: 1} }

func BenchmarkFig5EntityAnnotationHadoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.Fig5(benchOpts())
		b.ReportMetric(r.Seconds["Hadoop"]/r.Seconds["FO"], "hadoop/FO")
		b.ReportMetric(r.Seconds["CSAW"]/r.Seconds["FO"], "csaw/FO")
		b.ReportMetric(r.Seconds["FC"]/r.Seconds["FO"], "fc/FO")
	}
}

func BenchmarkFig6TwitterMuppet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.Fig6(benchOpts())
		b.ReportMetric(r.TweetsPerSec["FO"]/r.TweetsPerSec["NO"], "FO/NO")
		b.ReportMetric(r.TweetsPerSec["FO"]/r.TweetsPerSec["FD"], "FO/FD")
		b.ReportMetric(r.TweetsPerSec["FO"], "FO-tweets/s")
	}
}

func BenchmarkFig7TPCDSSpark(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig7(bench.Options{Tuples: 60_000, Seed: 1})
		for _, r := range rows {
			b.ReportMetric(r.SparkSQL/r.Ours, r.Query+"-speedup")
		}
	}
}

func benchFig8(b *testing.B, kind workload.SynthKind) {
	for i := 0; i < b.N; i++ {
		fig := bench.Fig8(kind, benchOpts())
		b.ReportMetric(fig.Value(exec.FO, 0), "FO@z0")
		b.ReportMetric(fig.Value(exec.FO, 1.5), "FO@z1.5")
		b.ReportMetric(fig.Value(exec.FD, 1.5)/fig.Value(exec.FO, 1.5), "FD/FO@z1.5")
	}
}

func BenchmarkFig8aDataHeavy(b *testing.B)        { benchFig8(b, workload.DataHeavy) }
func BenchmarkFig8bComputeHeavy(b *testing.B)     { benchFig8(b, workload.ComputeHeavy) }
func BenchmarkFig8cDataComputeHeavy(b *testing.B) { benchFig8(b, workload.DataComputeHeavy) }

func BenchmarkFig9AdaptiveVsNonAdaptive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig9(benchOpts())
		for _, r := range rows {
			b.ReportMetric(r.Ratios[len(r.Ratios)-1], r.Kind.String()+"-ratio@z1.5")
		}
	}
}

func benchFig11(b *testing.B, kind workload.SynthKind) {
	for i := 0; i < b.N; i++ {
		fig := bench.Fig11(kind, benchOpts())
		b.ReportMetric(fig.Value(exec.FO, 1.5), "FO@z1.5")
		b.ReportMetric(fig.Value(exec.FD, 1.5), "FD@z1.5")
		b.ReportMetric(fig.Value(exec.NO, 1.5), "NO@z1.5")
	}
}

func BenchmarkFig11aMuppetDataHeavy(b *testing.B)        { benchFig11(b, workload.DataHeavy) }
func BenchmarkFig11bMuppetComputeHeavy(b *testing.B)     { benchFig11(b, workload.ComputeHeavy) }
func BenchmarkFig11cMuppetDataComputeHeavy(b *testing.B) { benchFig11(b, workload.DataComputeHeavy) }

// Component microbenchmarks: the hot paths of the optimizer itself.

func BenchmarkOptimizerRoute(b *testing.B) {
	tuples := make([]SimTuple, 0, benchTuples)
	syn := workload.NewSynth(workload.DataHeavy, benchTuples, 1.0, 1)
	src := syn.Source()
	for {
		t, ok := src.Next()
		if !ok {
			break
		}
		tuples = append(tuples, t)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := Simulate(SimConfig{
			ComputeNodes: 4, DataNodes: 4,
			Strategy: StrategyFO,
			Tables: []SimTable{{Name: "t", Row: func(string) (int64, int64, float64) {
				return 100 << 10, 1 << 10, 100e-6
			}}},
			Seed: 1,
		}, tuples)
		b.ReportMetric(rep.Throughput, "sim-tuples/s")
	}
}

// Ablation: data-node block cache (off in the faithful configuration; see
// exec.Config.BlockCacheBytes). With it on, FD's skew penalty shrinks because hot keys are
// served from server memory.
func BenchmarkAblationBlockCache(b *testing.B) {
	for _, bc := range []int64{0, 1 << 30} {
		name := "off"
		if bc > 0 {
			name = "on-1GB"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				syn := workload.NewSynth(workload.DataHeavy, benchTuples, 1.5, 7)
				var tuples []SimTuple
				src := syn.Source()
				for {
					t, ok := src.Next()
					if !ok {
						break
					}
					tuples = append(tuples, t)
				}
				rep := simulateBlockCache(tuples, bc)
				b.ReportMetric(rep.Makespan, "FD-makespan-s")
			}
		})
	}
}
