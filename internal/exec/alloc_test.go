//go:build !race

// The race detector's instrumentation allocates on its own and would blow
// any budget, so these tests are built only without it.

package exec

import (
	"runtime"
	"testing"

	"joinopt/internal/cluster"
	"joinopt/internal/store"
	"joinopt/internal/workload"
)

// jobTuples is the input of one joinopt.Simulate-sized job: the paper's
// data+compute-heavy synthetic workload, 20,000 tuples at skew 1.0.
const jobTuples = 20_000

func jobInput(tb testing.TB) (workload.Synth, []Tuple) {
	tb.Helper()
	syn := workload.NewSynth(workload.DataComputeHeavy, jobTuples, 1.0, 1)
	src := syn.Source()
	ts := make([]Tuple, 0, jobTuples)
	for t, ok := src.Next(); ok; t, ok = src.Next() {
		ts = append(ts, t)
	}
	return syn, ts
}

// runJob runs one job the way joinopt.Simulate does: 10 compute and 10 data
// nodes of the default hardware, one table with four regions per data node.
func runJob(syn workload.Synth, s Strategy, ts []Tuple) Report {
	hw := cluster.DefaultConfig()
	hw.Nodes = 20
	c := cluster.New(hw)
	c.AssignRoles(10, 10, false)
	st := store.New()
	row := store.RowMeta{ValueSize: syn.ValueSize, ComputedSize: syn.ComputedSize, ComputeCost: syn.ComputeCost}
	st.AddTable(store.NewTable("synth", store.CatalogFunc(func(string) store.RowMeta { return row }), 4, c.DataNodes()))
	return New(Config{Cluster: c, Store: st, Tables: []string{"synth"}, Strategy: s, Seed: 1},
		&SliceSource{Tuples: ts}).Run()
}

// TestJobAllocBudget holds a whole job, executor and cluster construction
// and free-list warm-up included, to at most 0.45 allocations per tuple.
// Optimizer records and the engine's requests, messages and timers come a
// chunk at a time, so what remains is the cache's per-key entries and the
// maps and slices a run grows to its working size (the record map, batch and
// serve queues). One object per key or per request would cost about one per
// tuple on its own, and a closure per request, batch, message or link
// transfer several.
func TestJobAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four simulations of 20,000 tuples")
	}
	const budget = 0.45
	syn, ts := jobInput(t)
	for _, s := range []Strategy{NO, FO} {
		var rep Report
		perTuple := testing.AllocsPerRun(1, func() { rep = runJob(syn, s, ts) }) / jobTuples
		if rep.Tuples != jobTuples {
			t.Fatalf("%v completed %d of %d tuples", s, rep.Tuples, jobTuples)
		}
		if perTuple > budget {
			t.Errorf("%v at z=1.0: %.2f allocs per tuple, budget %.2f", s, perTuple, budget)
		}
	}
}

// BenchmarkExecJob is one Simulate-sized job at z = 1.0 per iteration,
// reported per tuple.
func BenchmarkExecJob(b *testing.B) {
	syn, ts := jobInput(b)
	for _, s := range []Strategy{NO, FO} {
		b.Run(s.String(), func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runJob(syn, s, ts)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			tuples := float64(b.N * jobTuples)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tuples, "ns/tuple")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/tuples, "allocs/tuple")
		})
	}
}
