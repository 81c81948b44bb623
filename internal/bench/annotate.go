package bench

import (
	"fmt"
	"io"
	"sort"

	"joinopt/internal/cluster"
	"joinopt/internal/exec"
	"joinopt/internal/workload"
)

// Fig5Result holds the entity-annotation comparison of Figure 5: total time
// by technique. Reduce-side baselines (Hadoop, CSAW, FlowJoinLB) use all 20
// nodes; the store-based strategies use 10 compute + 10 data nodes, the
// paper's fair-total-resources split.
type Fig5Result struct {
	Seconds map[string]float64
	Reports map[string]exec.Report // store-based strategies only
}

// fig5Order is the paper's bar order.
var fig5Order = []string{"Hadoop", "CSAW", "FlowJoinLB", "NO", "FC", "FD", "FR", "FO"}

// Fig5 reproduces Figure 5 (ClueWeb-style entity annotation on Hadoop).
func Fig5(o Options) Fig5Result {
	spots := o.tuples(100_000)
	res := Fig5Result{
		Seconds: make(map[string]float64),
		Reports: make(map[string]exec.Report),
	}

	hw := cluster.DefaultConfig()
	variants := []exec.ReduceSideVariant{exec.PlainHadoop, exec.CSAWPartitioner, exec.FlowJoinLB}
	reduceSide := fanOut(len(variants), func(i int) exec.ReduceSideReport {
		return exec.RunReduceSide(exec.ReduceSideConfig{
			Hardware: hw,
			Ann:      workload.NewAnnotate(spots, o.Seed+31),
			Variant:  variants[i],
		})
	})
	for i, v := range variants {
		rep := reduceSide[i]
		res.Seconds[v.String()] = rep.Makespan
		o.logf("fig5 %s: %.1fs (map %.1f shuffle %.1f reduceMax %.1f avg %.1f repl %d)\n",
			v, rep.Makespan, rep.MapTime, rep.ShuffleTime, rep.ReduceMax,
			rep.ReduceAvg, rep.Replicated)
	}

	strategies := []exec.Strategy{exec.NO, exec.FC, exec.FD, exec.FR, exec.FO}
	storeBased := fanOut(len(strategies), func(i int) exec.Report {
		return runAnnotate(strategies[i], spots, o.Seed+31)
	})
	for i, s := range strategies {
		rep := storeBased[i]
		res.Seconds[s.String()] = rep.Makespan
		res.Reports[s.String()] = rep
		o.logf("fig5 %s: %.1fs (%s)\n", s, rep.Makespan, rep)
	}
	return res
}

// runAnnotate executes the entity-annotation workload with one store-based
// strategy.
func runAnnotate(s exec.Strategy, spots int, seed int64) exec.Report {
	e := newSplitEnv()
	ann := workload.NewAnnotate(spots, seed)
	e.addTable("models", ann.Catalog())
	cfg := exec.Config{
		Cluster:  e.c,
		Store:    e.st,
		Tables:   []string{"models"},
		Strategy: s,
		Seed:     seed,
	}
	return exec.New(cfg, ann.Source()).Run()
}

// PrintFig5 renders the figure as a table.
func PrintFig5(w io.Writer, r Fig5Result) {
	fmt.Fprintln(w, "Figure 5: entity annotation, total time")
	for _, name := range fig5Order {
		if v, ok := r.Seconds[name]; ok {
			fmt.Fprintf(w, "%-12s %8.1f s\n", name, v)
		}
	}
}

// Fig6Result holds the Muppet streaming comparison of Figure 6: tweets
// annotated per second by technique.
type Fig6Result struct {
	TweetsPerSec map[string]float64
	Reports      map[string]exec.Report
}

// Fig6 reproduces Figure 6 (Twitter entity annotation on Muppet). The
// stream is saturating, so throughput is completed tuples per virtual
// second; roughly half of tweets contain an annotatable entity (one spot
// per such tweet), so tweets/s = 2x spots/s.
func Fig6(o Options) Fig6Result {
	spots := o.tuples(60_000)
	res := Fig6Result{
		TweetsPerSec: make(map[string]float64),
		Reports:      make(map[string]exec.Report),
	}
	reps := fanOut(len(MuppetStrategies), func(i int) exec.Report {
		e := newSplitEnv()
		ann := workload.NewAnnotate(spots, o.Seed+41)
		// Twitter vocabulary is flatter than web text but burstier; the
		// paper highlights sudden new entities, which the shifting hot
		// set models.
		ann.Skew = 0.9
		e.addTable("models", ann.Catalog())
		cfg := exec.Config{
			Cluster:  e.c,
			Store:    e.st,
			Tables:   []string{"models"},
			Strategy: MuppetStrategies[i],
			Seed:     o.Seed + 41,
		}
		return exec.New(cfg, ann.Source()).Run()
	})
	for i, s := range MuppetStrategies {
		rep := reps[i]
		res.Reports[s.String()] = rep
		res.TweetsPerSec[s.String()] = 2 * rep.Throughput
		o.logf("fig6 %s: %.0f tweets/s\n", s, 2*rep.Throughput)
	}
	return res
}

// PrintFig6 renders the figure.
func PrintFig6(w io.Writer, r Fig6Result) {
	fmt.Fprintln(w, "Figure 6: Twitter entity annotation on Muppet, tweets/second")
	var names []string
	for n := range r.TweetsPerSec {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		order := map[string]int{"NO": 0, "FC": 1, "FD": 2, "FR": 3, "FO": 4}
		return order[names[i]] < order[names[j]]
	})
	for _, n := range names {
		fmt.Fprintf(w, "%-4s %8.0f tweets/s\n", n, r.TweetsPerSec[n])
	}
}
