// Package bench reproduces every figure of the paper's evaluation
// (Section 9): entity annotation on Hadoop (Fig. 5) and Muppet (Fig. 6),
// TPC-DS multi-joins on Spark (Fig. 7), the synthetic workloads on Hadoop
// (Fig. 8a-c) and Muppet (Fig. 11a-c), and the adaptive-vs-non-adaptive
// comparison (Fig. 9).
//
// Each Fig* function assembles a fresh simulated cluster, runs the paper's
// configurations, and returns the figure's rows/series; the Print* helpers
// render them the way the paper reports them. Absolute times are simulator
// seconds (the paper's testbed minutes do not transfer); the comparisons --
// who wins, by what factor, where the crossovers fall -- are the
// reproduction targets, pinned by the shape tests in bench_test.go and by
// the full-size output in testdata/fig_all.golden.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"joinopt/internal/cluster"
	"joinopt/internal/exec"
	"joinopt/internal/store"
	"joinopt/internal/workload"
)

// Options scales the experiments.
type Options struct {
	// Tuples is the input size per run; each figure has its own default.
	Tuples int
	Seed   int64
	// Out receives progress lines when non-nil.
	Out io.Writer
}

func (o Options) tuples(def int) int {
	if o.Tuples > 0 {
		return o.Tuples
	}
	return def
}

func (o Options) logf(format string, args ...interface{}) {
	if o.Out != nil {
		fmt.Fprintf(o.Out, format, args...)
	}
}

// Skews is the paper's skew sweep.
var Skews = []float64{0, 0.5, 1.0, 1.5}

// AllStrategies is the Figure 8 strategy set.
var AllStrategies = []exec.Strategy{exec.NO, exec.FC, exec.FD, exec.FR, exec.CO, exec.LO, exec.FO}

// MuppetStrategies is the Figure 6/11 strategy set.
var MuppetStrategies = []exec.Strategy{exec.NO, exec.FC, exec.FD, exec.FR, exec.FO}

// Figures names every figure Figure reproduces, in the paper's order.
var Figures = []string{"5", "6", "7", "8a", "8b", "8c", "9", "11a", "11b", "11c"}

// Figure reproduces the named figure and prints its table to w. Given
// "all", it prints every figure in Figures under a "== Figure <name> =="
// header, each followed by a blank line, and reads each Figure 11 panel
// from the Figure 8 panel's runs instead of running them again. It reports
// false, printing nothing, for any other name not in Figures.
func Figure(w io.Writer, name string, o Options) bool {
	if name != "all" {
		return figure(w, name, o, nil)
	}
	fig8 := map[workload.SynthKind]SynthFigure{}
	for _, f := range Figures {
		fmt.Fprintf(w, "== Figure %s ==\n", strings.ToUpper(f))
		figure(w, f, o, fig8)
		fmt.Fprintln(w)
	}
	return true
}

// figure prints one figure of Figures. A non-nil fig8 keeps every Figure 8
// panel drawn, and a Figure 11 panel whose Figure 8 panel it holds is
// derived from it.
func figure(w io.Writer, name string, o Options, fig8 map[workload.SynthKind]SynthFigure) bool {
	switch name {
	case "5":
		PrintFig5(w, Fig5(o))
	case "6":
		PrintFig6(w, Fig6(o))
	case "7":
		PrintFig7(w, Fig7(o))
	case "8a", "8b", "8c":
		fig := Fig8(panelKind(name), o)
		if fig8 != nil {
			fig8[fig.Kind] = fig
		}
		PrintSynth(w, fig)
	case "9":
		PrintFig9(w, Fig9(o))
	case "11a", "11b", "11c":
		if drawn, ok := fig8[panelKind(name)]; ok {
			PrintSynth(w, Fig11From(drawn))
		} else {
			PrintSynth(w, Fig11(panelKind(name), o))
		}
	default:
		return false
	}
	return true
}

// panelKind is the workload a Figure 8 or 11 panel's letter names.
func panelKind(name string) workload.SynthKind {
	kinds := [...]workload.SynthKind{workload.DataHeavy, workload.ComputeHeavy, workload.DataComputeHeavy}
	return kinds[name[len(name)-1]-'a']
}

// fanOut runs f(0), ..., f(n-1) on up to GOMAXPROCS goroutines and returns
// the results by index, so a figure's numbers and the order it prints them
// in do not depend on the worker count. The calls must share no mutable
// state; every simulated run builds its own cluster, store and seeded rand.
func fanOut[T any](n int, f func(i int) T) []T {
	out := make([]T, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(n, runtime.GOMAXPROCS(0)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = f(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// env is one disposable simulated cluster with a populated store.
type env struct {
	c  *cluster.Cluster
	st *store.Store
}

// newSplitEnv builds the paper's store-based configuration: 20 nodes, the
// first half compute (Hadoop/Muppet/Spark) and the second half data (HBase).
func newSplitEnv() *env {
	cfg := cluster.DefaultConfig()
	c := cluster.New(cfg)
	c.AssignRoles(cfg.Nodes/2, cfg.Nodes-cfg.Nodes/2, false)
	return &env{c: c, st: store.New()}
}

// addTable registers a table over all data nodes.
func (e *env) addTable(name string, cat store.Catalog) {
	e.st.AddTable(store.NewTable(name, cat, 4, e.c.DataNodes()))
}

// drawSynth draws one synthetic-workload input, to be replayed to every run
// over it.
func drawSynth(kind workload.SynthKind, tuples int, skew float64, shifts int, seed int64) []workload.Tuple {
	syn := workload.NewSynth(kind, tuples, skew, seed)
	syn.Shifts = shifts
	src := syn.Source()
	input := make([]workload.Tuple, 0, tuples)
	for t, ok := src.Next(); ok; t, ok = src.Next() {
		input = append(input, t)
	}
	return input
}

// runSynth executes one synthetic-workload cell over a drawn input.
func runSynth(kind workload.SynthKind, strat exec.Strategy, input []workload.Tuple,
	freeze int, seed int64) exec.Report {
	e := newSplitEnv()
	// The catalog depends on the kind alone: sizes and costs are uniform.
	e.addTable("synth", workload.NewSynth(kind, len(input), 0, seed).Catalog())
	cfg := exec.Config{
		Cluster:     e.c,
		Store:       e.st,
		Tables:      []string{"synth"},
		Strategy:    strat,
		Seed:        seed,
		FreezeAfter: freeze,
	}
	return exec.New(cfg, &workload.SliceSource{Tuples: input}).Run()
}

// SynthSeries is one strategy's normalized values across the skew sweep.
type SynthSeries struct {
	Strategy exec.Strategy
	// Normalized[i] corresponds to Skews[i]; times are normalized to NO
	// at skew 0 (Figure 8), throughputs likewise (Figure 11).
	Normalized []float64
	Raw        []exec.Report
}

// SynthFigure is one panel of Figure 8 or 11.
type SynthFigure struct {
	Kind   workload.SynthKind
	Metric string // "time" or "throughput"
	Series []SynthSeries
}

// Fig8 reproduces one panel of Figure 8 (normalized time vs skew on the
// Hadoop-style batch setting).
func Fig8(kind workload.SynthKind, o Options) SynthFigure {
	return synthFigure(kind, "time", AllStrategies, synthRuns(kind, "time", AllStrategies, o))
}

// Fig11 reproduces one panel of Figure 11 (normalized throughput vs skew on
// the Muppet-style streaming setting).
func Fig11(kind workload.SynthKind, o Options) SynthFigure {
	return synthFigure(kind, "throughput", MuppetStrategies, synthRuns(kind, "throughput", MuppetStrategies, o))
}

// Fig11From derives one panel of Figure 11 from the same panel of Figure 8,
// as returned by Fig8: Figure 11 runs a subset of Figure 8's strategies over
// the same inputs and seed, so it reads the same runs' makespans as
// throughputs. It equals Fig11 under the Options that drew fig8.
func Fig11From(fig8 SynthFigure) SynthFigure {
	raw := map[exec.Strategy][]exec.Report{}
	for _, ser := range fig8.Series {
		raw[ser.Strategy] = ser.Raw
	}
	runs := make([][]exec.Report, len(MuppetStrategies))
	for i, s := range MuppetStrategies {
		runs[i] = raw[s]
	}
	return synthFigure(fig8.Kind, "throughput", MuppetStrategies, runs)
}

// synthRuns runs every strategy at every skew and returns the reports as
// runs[strategy][skew]. Each skew's tuple stream is drawn once and replayed
// to every strategy.
func synthRuns(kind workload.SynthKind, metric string, strategies []exec.Strategy, o Options) [][]exec.Report {
	tuples, seed := o.tuples(30_000), o.Seed+11
	inputs := fanOut(len(Skews), func(i int) []workload.Tuple {
		return drawSynth(kind, tuples, Skews[i], 0, seed)
	})
	reps := fanOut(len(strategies)*len(Skews), func(i int) exec.Report {
		return runSynth(kind, strategies[i/len(Skews)], inputs[i%len(Skews)], 0, seed)
	})
	runs := make([][]exec.Report, len(strategies))
	for i, s := range strategies {
		runs[i] = reps[i*len(Skews) : (i+1)*len(Skews)]
		for j, z := range Skews {
			o.logf("fig(%s,%s) %s z=%.1f: %.3fs\n", kind, metric, s, z, runs[i][j].Makespan)
		}
	}
	return runs
}

// synthFigure normalizes runs[strategy][skew] into a figure panel.
func synthFigure(kind workload.SynthKind, metric string, strategies []exec.Strategy, runs [][]exec.Report) SynthFigure {
	fig := SynthFigure{Kind: kind, Metric: metric}
	base := runs[slices.Index(strategies, exec.NO)][slices.Index(Skews, 0)].Makespan
	for i, s := range strategies {
		series := SynthSeries{Strategy: s, Raw: runs[i]}
		for _, rep := range runs[i] {
			var v float64
			if metric == "time" {
				v = rep.Makespan / base
			} else {
				v = (float64(rep.Tuples) / rep.Makespan) / (float64(rep.Tuples) / base)
			}
			series.Normalized = append(series.Normalized, v)
		}
		fig.Series = append(fig.Series, series)
	}
	return fig
}

// PrintSynth renders a synthetic figure as the paper's series table.
func PrintSynth(w io.Writer, fig SynthFigure) {
	unit := "normalized time (NO@z=0 = 1)"
	if fig.Metric == "throughput" {
		unit = "normalized throughput (NO@z=0 = 1)"
	}
	fmt.Fprintf(w, "%s workload, %s\n", fig.Kind, unit)
	fmt.Fprintf(w, "%-6s", "strat")
	for _, z := range Skews {
		fmt.Fprintf(w, " z=%-6.1f", z)
	}
	fmt.Fprintln(w)
	for _, s := range fig.Series {
		fmt.Fprintf(w, "%-6s", s.Strategy)
		for _, v := range s.Normalized {
			fmt.Fprintf(w, " %-8.3f", v)
		}
		fmt.Fprintln(w)
	}
}

// Value returns the normalized value for a strategy at a skew.
func (f SynthFigure) Value(s exec.Strategy, skew float64) float64 {
	for _, ser := range f.Series {
		if ser.Strategy != s {
			continue
		}
		for i, z := range Skews {
			if z == skew {
				return ser.Normalized[i]
			}
		}
	}
	return 0
}

// Fig9Row is one workload's ratio series in Figure 9.
type Fig9Row struct {
	Kind   workload.SynthKind
	Ratios []float64 // non-adaptive time / adaptive time, per skew
}

// Fig9 reproduces Figure 9: adaptive vs non-adaptive ski-rental caching
// under a shifting key distribution (hot keys change 10 times per run);
// the non-adaptive variant freezes cache decisions after the first 10% of
// tuples. Load balancing stays on in both, as in the paper.
func Fig9(o Options) []Fig9Row {
	tuples, seed := o.tuples(30_000), o.Seed+23
	kinds := []workload.SynthKind{workload.DataHeavy, workload.DataComputeHeavy, workload.ComputeHeavy}
	// One input per skew, shared by every kind's adaptive and frozen runs:
	// a synthetic stream depends on the kind only through its key space,
	// which the three kinds share.
	inputs := fanOut(len(Skews), func(i int) []workload.Tuple {
		return drawSynth(kinds[0], tuples, Skews[i], 10, seed)
	})
	// Run 2c is cell c's adaptive run and 2c+1 its frozen one, where cell
	// c is kind c/len(Skews) at skew c%len(Skews).
	reps := fanOut(2*len(kinds)*len(Skews), func(i int) exec.Report {
		freeze := 0
		if i%2 == 1 {
			freeze = tuples / 10 / 10
		}
		cell := i / 2
		return runSynth(kinds[cell/len(Skews)], exec.FO, inputs[cell%len(Skews)], freeze, seed)
	})
	var rows []Fig9Row
	for k, kind := range kinds {
		row := Fig9Row{Kind: kind}
		for j, z := range Skews {
			c := k*len(Skews) + j
			adaptive, frozen := reps[2*c], reps[2*c+1]
			ratio := frozen.Makespan / adaptive.Makespan
			o.logf("fig9 %s z=%.1f: adaptive=%.3fs frozen=%.3fs ratio=%.2f\n",
				kind, z, adaptive.Makespan, frozen.Makespan, ratio)
			row.Ratios = append(row.Ratios, ratio)
		}
		rows = append(rows, row)
	}
	return rows
}

// PrintFig9 renders Figure 9.
func PrintFig9(w io.Writer, rows []Fig9Row) {
	fmt.Fprintln(w, "Figure 9: time ratio non-adaptive / adaptive (shifting hot keys)")
	fmt.Fprintf(w, "%-6s", "wl")
	for _, z := range Skews {
		fmt.Fprintf(w, " z=%-6.1f", z)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s", r.Kind)
		for _, v := range r.Ratios {
			fmt.Fprintf(w, " %-8.2f", v)
		}
		fmt.Fprintln(w)
	}
}

// clusterDefault re-exports the default hardware for tests.
func clusterDefault() cluster.Config { return cluster.DefaultConfig() }
