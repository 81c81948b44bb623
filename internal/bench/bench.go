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
// reproduction targets recorded in EXPERIMENTS.md.
package bench

import (
	"fmt"
	"io"

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

// Figure reproduces the named figure and prints its table to w. It reports
// false, printing nothing, for a name not in Figures.
func Figure(w io.Writer, name string, o Options) bool {
	switch name {
	case "5":
		PrintFig5(w, Fig5(o))
	case "6":
		PrintFig6(w, Fig6(o))
	case "7":
		PrintFig7(w, Fig7(o))
	case "8a":
		PrintSynth(w, Fig8(workload.DataHeavy, o))
	case "8b":
		PrintSynth(w, Fig8(workload.ComputeHeavy, o))
	case "8c":
		PrintSynth(w, Fig8(workload.DataComputeHeavy, o))
	case "9":
		PrintFig9(w, Fig9(o))
	case "11a":
		PrintSynth(w, Fig11(workload.DataHeavy, o))
	case "11b":
		PrintSynth(w, Fig11(workload.ComputeHeavy, o))
	case "11c":
		PrintSynth(w, Fig11(workload.DataComputeHeavy, o))
	default:
		return false
	}
	return true
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

// runSynth executes one synthetic-workload cell.
func runSynth(kind workload.SynthKind, strat exec.Strategy, skew float64,
	tuples, shifts, freeze int, seed int64) exec.Report {
	e := newSplitEnv()
	syn := workload.NewSynth(kind, tuples, skew, seed)
	syn.Shifts = shifts
	e.addTable("synth", syn.Catalog())
	cfg := exec.Config{
		Cluster:     e.c,
		Store:       e.st,
		Tables:      []string{"synth"},
		Strategy:    strat,
		Seed:        seed,
		FreezeAfter: freeze,
	}
	return exec.New(cfg, syn.Source()).Run()
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
	return synthFigure(kind, "time", AllStrategies, o)
}

// Fig11 reproduces one panel of Figure 11 (normalized throughput vs skew on
// the Muppet-style streaming setting).
func Fig11(kind workload.SynthKind, o Options) SynthFigure {
	return synthFigure(kind, "throughput", MuppetStrategies, o)
}

func synthFigure(kind workload.SynthKind, metric string, strategies []exec.Strategy, o Options) SynthFigure {
	tuples := o.tuples(30_000)
	fig := SynthFigure{Kind: kind, Metric: metric}
	var base float64
	for _, s := range strategies {
		series := SynthSeries{Strategy: s}
		for _, z := range Skews {
			rep := runSynth(kind, s, z, tuples, 0, 0, o.Seed+11)
			series.Raw = append(series.Raw, rep)
			o.logf("fig(%s,%s) %s z=%.1f: %.3fs\n", kind, metric, s, z, rep.Makespan)
			if s == exec.NO && z == 0 {
				base = rep.Makespan
			}
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
	tuples := o.tuples(30_000)
	kinds := []workload.SynthKind{workload.DataHeavy, workload.DataComputeHeavy, workload.ComputeHeavy}
	var rows []Fig9Row
	for _, kind := range kinds {
		row := Fig9Row{Kind: kind}
		for _, z := range Skews {
			adaptive := runSynth(kind, exec.FO, z, tuples, 10, 0, o.Seed+23)
			frozen := runSynth(kind, exec.FO, z, tuples, 10, tuples/10/10, o.Seed+23)
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
