package joinopt

import (
	"io"

	"joinopt/internal/bench"
	"joinopt/internal/cluster"
	"joinopt/internal/exec"
	"joinopt/internal/store"
	"joinopt/internal/workload"
)

// Strategy names the paper's execution strategies for simulation runs.
type Strategy = exec.Strategy

// The strategies of Section 9.
const (
	StrategyNO = exec.NO // blocking map-side join, no optimizations
	StrategyFC = exec.FC // fetch + compute locally, batched, no caching
	StrategyFD = exec.FD // compute at data nodes
	StrategyFR = exec.FR // random per-tuple choice
	StrategyCO = exec.CO // ski-rental caching only
	StrategyLO = exec.LO // load balancing only
	StrategyFO = exec.FO // the full system
)

// SimReport is the outcome of a simulated run.
type SimReport = exec.Report

// SimConfig describes a custom simulation: a cluster split into compute and
// data nodes, one stored table per join stage, and a tuple source.
type SimConfig struct {
	ComputeNodes int // default 10
	DataNodes    int // default 10
	Strategy     Strategy
	// Tables maps stage order to table definitions.
	Tables []SimTable
	// StageSelectivity[i] is the survival probability after stage i.
	StageSelectivity []float64
	Seed             int64
}

// SimTable is one stored relation in a simulation.
type SimTable struct {
	Name string
	// Row returns metadata (value size, UDF cost) for a key.
	Row func(key string) (valueSize, computedSize int64, computeCost float64)
}

// SimTuple is one simulated input tuple.
type SimTuple = workload.Tuple

// Simulate runs tuples through the discrete-event cluster model and reports
// makespan, throughput and routing statistics.
func Simulate(cfg SimConfig, tuples []SimTuple) SimReport {
	if cfg.ComputeNodes == 0 {
		cfg.ComputeNodes = 10
	}
	if cfg.DataNodes == 0 {
		cfg.DataNodes = 10
	}
	hw := cluster.DefaultConfig()
	hw.Nodes = cfg.ComputeNodes + cfg.DataNodes
	c := cluster.New(hw)
	c.AssignRoles(cfg.ComputeNodes, cfg.DataNodes, false)
	st := store.New()
	var names []string
	for _, t := range cfg.Tables {
		row := t.Row
		st.AddTable(store.NewTable(t.Name, store.CatalogFunc(func(key string) store.RowMeta {
			sv, scv, cost := row(key)
			return store.RowMeta{ValueSize: sv, ComputedSize: scv, ComputeCost: cost}
		}), 4, c.DataNodes()))
		names = append(names, t.Name)
	}
	e := exec.New(exec.Config{
		Cluster:          c,
		Store:            st,
		Tables:           names,
		Strategy:         cfg.Strategy,
		StageSelectivity: cfg.StageSelectivity,
		Seed:             cfg.Seed,
	}, &workload.SliceSource{Tuples: tuples})
	return e.Run()
}

// ExperimentOptions scales the paper-figure reproductions.
type ExperimentOptions = bench.Options

// ReproduceFigure reproduces one figure of the paper's evaluation, named as
// in cmd/joinbench's -fig flag ("all" prints every one), and prints it to w.
// The shape tests in internal/bench pin each figure's qualitative claims,
// and internal/bench/testdata/fig_all.golden its full-size output.
func ReproduceFigure(w io.Writer, figure string, o ExperimentOptions) {
	if !bench.Figure(w, figure, o) {
		panic("joinopt: unknown figure " + figure)
	}
}

// simulateBlockCache runs FD on the data-heavy workload with an optional
// data-node block cache (the ablation exec.Config.BlockCacheBytes documents).
func simulateBlockCache(tuples []SimTuple, blockCacheBytes int64) SimReport {
	hw := cluster.DefaultConfig()
	c := cluster.New(hw)
	c.AssignRoles(10, 10, false)
	st := store.New()
	syn := workload.NewSynth(workload.DataHeavy, len(tuples), 0, 1)
	st.AddTable(store.NewTable("t", syn.Catalog(), 4, c.DataNodes()))
	e := exec.New(exec.Config{
		Cluster:         c,
		Store:           st,
		Tables:          []string{"t"},
		Strategy:        exec.FD,
		Seed:            1,
		BlockCacheBytes: blockCacheBytes,
	}, &workload.SliceSource{Tuples: tuples})
	return e.Run()
}
