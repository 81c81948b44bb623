package bench

import (
	"fmt"
	"io"
	"math"

	"joinopt/internal/cluster"
	"joinopt/internal/exec"
	"joinopt/internal/workload"
)

// FullFactRows is the SF=500 store_sales cardinality.
const FullFactRows = 1_439_980_416

// Fig7Row compares SparkSQL shuffle joins against our pipelined index joins
// for one TPC-DS query, extrapolated to the paper's SF=500 scale.
type Fig7Row struct {
	Query    string
	SparkSQL float64 // minutes at SF=500
	Ours     float64 // minutes at SF=500
	Report   exec.Report
}

// Fig7 reproduces Figure 7: four TPC-DS queries at SF=500. SparkSQL runs
// shuffle joins across all 20 nodes with HDFS-resident tables; our framework
// runs on 10 Spark compute nodes with dimensions in the data store on the
// other 10 (Section 9.2's setup), using the Catalyst join order
// (fact-left-deep, as generated for these queries).
//
// The 1.44 B-row fact table cannot be replayed tuple-by-tuple in a
// simulator, so ours is simulated on a fact sample with proportionally
// scaled dimensions, and the measured per-row compute cost and warmup are
// extrapolated to the full row count; SparkSQL's shuffle phase model is
// evaluated directly at full scale. The comments below state the
// extrapolation's assumptions; TestFig7OursWinsEveryQuery and
// testdata/fig_all.golden pin its outcome.
func Fig7(o Options) []Fig7Row {
	factRows := o.tuples(120_000)
	hw := cluster.DefaultConfig()
	queries := workload.Queries()
	rows := fanOut(len(queries), func(i int) Fig7Row {
		q := queries[i]
		td := workload.NewTPCDS(factRows, o.Seed+53)
		full := td
		full.DimScale = 1
		spark := sparkShuffleJoinTime(hw, full, q, FullFactRows)

		e := newSplitEnv()
		for _, d := range q.Dims {
			if e.st.Table(d.Name) == nil {
				e.addTable(d.Name, td.Catalog())
			}
		}
		cfg := exec.Config{
			Cluster:          e.c,
			Store:            e.st,
			Tables:           q.TableNames(),
			Strategy:         exec.FO,
			StageSelectivity: q.Selectivities(),
			Seed:             o.Seed + 53,
			PerTupleCPU:      6e-6, // columnar scan + probe bookkeeping
		}
		rep := exec.New(cfg, td.Source(q)).Run()

		// Steady-state per-row compute cost from the sampled run: total
		// compute-node CPU seconds per tuple. At full scale the warm
		// cache makes compute-node CPU the binding resource.
		var compCPU float64
		for _, id := range e.c.ComputeNodes() {
			compCPU += float64(e.c.Node(id).CPU.BusyTime())
		}
		perRow := compCPU / float64(rep.Tuples)
		nComp := float64(len(e.c.ComputeNodes()))
		cores := float64(hw.Cores)
		ours := float64(FullFactRows)*perRow/(nComp*cores) +
			factScanTime(hw, FullFactRows, int(nComp)) +
			// Warmup (cache fills + first-contact rents) scales with
			// the full dimension cardinalities, not the fact count.
			rep.Makespan*float64(td.DimScale)*float64(rep.Tuples)/float64(FullFactRows)

		return Fig7Row{
			Query:    q.Name,
			SparkSQL: spark / 60,
			Ours:     ours / 60,
			Report:   rep,
		}
	})
	for _, r := range rows {
		o.logf("fig7 %s: spark=%.1fmin ours=%.1fmin (sample makespan %.3fs)\n",
			r.Query, r.SparkSQL, r.Ours, r.Report.Makespan)
	}
	return rows
}

// Per-row cost constants for the Spark shuffle-join model, calibrated to
// SparkSQL's observed TPC-DS row rates (tens of microseconds per row-stage
// across scan, exchange write/read, sort, and join; 2016-era SparkSQL used
// sort-merge exchanges for these joins).
const (
	sparkScanCPU    = 8e-6  // fact scan + predicate per row
	sparkShuffleCPU = 22e-6 // serialize + partition + deserialize per row
	sparkSortCPU    = 12e-6 // exchange sort per row
	sparkProbeCPU   = 3e-6  // join probe per row
	sparkBuildCPU   = 2e-6  // hash/sort build per dimension row
	factRowBytes    = 150
)

// factScanTime is the time to scan the fact table once, on n nodes.
func factScanTime(hw cluster.Config, factRows, n int) float64 {
	rows := float64(factRows)
	disk := rows * factRowBytes / hw.DiskBwBps / float64(n)
	cpu := rows * sparkScanCPU / float64(n*hw.Cores)
	return math.Max(disk, cpu)
}

// sparkShuffleJoinTime models SparkSQL executing the query as a sequence of
// shuffle hash joins with a barrier between stages: each stage shuffles the
// surviving fact-side rows (exchange write to local disk, transfer, read),
// scans and shuffles the dimension, builds and probes.
func sparkShuffleJoinTime(hw cluster.Config, td workload.TPCDS, q workload.Query, factRows int) float64 {
	n := float64(hw.Nodes)
	cores := float64(hw.Cores)
	rows := float64(factRows)
	total := factScanTime(hw, factRows, hw.Nodes)
	for _, d := range q.Dims {
		dimRows := float64(td.ScaledRows(d))
		bytesPerNode := rows * factRowBytes / n
		netT := bytesPerNode / hw.NetBwBps
		spillT := 2 * bytesPerNode / hw.DiskBwBps // exchange write + read
		cpuT := (rows*(sparkShuffleCPU+sparkSortCPU+sparkProbeCPU) +
			dimRows*sparkBuildCPU) / (n * cores)
		dimScanT := dimRows * dimRowWidth / hw.DiskBwBps / n
		dimNetT := dimRows * dimRowWidth / n / hw.NetBwBps
		stage := math.Max(math.Max(netT+dimNetT, spillT+dimScanT), cpuT)
		total += stage
		rows *= d.Selectivity
	}
	return total
}

const dimRowWidth = 220

// PrintFig7 renders the figure.
func PrintFig7(w io.Writer, rows []Fig7Row) {
	fmt.Fprintln(w, "Figure 7: TPC-DS multi-join on Spark, SF=500")
	fmt.Fprintf(w, "%-5s %14s %12s %8s\n", "query", "SparkSQL(min)", "ours(min)", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-5s %14.1f %12.1f %7.2fx\n", r.Query, r.SparkSQL, r.Ours, r.SparkSQL/r.Ours)
	}
}
