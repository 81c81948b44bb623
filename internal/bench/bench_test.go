package bench

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"joinopt/internal/exec"
	"joinopt/internal/workload"
)

// The tests below assert the paper's qualitative claims at reduced input
// sizes so the suite stays fast; the full-size figures are pinned digit for
// digit by testdata/fig_all.golden (make figcheck).

func small() Options { return Options{Tuples: 6000, Seed: 3} }

// smallFig8 is each Figure 8 panel at small(), drawn once for every test
// that reads it: the Figure 8 and Figure 11 shape tests and the printer
// test.
var smallFig8 = map[workload.SynthKind]func() SynthFigure{}

func init() {
	for _, kind := range []workload.SynthKind{workload.DataHeavy, workload.ComputeHeavy, workload.DataComputeHeavy} {
		smallFig8[kind] = sync.OnceValue(func() SynthFigure { return Fig8(kind, small()) })
	}
}

func TestFig8aDataHeavyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	fig := smallFig8[workload.DataHeavy]()
	// FD clearly beats NO/FC at z=0 (join at the data node wins).
	if !(fig.Value(exec.FD, 0) < 0.6) {
		t.Errorf("FD@0 = %.2f, want < 0.6", fig.Value(exec.FD, 0))
	}
	// FO is marginally worse than FD at z=0 (cost-estimation overheads).
	if !(fig.Value(exec.FO, 0) < fig.Value(exec.FD, 0)*1.25) {
		t.Errorf("FO@0 = %.2f vs FD@0 = %.2f: more than marginal",
			fig.Value(exec.FO, 0), fig.Value(exec.FD, 0))
	}
	// At high skew FO caches and clearly beats FD.
	if !(fig.Value(exec.FO, 1.5) < fig.Value(exec.FD, 1.5)*0.8) {
		t.Errorf("FO@1.5 = %.2f not clearly under FD@1.5 = %.2f",
			fig.Value(exec.FO, 1.5), fig.Value(exec.FD, 1.5))
	}
	// CO tracks FO on this workload (load balancing contributes little).
	ratio := fig.Value(exec.CO, 1.5) / fig.Value(exec.FO, 1.5)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("CO@1.5 / FO@1.5 = %.2f, want near 1", ratio)
	}
	// FC beats NO at z=0 (batching + prefetching).
	if !(fig.Value(exec.FC, 0) < 1.0) {
		t.Errorf("FC@0 = %.2f, want < NO's 1.0", fig.Value(exec.FC, 0))
	}
}

func TestFig8bComputeHeavyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	fig := smallFig8[workload.ComputeHeavy]()
	// FR spreads compute over all nodes and does very well at z=0.
	if !(fig.Value(exec.FR, 0) < 0.75) {
		t.Errorf("FR@0 = %.2f, want < 0.75", fig.Value(exec.FR, 0))
	}
	// FD explodes with skew (hot data node saturates).
	if !(fig.Value(exec.FD, 1.5) > 2) {
		t.Errorf("FD@1.5 = %.2f, want > 2", fig.Value(exec.FD, 1.5))
	}
	// FR degrades with skew too (half its load hits the hot node).
	if !(fig.Value(exec.FR, 1.5) > fig.Value(exec.FR, 0)*1.5) {
		t.Errorf("FR@1.5 = %.2f did not degrade from %.2f",
			fig.Value(exec.FR, 1.5), fig.Value(exec.FR, 0))
	}
	// CO beats FD at high skew (caches skewed keys, offloads data nodes).
	if !(fig.Value(exec.CO, 1.5) < fig.Value(exec.FD, 1.5)) {
		t.Errorf("CO@1.5 = %.2f not under FD@1.5 = %.2f",
			fig.Value(exec.CO, 1.5), fig.Value(exec.FD, 1.5))
	}
	// LO and FO balance well across all skews.
	for _, z := range Skews {
		if v := fig.Value(exec.LO, z); v > 1.2 {
			t.Errorf("LO@%.1f = %.2f, want bounded", z, v)
		}
		if v := fig.Value(exec.FO, z); v > 1.2 {
			t.Errorf("FO@%.1f = %.2f, want bounded", z, v)
		}
	}
}

func TestFig8cDataComputeHeavyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	fig := smallFig8[workload.DataComputeHeavy]()
	// FO works well across all skews.
	for _, z := range Skews {
		if v := fig.Value(exec.FO, z); v > 1.1 {
			t.Errorf("FO@%.1f = %.2f, want bounded", z, v)
		}
	}
	// FR degrades with skew.
	if !(fig.Value(exec.FR, 1.5) > 1.4) {
		t.Errorf("FR@1.5 = %.2f, want > 1.4", fig.Value(exec.FR, 1.5))
	}
	// CO improves relative to FD as skew grows.
	if !(fig.Value(exec.CO, 1.5) < fig.Value(exec.FD, 1.5)) {
		t.Errorf("CO@1.5 = %.2f not under FD@1.5 = %.2f",
			fig.Value(exec.CO, 1.5), fig.Value(exec.FD, 1.5))
	}
}

func TestFig9AdaptiveWinsUnderShiftingSkew(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	rows := Fig9(small())
	byKind := map[workload.SynthKind]Fig9Row{}
	for _, r := range rows {
		byKind[r.Kind] = r
	}
	// No skew: adaptive and non-adaptive are equivalent.
	for _, r := range rows {
		if r.Ratios[0] < 0.85 || r.Ratios[0] > 1.15 {
			t.Errorf("%s ratio@0 = %.2f, want ~1", r.Kind, r.Ratios[0])
		}
	}
	// Data-heavy: adaptive clearly wins at high skew.
	dh := byKind[workload.DataHeavy]
	if !(dh.Ratios[3] > 1.15) {
		t.Errorf("DH ratio@1.5 = %.2f, want > 1.15", dh.Ratios[3])
	}
	// Compute-heavy: load balancing alone nearly suffices (ratio ~1).
	ch := byKind[workload.ComputeHeavy]
	if ch.Ratios[3] < 0.7 || ch.Ratios[3] > 1.5 {
		t.Errorf("CH ratio@1.5 = %.2f, want near 1", ch.Ratios[3])
	}
}

func TestFig11aThroughputShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	fig := Fig11From(smallFig8[workload.DataHeavy]())
	// FD throughput comparable to FO at z=0.
	r0 := fig.Value(exec.FD, 0) / fig.Value(exec.FO, 0)
	if r0 < 0.6 || r0 > 1.7 {
		t.Errorf("FD/FO throughput at z=0 = %.2f, want comparable", r0)
	}
	// FD decreases with skew; FO stays high.
	if !(fig.Value(exec.FD, 1.5) < fig.Value(exec.FD, 0)*0.7) {
		t.Errorf("FD throughput did not fall: %.2f -> %.2f",
			fig.Value(exec.FD, 0), fig.Value(exec.FD, 1.5))
	}
	if !(fig.Value(exec.FO, 1.5) > fig.Value(exec.FD, 1.5)*1.5) {
		t.Errorf("FO@1.5 = %.2f not clearly above FD@1.5 = %.2f",
			fig.Value(exec.FO, 1.5), fig.Value(exec.FD, 1.5))
	}
	// NO and FC throughputs decrease with skew.
	for _, s := range []exec.Strategy{exec.NO, exec.FC} {
		if !(fig.Value(s, 1.5) < fig.Value(s, 0)) {
			t.Errorf("%s throughput did not decrease with skew", s)
		}
	}
}

func TestFig11bComputeHeavyThroughputShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	computeHeavyThroughputShape(t, Fig11From(smallFig8[workload.ComputeHeavy]()))
}

func TestFig11cDataComputeHeavyThroughputShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	computeHeavyThroughputShape(t, Fig11From(smallFig8[workload.DataComputeHeavy]()))
}

// computeHeavyThroughputShape asserts Figure 11b and 11c's claims, which
// the two compute-heavy workloads share.
func computeHeavyThroughputShape(t *testing.T, fig SynthFigure) {
	t.Helper()
	// FR spreads the UDF over every node and leads at z=0.
	if !(fig.Value(exec.FR, 0) > fig.Value(exec.NO, 0)*1.3) {
		t.Errorf("FR@0 = %.2f not clearly above NO@0 = %.2f",
			fig.Value(exec.FR, 0), fig.Value(exec.NO, 0))
	}
	// FD and FR fall with skew: the hot data node saturates.
	for _, s := range []exec.Strategy{exec.FD, exec.FR} {
		if !(fig.Value(s, 1.5) < fig.Value(s, 0)*0.5) {
			t.Errorf("%s throughput did not fall with skew: %.2f -> %.2f",
				s, fig.Value(s, 0), fig.Value(s, 1.5))
		}
	}
	// FO holds at least NO's throughput at every skew and is clearly above
	// FD and FR at z=1.5.
	for _, z := range Skews {
		if v := fig.Value(exec.FO, z); v < 0.95 {
			t.Errorf("FO@%.1f = %.2f, want >= NO@0's 1.0 within 5%%", z, v)
		}
	}
	for _, s := range []exec.Strategy{exec.FD, exec.FR} {
		if !(fig.Value(exec.FO, 1.5) > fig.Value(s, 1.5)*1.5) {
			t.Errorf("FO@1.5 = %.2f not clearly above %s@1.5 = %.2f",
				fig.Value(exec.FO, 1.5), s, fig.Value(s, 1.5))
		}
	}
}

// TestFig11FromMatchesFig11: reading Figure 11 from Figure 8's runs gives
// exactly what running Figure 11's own strategies gives, reports included.
func TestFig11FromMatchesFig11(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	for kind, fig8 := range smallFig8 {
		if got, want := Fig11From(fig8()), Fig11(kind, small()); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Fig11From(Fig8) = %+v\nFig11 = %+v", kind, got, want)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	r := Fig5(Options{Tuples: 20_000, Seed: 3})
	for _, name := range []string{"Hadoop", "CSAW", "FlowJoinLB", "NO", "FC", "FD", "FR", "FO"} {
		if r.Seconds[name] <= 0 {
			t.Fatalf("%s missing from Figure 5", name)
		}
	}
	// The naive reduce-side job suffers the hot-token straggler.
	if !(r.Seconds["Hadoop"] > 2*r.Seconds["CSAW"]) {
		t.Errorf("Hadoop %.1f not >> CSAW %.1f", r.Seconds["Hadoop"], r.Seconds["CSAW"])
	}
	// FO is the best store-based strategy and beats plain Hadoop by a lot.
	for _, name := range []string{"NO", "FD", "FR"} {
		if !(r.Seconds["FO"] < r.Seconds[name]) {
			t.Errorf("FO %.1f not under %s %.1f", r.Seconds["FO"], name, r.Seconds[name])
		}
	}
	if !(r.Seconds["FO"] < r.Seconds["Hadoop"]/2) {
		t.Errorf("FO %.1f not under half of Hadoop %.1f", r.Seconds["FO"], r.Seconds["Hadoop"])
	}
	// FO at least matches FC (the paper reports FC = 1.25x FO; our FO's
	// margin over FC is thinner because cached-key work is pinned to the
	// compute nodes).
	if !(r.Seconds["FO"] < r.Seconds["FC"]*1.1) {
		t.Errorf("FO %.1f clearly above FC %.1f", r.Seconds["FO"], r.Seconds["FC"])
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	r := Fig6(Options{Tuples: 12_000, Seed: 3})
	// FD is the worst (skew), FO the best, FO >= ~2x NO.
	for _, name := range []string{"NO", "FC", "FR", "FO"} {
		if !(r.TweetsPerSec[name] > r.TweetsPerSec["FD"]) {
			t.Errorf("%s %.0f not above FD %.0f", name, r.TweetsPerSec[name], r.TweetsPerSec["FD"])
		}
	}
	if !(r.TweetsPerSec["FO"] > 1.5*r.TweetsPerSec["NO"]) {
		t.Errorf("FO %.0f not ~2x NO %.0f", r.TweetsPerSec["FO"], r.TweetsPerSec["NO"])
	}
	if !(r.TweetsPerSec["FC"] > r.TweetsPerSec["NO"]) {
		t.Errorf("FC %.0f not above NO %.0f", r.TweetsPerSec["FC"], r.TweetsPerSec["NO"])
	}
}

func TestFig7OursWinsEveryQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	rows := Fig7(Options{Tuples: 60_000, Seed: 3})
	if len(rows) != 4 {
		t.Fatalf("%d queries, want 4", len(rows))
	}
	for _, r := range rows {
		if !(r.Ours < r.SparkSQL) {
			t.Errorf("%s: ours %.1f min not under SparkSQL %.1f min", r.Query, r.Ours, r.SparkSQL)
		}
	}
}

func TestPrintersProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	var sb strings.Builder
	PrintSynth(&sb, smallFig8[workload.DataHeavy]())
	out := sb.String()
	for _, want := range []string{"DH workload", "z=0.0", "FO", "NO"} {
		if !strings.Contains(out, want) {
			t.Errorf("synth table missing %q:\n%s", want, out)
		}
	}
}

func TestReduceSideVariants(t *testing.T) {
	ann := workload.NewAnnotate(20_000, 5)
	var prev float64
	for i, v := range []exec.ReduceSideVariant{exec.PlainHadoop, exec.CSAWPartitioner} {
		rep := exec.RunReduceSide(exec.ReduceSideConfig{
			Hardware: clusterDefault(),
			Ann:      ann,
			Variant:  v,
		})
		if rep.Makespan <= 0 {
			t.Fatalf("%v makespan %v", v, rep.Makespan)
		}
		if i == 1 {
			if !(rep.Makespan < prev) {
				t.Errorf("CSAW %.1f not under Hadoop %.1f", rep.Makespan, prev)
			}
			if rep.Replicated == 0 {
				t.Error("CSAW replicated nothing")
			}
		}
		prev = rep.Makespan
	}
}

// TestFigureRejectsUnknownName: the dispatcher both joinbench and
// joinopt.ReproduceFigure call reports an unknown figure without printing.
func TestFigureRejectsUnknownName(t *testing.T) {
	var sb strings.Builder
	if Figure(&sb, "10", Options{Tuples: 100}) || sb.Len() != 0 {
		t.Fatalf("unknown figure accepted, printed %q", sb.String())
	}
}

// TestFanOutCollectsByIndex: results land at their run's index whatever the
// worker count; under -race it also checks that the workers share nothing
// but the output slice.
func TestFanOutCollectsByIndex(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		got := fanOut(n, func(i int) int { return i * i })
		if len(got) != n {
			t.Fatalf("fanOut(%d) returned %d results", n, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("fanOut(%d)[%d] = %d, want %d", n, i, v, i*i)
			}
		}
	}
}

// TestFigureAllMatchesEachFigure: "all" prints each figure under its header
// exactly as the figure alone prints, though it derives Figure 11 from
// Figure 8's runs instead of running them.
func TestFigureAllMatchesEachFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	o := Options{Tuples: 500, Seed: 3}
	var all, each strings.Builder
	if !Figure(&all, "all", o) {
		t.Fatal(`Figure rejected "all"`)
	}
	for _, f := range Figures {
		each.WriteString("== Figure " + strings.ToUpper(f) + " ==\n")
		Figure(&each, f, o)
		each.WriteString("\n")
	}
	if all.String() != each.String() {
		t.Errorf("all:\n%s\none by one:\n%s", all.String(), each.String())
	}
}
