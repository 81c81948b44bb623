package main

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := percentile(xs, 25); got != 2 {
		t.Errorf("p25 = %v, want 2", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its argument")
	}
	if got := percentile([]float64{1, math.Inf(1)}, 99); !math.IsInf(got, 1) {
		t.Errorf("a percentile that reaches a failed op must be +Inf, got %v", got)
	}
}

// TestQuartilesMatchPython pins the quartile rule to the values
// statistics.quantiles(xs, n=4) returns, the rule the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{2, 4}, 1.5, 4.5},
		{[]float64{3}, 3, 3},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("iqrShare = %v, want 1", got)
	}
}

func TestSummarizeCountsFailuresAsMisses(t *testing.T) {
	st := summarize([]float64{1, 2, math.Inf(1), 3}, []float64{0.1, 0.2, 0.1, 9}, 2)
	if st.okRatio != 0.5 {
		t.Errorf("okRatio = %v, want 0.5 (2 ms is inside the limit, the failed op is not)", st.okRatio)
	}
	if st.valid {
		t.Error("a pacer lag p99 of about 9 ms must invalidate the phase")
	}
	if st := summarize([]float64{1}, nil, 2); !st.valid || st.okRatio != 1 {
		t.Errorf("a phase without a pacer is valid: %+v", st)
	}
}

// streamHash fingerprints a generated op stream.
func (in *liveInputs) streamHash() uint64 {
	h := uint64(fnvOffset64)
	var b [5]byte
	for _, o := range in.ops {
		binary.LittleEndian.PutUint32(b[:4], uint32(o.key))
		b[4] = 0
		if o.put {
			b[4] = 1
		}
		h = fnvAdd(h, b[:])
	}
	return h
}

// TestSameSeedSameInputs: the same seed gives the same op stream and the
// same exactly-repeating counters, another seed gives others.
func TestSameSeedSameInputs(t *testing.T) {
	spec := zipfCache.scaled(0.02)
	a, b, c := spec.generate(7), spec.generate(7), spec.generate(8)
	if a.streamHash() != b.streamHash() {
		t.Error("same seed, different op stream")
	}
	if a.streamHash() == c.streamHash() {
		t.Error("different seeds, same op stream")
	}
	counters := func(seed int64) map[string]float64 {
		vals := map[string]float64{}
		in := liveWorkload(zipfCache).probe(seed)
		in.keys, in.puts = in.keys[:20_000], in.puts[:20_000]
		probeCore(in, nil, vals)
		probeDecision(in, nil, vals)
		return vals
	}
	x, y, z := counters(7), counters(7), counters(8)
	differs := false
	for _, name := range []string{"core.route_local_share", "core.route_compute_share", "core.route_fetch_share",
		"cache.hit_ratio", "cache.mem_evictions", "freq.tracked_keys"} {
		if x[name] != y[name] {
			t.Errorf("%s: %v then %v for one seed", name, x[name], y[name])
		}
		if x[name] != z[name] {
			differs = true
		}
	}
	if !differs {
		t.Error("no counter moved with the seed")
	}
	if x["core.route_local_share"] == 0 || x["core.route_fetch_share"] == 0 {
		t.Errorf("the caching replay took no local or fetch route: %v", x)
	}
}

func TestSimOutcomesRepeatExactly(t *testing.T) {
	a, err := runSimRep(3, 0.05, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSimRep(3, 0.05, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := runSimRep(4, 0.05, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.exact) != len(simStrategies)*len(simSkews) {
		t.Fatalf("%d exact outcomes, want %d", len(a.exact), len(simStrategies)*len(simSkews))
	}
	if err := sameExact(a.exact, b.exact); err != nil {
		t.Error(err)
	}
	if sameExact(a.exact, c.exact) == nil {
		t.Error("simulated throughputs did not move with the seed")
	}
}

// countSystem is a fake system that completes every op at once.
type countSystem struct{ started, finished atomic.Int64 }

func (c *countSystem) start(i int, _ bool, _ int64) pendingOp {
	c.started.Add(1)
	return pendingOp{i: int32(i)}
}

func (c *countSystem) finish(pendingOp) error { c.finished.Add(1); return nil }

// TestClosedLoopRunsEveryOpOnce covers windows that do and do not divide the
// op count, the synchronous caller and fewer ops than callers.
func TestClosedLoopRunsEveryOpOnce(t *testing.T) {
	var sys countSystem
	var errs errTally
	a := closedLoop(&sys, 10, 1010, 2, 16, &errs)
	b := closedLoop(&sys, 0, 1003, 2, 1, &errs)
	c := closedLoop(&sys, 0, 3, 4, 4, &errs)
	if sys.started.Load() != 2006 || sys.finished.Load() != 2006 {
		t.Fatalf("started %d, finished %d of 2006 ops", sys.started.Load(), sys.finished.Load())
	}
	for _, wallS := range []float64{a, b, c} {
		if !(wallS > 0) {
			t.Errorf("a phase took %v s", wallS)
		}
	}
}

// lateWorkload is a fake workload whose open-loop pacer ran late in the
// repetitions late() names.
func lateWorkload(late func(rep int) bool) workloadDef {
	rep := 0
	return workloadDef{name: "fake", rep: func(int64, float64, string, *tracer) (repResult, error) {
		r := repResult{ops: 100, closedS: 1, attempted: 100,
			open: openStats{latP50: float64(rep), okRatio: 1, lagP99: 1, valid: !late(rep)}}
		rep++
		return r, nil
	}}
}

// TestLateOpenLoopIsLeftOutOrFailsTheRun: a repetition whose pacer ran late
// is left out of the latency medians, and a run in which every repetition
// did reports nothing.
func TestLateOpenLoopIsLeftOutOrFailsTheRun(t *testing.T) {
	// Repetition 0 is the discarded one; of 1, 2, 3 the last ran late.
	reps, _, _, err := runReps(runConfig{w: lateWorkload(func(rep int) bool { return rep == 3 }), reps: 3, scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := endToEnd(reps)["lat_p50_ms"].Value; got != 1.5 {
		t.Errorf("lat_p50_ms = %v, want 1.5: the median of the two repetitions that kept their schedule", got)
	}
	if got := harnessLayer(reps, reps[0])["harness.closed_ops_per_s"]; got != 100 {
		t.Errorf("harness.closed_ops_per_s = %v, want 100: the late repetition's closed loop still counts", got)
	}
	_, _, _, err = runReps(runConfig{w: lateWorkload(func(int) bool { return true }), reps: 3, scale: 1})
	if err == nil {
		t.Error("a run whose pacer ran late in every repetition must fail, not report")
	}
}

// stallSystem is a fake system whose op `at` blocks the generator for
// `stall`, the way a synchronous submit into a frozen system would.
type stallSystem struct {
	at    int
	stall time.Duration
}

func (s stallSystem) start(i int, _ bool, _ int64) pendingOp {
	if i == s.at {
		time.Sleep(s.stall)
	}
	return pendingOp{i: int32(i)}
}

func (stallSystem) finish(pendingOp) error { return nil }

// TestOpenLoopChargesStallToDelayedOps: latency runs from the due time, so
// the ops that came due during a 50 ms stall show it (no coordinated
// omission), and ops well clear of the stall do not.
func TestOpenLoopChargesStallToDelayedOps(t *testing.T) {
	const (
		n     = 400
		rate  = 2000.0 // one op per 0.5 ms
		at    = 100
		stall = 50 * time.Millisecond
	)
	var errs errTally
	lat, lag := openLoop(stallSystem{at: at, stall: stall}, 0, n, rate, &errs)
	if errs.n.Load() != 0 {
		t.Fatal(errs.first)
	}
	if lat[at] < 50 {
		t.Errorf("the stalled op shows %.2f ms, want at least 50", lat[at])
	}
	// The op due 10 ms into the stall waited for the remaining 40 ms.
	if l := lat[at+20]; l < 39 {
		t.Errorf("an op due 10 ms into the stall shows %.2f ms, want about 40", l)
	}
	late := 0
	for _, l := range lat {
		if l >= 25 {
			late++
		}
	}
	// Ops due in the first half of the stall waited 25 ms or more: about 50.
	if late < 45 {
		t.Errorf("%d ops show 25 ms or more, want about 50: the stall was not charged to the ops it delayed", late)
	}
	if lat[at-50] > 25 || lat[n-1] > 25 {
		t.Errorf("ops clear of the stall show %.2f and %.2f ms", lat[at-50], lat[n-1])
	}
	if percentile(lag, 99) < 25 {
		t.Errorf("pacer lag p99 %.2f ms does not show the stall", percentile(lag, 99))
	}
}

// TestWorkloadSmoke runs one measured repetition of every workload at 1/50
// scale, with the per-op output checks and the accounting invariant on. The
// validity windows and the paper-claim check need the full op counts:
// TestWorkloadValidityAtFullScale.
func TestWorkloadSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			reps, attempted, failed, err := runReps(runConfig{w: w, seed: 11, scale: 0.02, reps: 1, workDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if failed != 0 || attempted == 0 {
				t.Fatalf("attempted %d, failed %d", attempted, failed)
			}
			for name, m := range endToEnd(reps) {
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v, want a positive finite number", name, m.Value)
				}
			}
		})
	}
}

// TestWorkloadValidityAtFullScale runs one repetition of every workload at
// the benchmark's own scale, where the hit-ratio window, the snapshot count,
// the stale-read ceiling and the paper-claim check all apply. About 15 s.
func TestWorkloadValidityAtFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale repetitions")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := w.rep(11, 1, t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Fatalf("attempted %d, failed %d", r.attempted, r.failed)
			}
		})
	}
}

// TestTracedRunReportsEveryLayerMetric drives the traced path end to end at
// small scale: a span file is written and every per-layer metric is
// measured.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	dir := t.TempDir()
	w, _ := findWorkload("put_disk")
	path := filepath.Join(dir, "spans.jsonl")
	layer, _, failed, err := runTraced(runConfig{w: w, seed: 5, scale: 0.02, workDir: dir}, path)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Fatalf("%d ops failed", failed)
	}
	if len(layer) != len(perLayerDefs) {
		t.Fatalf("%d metrics reported, %d defined", len(layer), len(perLayerDefs))
	}
	for _, name := range []string{"live.submit_ns", "live.wait_us", "live.put_us", "live.pool_put_k1_us",
		"storage.disk_put_ns", "storage.disk_reopen_ms", "storage.replayed_records", "exec.sim_tput_fo", "core.route_ns"} {
		if !(layer[name].Value > 0) {
			t.Errorf("%s = %v, want positive", name, layer[name].Value)
		}
	}
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the code's metric
// and workload names from drifting apart.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != standardSeconds {
		t.Errorf("run_seconds %d, the op counts are sized for %d", bf.RunSeconds, standardSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the code", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in the file, %q in the code", i, bf.Workloads[i].Name, w.name)
		}
	}
	if len(bf.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics in the file, %d in the code", len(bf.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		if m := bf.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end-to-end metric %d: %s [%s] in the file, %s [%s] in the code", i, m.Name, m.Unit, d.name, d.unit)
		}
		// ISSUE 14 caps every bound at a tenth. setup_s alone may go to the
		// contract's 0.25: the contract keeps it in the gated list whatever
		// its spread, so it cannot be moved to the per-layer list instead.
		limit := 0.10
		if d.name == "setup_s" {
			limit = 0.25
		}
		if b := bf.EndToEnd[i].Bound; b <= 0 || b > limit {
			t.Errorf("%s: bound %v outside (0, %v]", d.name, b, limit)
		}
	}
	if len(bf.PerLayer) != len(perLayerDefs) {
		t.Fatalf("%d per-layer metrics in the file, %d in the code", len(bf.PerLayer), len(perLayerDefs))
	}
	for i, d := range perLayerDefs {
		if m := bf.PerLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer metric %d: %s [%s] in the file, %s [%s] in the code", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
}
