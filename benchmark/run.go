package main

import (
	"fmt"
	"os"
	"sort"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric of BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// endToEndDefs are the gated metrics; every workload reports all of them.
var endToEndDefs = []metricDef{
	{"lat_p50_ms", "ms"},
	{"lat_ok_ratio", "ratio"},
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "B"},
	{"heap_mb", "MiB"},
	{"setup_s", "s"},
}

// discardScale shrinks the first, discarded repetition: it exists to fault
// the binary in and grow the heap, not to be measured.
const discardScale = 0.25

// runConfig is one benchmark invocation.
type runConfig struct {
	w       workloadDef
	seed    int64
	scale   float64
	reps    int
	workDir string
}

// runReps runs one short discarded repetition and then cfg.reps measured
// ones, all with the same seed, and checks that what must repeat exactly
// did.
func runReps(cfg runConfig) (reps []repResult, attempted, failed int, err error) {
	for i := 0; i <= cfg.reps; i++ {
		scale := cfg.scale
		if i == 0 {
			scale *= discardScale
		}
		r, rerr := cfg.w.rep(cfg.seed, scale, cfg.workDir, nil)
		attempted += r.attempted
		failed += r.failed
		if rerr != nil {
			return reps, attempted, failed, fmt.Errorf("repetition %d: %w", i, rerr)
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s rep %d/%d: setup %.3fs, %.0f ops/s, p50 %.3fms, ok %.4f, heap %.1fMiB, lag p99 %.3fms\n",
			cfg.w.name, i, cfg.reps, r.setupS, r.opsPerS(), r.open.latP50, r.open.okRatio, r.heapMB, r.open.lagP99)
		if i == 0 {
			continue
		}
		if len(reps) > 0 {
			if err := sameExact(reps[0].exact, r.exact); err != nil {
				return reps, attempted, failed, fmt.Errorf("repetition %d: %w", i, err)
			}
		}
		reps = append(reps, r)
	}
	if late := len(reps) - len(openValid(reps)); late == len(reps) {
		return reps, attempted, failed, fmt.Errorf("the open-loop pacer ran more than %.0f ms late (p99) in every repetition: no phase kept the schedule it claims, so there is no latency to report",
			maxPacerLagP99Ms)
	} else if late > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: the open-loop pacer ran more than %.0f ms late (p99) in %d of %d repetitions; their latency numbers are left out of the medians\n",
			cfg.w.name, maxPacerLagP99Ms, late, len(reps))
	}
	return reps, attempted, failed, nil
}

// sameExact checks that two repetitions agree bit for bit on the outcomes
// that depend on the seed alone.
func sameExact(a, b map[string]float64) error {
	for k, v := range a {
		if b[k] != v {
			return fmt.Errorf("%s differs between repetitions of one seed: %v then %v", k, v, b[k])
		}
	}
	return nil
}

// openValid keeps the repetitions whose open-loop phase counts: those whose
// pacer kept its schedule.
func openValid(reps []repResult) []repResult {
	var out []repResult
	for _, r := range reps {
		if r.open.valid {
			out = append(out, r)
		}
	}
	return out
}

// medianOver is the median over the repetitions of f.
func medianOver(reps []repResult, f func(repResult) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// endToEnd reduces the repetitions to the gated metrics: each is the median
// over the repetitions. The open-loop metrics leave out repetitions whose
// pacer ran late; runReps has made sure some remain.
func endToEnd(reps []repResult) map[string]metric {
	open := openValid(reps)
	vals := map[string]float64{
		"lat_p50_ms":         medianOver(open, func(r repResult) float64 { return r.open.latP50 }),
		"lat_ok_ratio":       medianOver(open, func(r repResult) float64 { return r.open.okRatio }),
		"allocs_per_op":      medianOver(reps, func(r repResult) float64 { return r.proc.mallocs / float64(r.ops) }),
		"alloc_bytes_per_op": medianOver(reps, func(r repResult) float64 { return r.proc.bytes / float64(r.ops) }),
		"heap_mb":            medianOver(reps, func(r repResult) float64 { return r.heapMB }),
		"setup_s":            medianOver(reps, func(r repResult) float64 { return r.setupS }),
	}
	out := make(map[string]metric, len(endToEndDefs))
	for _, d := range endToEndDefs {
		out[d.name] = metric{vals[d.name], d.unit}
	}
	return out
}

// harnessLayer derives the proc.* and harness.* per-layer metrics from the
// untraced repetitions and the traced one.
func harnessLayer(reps []repResult, traced repResult) map[string]float64 {
	open := openValid(reps)
	tputs := make([]float64, len(reps))
	for i, r := range reps {
		tputs[i] = r.opsPerS()
	}
	base := median(tputs)
	return map[string]float64{
		"proc.cpu_us_per_op":         medianOver(reps, func(r repResult) float64 { return r.proc.cpuUs / float64(r.ops) }),
		"proc.gc_cycles":             medianOver(reps, func(r repResult) float64 { return r.proc.gcCycles }),
		"proc.gc_pause_ms":           medianOver(reps, func(r repResult) float64 { return r.proc.gcPauseMs }),
		"harness.open_lat_p99_ms":    medianOver(open, func(r repResult) float64 { return r.open.latP99 }),
		"harness.open_lat_max_ms":    medianOver(open, func(r repResult) float64 { return r.open.latMax }),
		"harness.gen_lag_p99_ms":     medianOver(reps, func(r repResult) float64 { return r.open.lagP99 }),
		"harness.closed_ops_per_s":   base,
		"harness.rep_iqr_pct":        100 * iqrShare(tputs),
		"harness.trace_overhead_pct": 100 * (base - traced.opsPerS()) / base,
	}
}

// tracedReps is how many untraced repetitions the traced run measures
// beside its one traced repetition; their medians are the baseline the
// tracing overhead is taken against.
const tracedReps = 3

// runTraced is the -trace run: a discarded repetition, a few untraced ones,
// one repetition with spans on, then the layer probes; it writes the spans
// to spanPath and returns every per-layer metric.
func runTraced(cfg runConfig, spanPath string) (layer map[string]metric, attempted, failed int, err error) {
	cfg.reps = tracedReps
	reps, attempted, failed, err := runReps(cfg)
	if err != nil {
		return nil, attempted, failed, err
	}
	tr := newTracer()
	traced, err := cfg.w.rep(cfg.seed, cfg.scale, cfg.workDir, tr)
	attempted += traced.attempted
	failed += traced.failed
	if err != nil {
		return nil, attempted, failed, fmt.Errorf("traced repetition: %w", err)
	}
	vals := map[string]float64{}
	for k, v := range traced.layer {
		vals[k] = v
	}
	for k, v := range harnessLayer(reps, traced) {
		vals[k] = v
	}
	if err := runProbes(cfg.w.probe(cfg.seed), cfg.seed, cfg.scale, cfg.workDir, tr, vals); err != nil {
		return nil, attempted, failed, fmt.Errorf("layer probes: %w", err)
	}
	spanMetrics(tr, vals)
	if err := tr.write(spanPath); err != nil {
		return nil, attempted, failed, err
	}
	fmt.Fprintf(os.Stderr, "benchmark: wrote %d spans to %s\n", len(tr.spans), spanPath)

	layer = make(map[string]metric, len(perLayerDefs))
	var missing []string
	for _, d := range perLayerDefs {
		v, ok := vals[d.name]
		if !ok {
			missing = append(missing, d.name)
		}
		layer[d.name] = metric{v, d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, attempted, failed, fmt.Errorf("per-layer metrics never measured: %v", missing)
	}
	return layer, attempted, failed, nil
}
