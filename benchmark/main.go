// Command benchmark is the repository's performance benchmark: four
// workloads, six end-to-end metrics that are medians over independent
// repetitions, and a traced run that reports per-layer metrics. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	bash benchmark/run.sh --workload wire_exec --seed 1 --seconds 30 --trace 0
//
// prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: wire_exec, zipf_cache, put_disk or sim_paper")
		seed     = flag.Int64("seed", 1, "seed every input is generated from; shared by all repetitions")
		seconds  = flag.Float64("seconds", standardSeconds, "run length; op counts scale by seconds/30")
		trace    = flag.String("trace", "0", "0: report end-to-end metrics; 1: traced run reporting per-layer metrics; any other value: traced run writing its spans to that file")
		reps     = flag.Int("reps", 0, "measured repetitions per run (one more is run first and discarded); 0 is the workload's own R")
		aa       = flag.Int("aa", 0, "run two interleaved sets of N full runs of every workload and compare their medians against the bounds")
	)
	flag.Parse()
	// Client and servers share the process: pin the parallelism so a larger
	// host measures the same two-core shape.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	out, err := outDir()
	if err != nil {
		fatal(err)
	}
	scale := *seconds / standardSeconds
	if *aa > 0 {
		if err := runAA(*aa, *seed, *seconds, *reps, out); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := findWorkload(*workload)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if *reps < 0 || scale <= 0 {
		fatal(fmt.Errorf("need -reps >= 0 and -seconds > 0"))
	}
	if *reps == 0 {
		*reps = w.reps
	}
	cfg := runConfig{w: w, seed: *seed, scale: scale, reps: *reps, workDir: out}

	var res result
	if *trace == "0" {
		var rs []repResult
		rs, res.Attempted, res.Failed, err = runReps(cfg)
		if err == nil {
			res.Metrics = endToEnd(rs)
		}
	} else {
		path := *trace
		if path == "1" {
			path = filepath.Join(out, "spans_"+w.name+".jsonl")
		}
		res.Metrics, res.Attempted, res.Failed, err = runTraced(cfg, path)
	}
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.name, err))
	}
	res.Correct = true
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// fatal reports a run that must not be counted: a failed op, a wrong
// output, an invalid workload or a broken environment. No result line is
// printed.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// outDir is where the benchmark writes span files and disk-engine data: a
// directory inside the checkout, found by walking up to BENCHMARK.json so
// the answer does not depend on where the binary was started from.
func outDir() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			out := filepath.Join(dir, ".bench_out")
			return out, os.MkdirAll(out, 0o755)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found in any parent directory: run from inside the repository")
		}
		dir = parent
	}
}
