package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the A/A check reads: the
// bounds live there and nowhere else.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchmarkFile(outDir string) (benchmarkFile, error) {
	var bf benchmarkFile
	raw, err := os.ReadFile(filepath.Join(filepath.Dir(outDir), "BENCHMARK.json"))
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		return bf, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return bf, nil
}

// runAA runs two interleaved sets of n full runs of this same binary on
// every workload, each run a fresh process with its own seed, and compares
// the sets' medians per end-to-end metric against the bounds in
// BENCHMARK.json. It prints a markdown table (the one in README.md) and
// fails when a gap between the medians exceeds its bound, or when either
// set's quartile spread does: the acceptance check looks at both. Only
// setup_s is exempt from the spread rule, as it is there.
func runAA(n int, seed int64, seconds float64, reps int, outDir string) error {
	bf, err := readBenchmarkFile(outDir)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("| workload | metric | median A | median B | gap (worse is +) | widest IQR/median | bound |\n")
	fmt.Printf("|---|---|---|---|---|---|---|\n")
	exceeded := 0
	for _, w := range bf.Workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for s := range sets {
				res, err := runSelf(self, w.Name, seed+int64(2*i+s), seconds, reps)
				if err != nil {
					return fmt.Errorf("%s, set %c, run %d: %w", w.Name, 'A'+s, i, err)
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		for _, m := range bf.EndToEnd {
			a, b := median(sets[0][m.Name]), median(sets[1][m.Name])
			gap := (b - a) / a
			if m.Better == "higher" {
				gap = -gap
			}
			spread := max(iqrShare(sets[0][m.Name]), iqrShare(sets[1][m.Name]))
			gapMark, spreadMark := "", ""
			// Either set may play the parent: the gap counts in both directions.
			if gap > m.Bound || -gap > m.Bound {
				gapMark = " **exceeded**"
				exceeded++
			}
			if spread > m.Bound && m.Name != "setup_s" {
				spreadMark = " **exceeded**"
				exceeded++
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %+.2f%%%s | %.2f%%%s | %g%% |\n",
				w.Name, m.Name, a, b, 100*gap, gapMark, 100*spread, spreadMark, 100*m.Bound)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d times a gap between two sets of runs of the same binary, or a set's quartile spread, exceeded its bound", exceeded)
	}
	return nil
}

// runSelf runs one benchmark invocation in a fresh process and parses its
// result line. The child's progress lines pass through to standard error.
func runSelf(self, workload string, seed int64, seconds float64, reps int) (result, error) {
	cmd := exec.Command(self,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-reps", strconv.Itoa(reps),
		"-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("result line: %w", err)
	}
	return res, nil
}
