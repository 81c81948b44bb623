package joinopt

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchFilesWellFormed checks every committed BENCH_<pr>.json (written by
// `make benchjson`) against BENCHMARK.json: each workload has an untraced run
// that passed its output checks and carries every end-to-end metric as a
// number. A hand-edited or truncated result file fails tier-1.
func TestBenchFilesWellFormed(t *testing.T) {
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	readJSON(t, "BENCHMARK.json", &decl)
	if len(decl.Workloads) == 0 || len(decl.EndToEnd) == 0 {
		t.Fatal("BENCHMARK.json declares no workloads or no end-to-end metrics")
	}
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		var res struct {
			Commit string
			Nproc  int
			Go     string
			Runs   []struct {
				Workload string
				Trace    int
				Result   struct {
					Correct bool
					Metrics map[string]struct{ Value *float64 }
				}
			}
		}
		readJSON(t, file, &res)
		if res.Commit == "" || res.Nproc == 0 || res.Go == "" {
			t.Errorf("%s: commit %q, nproc %d, go %q: the host shape is incomplete", file, res.Commit, res.Nproc, res.Go)
		}
		for _, w := range decl.Workloads {
			found := false
			for _, run := range res.Runs {
				if run.Workload != w.Name {
					continue
				}
				if !run.Result.Correct {
					t.Errorf("%s: %s (trace %d) is not marked correct", file, w.Name, run.Trace)
				}
				if run.Trace != 0 {
					continue
				}
				found = true
				for _, m := range decl.EndToEnd {
					if run.Result.Metrics[m.Name].Value == nil {
						t.Errorf("%s: %s has no numeric %s", file, w.Name, m.Name)
					}
				}
			}
			if !found {
				t.Errorf("%s: no untraced run of %s", file, w.Name)
			}
		}
	}
}

func readJSON(t *testing.T, path string, into any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, into); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
