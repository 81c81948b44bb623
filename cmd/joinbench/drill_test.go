package main

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// lockedBuffer collects a drill's report; its reader goroutines print
// failures as they happen, so writes must be serialized.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestDrillsPass runs the ledger drills at small op counts: each must
// return nil and end its report with the one PASS verdict line.
func TestDrillsPass(t *testing.T) {
	drills := []struct {
		name string
		run  func(out *lockedBuffer) error
	}{
		{"durability", func(out *lockedBuffer) error { return runLiveDurable(out, 2000, t.TempDir(), false) }},
		{"replication", func(out *lockedBuffer) error { return runLiveReplicas(out, 1200, 3) }},
		{"migration", func(out *lockedBuffer) error { return runLiveMigrate(out, 3000) }},
	}
	for _, d := range drills {
		t.Run(d.name, func(t *testing.T) {
			var out lockedBuffer
			err := d.run(&out)
			report := out.String()
			if err != nil {
				t.Fatalf("drill failed: %v\n%s", err, report)
			}
			lines := strings.Split(strings.TrimSpace(report), "\n")
			if last := lines[len(lines)-1]; !strings.HasPrefix(last, d.name+" drill: PASS: ") {
				t.Errorf("last report line = %q, want the %s PASS verdict\n%s", last, d.name, report)
			}
		})
	}
}

// TestReplicasDrillNeedsMajority: killing one of two replicas leaves no
// majority to write to, so R=2 is refused before anything boots.
func TestReplicasDrillNeedsMajority(t *testing.T) {
	var out lockedBuffer
	err := runLiveReplicas(&out, 1200, 2)
	if err == nil || !strings.Contains(err.Error(), "needs at least 3 replicas") {
		t.Fatalf("runLiveReplicas at R=2 = %v, want the needs-3-replicas error", err)
	}
	if out.String() != "" {
		t.Errorf("a refused drill printed %q", out.String())
	}
}
