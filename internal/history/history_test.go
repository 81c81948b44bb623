package history

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

type row struct {
	val string
	ver int64
}

// store is a seeded history's end state: what each key reads back as.
type store map[string]row

func (s store) read(key string) ([]byte, int64, error) {
	if key == "broken" {
		return nil, 0, errors.New("connection reset")
	}
	r := s[key]
	return []byte(r.val), r.ver, nil
}

// TestAuditCatchesSeededViolations hands Audit one history per violation it
// must catch, plus the ones it must let through.
func TestAuditCatchesSeededViolations(t *testing.T) {
	var l Ledger
	l.Ack("ok", []byte("a"), 3)
	l.Ack("newer", []byte("a"), 3) // read back at a later version: fine
	l.Ack("lost", []byte("b"), 5)
	l.Ack("diverged", []byte("c"), 2)
	l.Ack("missing", []byte("d"), 1)
	l.Ack("broken", []byte("e"), 1)
	l.Ack("tie", []byte("f"), 2)
	l.Ack("tie", []byte("g"), 2) // of two acks at one version, the later stands
	end := store{
		"tie":      {"g", 2},
		"ok":       {"a", 3},
		"newer":    {"z", 4},
		"lost":     {"b-old", 4},
		"diverged": {"other", 2},
		// "missing" is absent: version 0.
	}

	got := map[string]Violation{}
	for _, v := range l.Audit(end.read) {
		got[v.Key] = v
	}
	want := map[string]Kind{"lost": Lost, "diverged": Diverged, "missing": Lost, "broken": ReadFailed}
	if len(got) != len(want) {
		t.Errorf("Audit reported %d violations, want %d: %v", len(got), len(want), got)
	}
	for k, kind := range want {
		if v, ok := got[k]; !ok || v.Kind != kind {
			t.Errorf("key %s: got %+v, want a %v violation", k, v, kind)
		}
	}
	if v := got["lost"]; v.Version != 5 || v.GotVer != 4 || v.Value != "b" || v.Got != "b-old" {
		t.Errorf("lost violation = %+v, want acked v5 %q read v4 %q", v, "b", "b-old")
	}
	if v := got["broken"]; !strings.Contains(v.String(), "connection reset") {
		t.Errorf("failed read reported as %q, want the read's error in it", v)
	}
	if s := got["missing"].String(); s != `LOST acked put missing (v1 "d"): read v0 ""` {
		t.Errorf("violation format = %q", s)
	}
}

// TestAuditLatestCatchesStaleValues: with every writer stopped, a read
// that is not the newest acked value is stale, whatever its version.
func TestAuditLatestCatchesStaleValues(t *testing.T) {
	var l Ledger
	l.Ack("fresh", []byte("v2"), 2)
	l.Ack("stale", []byte("v1"), 1)
	l.Ack("stale", []byte("v2"), 2)
	l.Ack("broken", []byte("v1"), 1)
	end := store{"fresh": {"v2", 0}, "stale": {"v1", 0}}
	read := func(key string) ([]byte, error) {
		v, _, err := end.read(key)
		return v, err
	}
	vs := l.AuditLatest(read)
	if len(vs) != 2 || vs[0].Key != "broken" || vs[0].Kind != ReadFailed ||
		vs[1].Key != "stale" || vs[1].Kind != Stale || vs[1].Got != "v1" || vs[1].Value != "v2" {
		t.Fatalf("AuditLatest = %v, want broken unreadable and stale read v1 for acked v2", vs)
	}
}

// TestLedgerKeepsHighestVersion: acks from concurrent writers arrive in any
// order; the ledger must end holding each key's highest acked version and
// its value, and must count every ack.
func TestLedgerKeepsHighestVersion(t *testing.T) {
	const writers, versions = 8, 200
	var l Ledger
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each writer walks the versions in a different order, highest
			// first for some, so the highest ack is often not the last.
			for i := 0; i < versions; i++ {
				ver := int64((i*(w+1)+w)%versions + 1)
				l.Ack("k", []byte(fmt.Sprintf("v%d", ver)), ver)
			}
		}(w)
	}
	wg.Wait()
	if n := l.Acked(); n != writers*versions {
		t.Errorf("Acked = %d, want %d", n, writers*versions)
	}
	if n := l.Keys(); n != 1 {
		t.Errorf("Keys = %d, want 1", n)
	}
	// Reading back the top version must pass; one below it must be lost.
	if vs := l.Audit(store{"k": {fmt.Sprintf("v%d", versions), versions}}.read); len(vs) != 0 {
		t.Errorf("the highest acked version failed its audit: %v", vs)
	}
	if vs := l.Audit(store{"k": {"v199", versions - 1}}.read); len(vs) != 1 || vs[0].Kind != Lost {
		t.Errorf("a read one version below the highest ack = %v, want it lost", vs)
	}
}
