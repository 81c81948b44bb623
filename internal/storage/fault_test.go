package storage

import (
	"errors"
	"testing"
)

// TestFaultEngineToggles pins the wrapper's contract: transparent until a
// toggle flips, ErrInjected while it is set, transparent again after.
func TestFaultEngineToggles(t *testing.T) {
	f := WrapFault(NewMem())
	tb, err := f.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Put("k", []byte("v1")); err != nil {
		t.Fatalf("transparent put failed: %v", err)
	}
	f.FailPuts.Store(true)
	if _, err := tb.Put("k", []byte("v2")); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if _, err := tb.PutAt("k", []byte("v2"), 9); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected from PutAt, got %v", err)
	}
	f.FailPuts.Store(false)
	if v, ver, _ := tb.Get("k"); string(v) != "v1" || ver != 1 {
		t.Fatalf("failed put leaked: %q v%d", v, ver)
	}
	f.FailFlush.Store(true)
	if err := f.Flush(); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected flush failure, got %v", err)
	}
	f.FailFlush.Store(false)
	if err := f.Flush(); err != nil {
		t.Fatalf("flush after clearing toggle: %v", err)
	}
	if f.Puts.Load() != 2 || f.PutAts.Load() != 1 || f.Flushes.Load() != 2 {
		t.Fatalf("counters: %d puts, %d putAts, %d flushes",
			f.Puts.Load(), f.PutAts.Load(), f.Flushes.Load())
	}
}

// TestPutAtSetIfNewer pins the replication-stream semantics on every
// engine: strictly-newer versions apply, equal or older ones do not (an
// absent row reading as version 0), a refused PutAt logs nothing, and a put
// resumes the version sequence past a PutAt.
func TestPutAtSetIfNewer(t *testing.T) {
	for name, eng := range engines(t) {
		t.Run(name, func(t *testing.T) {
			tb, err := eng.Table("t")
			if err != nil {
				t.Fatal(err)
			}
			if ok, err := tb.PutAt("k", []byte("v5"), 5); err != nil || !ok {
				t.Fatalf("PutAt v5: applied=%v err=%v", ok, err)
			}
			if ok, _ := tb.PutAt("k", []byte("stale"), 5); ok {
				t.Fatal("equal version must not apply")
			}
			if ok, _ := tb.PutAt("k", []byte("older"), 3); ok {
				t.Fatal("older version must not apply")
			}
			if v, ver, _ := tb.Get("k"); string(v) != "v5" || ver != 5 {
				t.Fatalf("got %q v%d, want v5@5", v, ver)
			}
			ver, err := tb.Put("k", []byte("v6"))
			if err != nil || ver != 6 {
				t.Fatalf("Put after PutAt: v%d err=%v, want v6", ver, err)
			}

			// A PutAt over a seed row applies from v1.
			tb.Seed("s", []byte("seed"))
			if ok, err := tb.PutAt("s", []byte("s1"), 1); err != nil || !ok {
				t.Fatalf("PutAt v1 over seed: applied=%v err=%v", ok, err)
			}
			if v, ver, _ := tb.Get("s"); string(v) != "s1" || ver != 1 {
				t.Fatalf("got %q v%d, want s1@1", v, ver)
			}

			// A PutAt at version 0 is never newer, even on an absent key,
			// and a refused PutAt appends nothing to the WAL.
			before := walBytes(eng)
			if ok, err := tb.PutAt("absent", []byte("v0"), 0); err != nil || ok {
				t.Fatalf("PutAt v0 on absent key: applied=%v err=%v", ok, err)
			}
			if _, _, ok := tb.Get("absent"); ok {
				t.Fatal("refused PutAt left a row")
			}
			if after := walBytes(eng); after != before {
				t.Fatalf("refused PutAt grew the WAL %d -> %d bytes", before, after)
			}
		})
	}
}

// TestPutAtDurable pins that applied PutAt rows ride the WAL like puts: a
// reopened directory recovers them at their replicated versions.
func TestPutAtDurable(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := d.Table("t")
	if _, err := tb.PutAt("k", []byte("replicated"), 7); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	d.Close()

	d2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	tb2, _ := d2.Table("t")
	if v, ver, _ := tb2.Get("k"); string(v) != "replicated" || ver != 7 {
		t.Fatalf("recovered %q v%d, want replicated@7", v, ver)
	}
}
