package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// engines returns one fresh instance of every Engine implementation, plus
// a disk engine behind an idle WrapFault, so the semantic tests run
// identically against all three.
func engines(t *testing.T) map[string]Engine {
	t.Helper()
	openDisk := func() *Disk {
		d, err := OpenDisk(t.TempDir(), DiskOptions{})
		if err != nil {
			t.Fatalf("OpenDisk: %v", err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	return map[string]Engine{"mem": NewMem(), "disk": openDisk(), "fault": WrapFault(openDisk())}
}

// walBytes reports the WAL size of eng (unwrapping a Fault), 0 for an
// engine without one.
func walBytes(eng Engine) int64 {
	if f, ok := eng.(*Fault); ok {
		eng = f.inner
	}
	if d, ok := eng.(*Disk); ok {
		return d.Stats().WALBytes
	}
	return 0
}

func TestEngineSemantics(t *testing.T) {
	for name, eng := range engines(t) {
		t.Run(name, func(t *testing.T) {
			tb, err := eng.Table("t")
			if err != nil {
				t.Fatalf("Table: %v", err)
			}

			if _, _, ok := tb.Get("missing"); ok {
				t.Fatal("Get of absent key reported ok")
			}

			tb.Seed("s", []byte("seed"))
			if v, ver, ok := tb.Get("s"); !ok || ver != 0 || string(v) != "seed" {
				t.Fatalf("seed row = %q v%d ok=%v", v, ver, ok)
			}
			// A seed never overwrites an existing row.
			tb.Seed("s", []byte("other"))
			if v, _, _ := tb.Get("s"); string(v) != "seed" {
				t.Fatalf("re-seed overwrote row: %q", v)
			}

			// Put copies its value and bumps versions from the replaced row.
			val := []byte("v1")
			ver, err := tb.Put("k", val)
			if err != nil || ver != 1 {
				t.Fatalf("first Put: ver=%d err=%v", ver, err)
			}
			val[0] = 'X' // caller reuses the slice; the row must not change
			if v, _, _ := tb.Get("k"); string(v) != "v1" {
				t.Fatalf("Put aliased the caller's slice: %q", v)
			}
			if ver, _ = tb.Put("k", []byte("v2")); ver != 2 {
				t.Fatalf("second Put version = %d, want 2", ver)
			}
			// Putting over a seed starts the durable sequence at 1.
			if ver, _ = tb.Put("s", []byte("s1")); ver != 1 {
				t.Fatalf("Put over seed version = %d, want 1", ver)
			}

			if tb.Len() != 2 {
				t.Fatalf("Len = %d, want 2", tb.Len())
			}
			seen := map[string]int64{}
			if err := tb.Scan(func(k string, v []byte, ver int64) bool {
				seen[k] = ver
				return true
			}); err != nil {
				t.Fatalf("Scan: %v", err)
			}
			if seen["k"] != 2 || seen["s"] != 1 {
				t.Fatalf("Scan saw %v", seen)
			}

			// Same-name Table returns a handle onto the same rows.
			tb2, _ := eng.Table("t")
			if v, _, ok := tb2.Get("k"); !ok || string(v) != "v2" {
				t.Fatalf("second handle Get = %q ok=%v", v, ok)
			}

			// A raised floor puts the next version above it.
			tb.SetFloor(10)
			if ver, _ = tb.Put("k", []byte("v11")); ver != 11 {
				t.Fatalf("Put after SetFloor(10) version = %d, want 11", ver)
			}

			if err := eng.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
		})
	}
}

func TestEngineConcurrentPutGet(t *testing.T) {
	for name, eng := range engines(t) {
		t.Run(name, func(t *testing.T) {
			tb, _ := eng.Table("t")
			const writers, perWriter = 4, 200
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				key := fmt.Sprintf("k%d", w)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 1; i <= perWriter; i++ {
						want := []byte(fmt.Sprintf("%d", i))
						if ver, err := tb.Put(key, want); err != nil || ver != int64(i) {
							t.Errorf("Put %s#%d: ver=%d err=%v", key, i, ver, err)
							return
						}
					}
				}()
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						v, ver, ok := tb.Get(key)
						if !ok {
							continue
						}
						// Value and version must be read as one consistent row.
						if string(v) != fmt.Sprintf("%d", ver) {
							t.Errorf("Get %s: value %q inconsistent with version %d", key, v, ver)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

func TestDiskRecoverySnapshotPlusWALTail(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := d.Table("t")
	tb.Seed("seeded", []byte("base"))
	for i := 1; i <= 10; i++ {
		if _, err := tb.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot puts land only in the fresh WAL.
	for i := 11; i <= 15; i++ {
		if _, err := tb.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.Put("k1", []byte("v1-again")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	st := r.Stats()
	if st.RecoveredRows != 10 || st.ReplayedRecords != 6 {
		t.Fatalf("stats = %+v, want 10 snapshot rows + 6 replayed records", st)
	}
	rt, _ := r.Table("t")
	for i := 2; i <= 15; i++ {
		k := fmt.Sprintf("k%d", i)
		if v, _, ok := rt.Get(k); !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("recovered %s = %q ok=%v", k, v, ok)
		}
	}
	if v, ver, _ := rt.Get("k1"); string(v) != "v1-again" || ver != 2 {
		t.Fatalf("recovered k1 = %q v%d, want v1-again v2", v, ver)
	}
	// Seeds are not durable; the caller re-seeds, and a recovered row wins.
	if _, _, ok := rt.Get("seeded"); ok {
		t.Fatal("seed row was persisted")
	}
	rt.Seed("k1", []byte("base"))
	if v, _, _ := rt.Get("k1"); string(v) != "v1-again" {
		t.Fatalf("re-seed overwrote recovered row: %q", v)
	}
}

func TestDiskAutoSnapshotTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{SnapshotBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := d.Table("t")
	big := bytes.Repeat([]byte("x"), 200)
	for i := 0; i < 50; i++ {
		if _, err := tb.Put(fmt.Sprintf("k%d", i%7), big); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.Snapshots == 0 {
		t.Fatalf("no automatic snapshot after %d large puts", 50)
	}
	if st.WALBytes >= 50*200 {
		t.Fatalf("WAL never truncated: %d bytes", st.WALBytes)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rt, _ := r.Table("t")
	if rt.Len() != 7 {
		t.Fatalf("recovered %d rows, want 7", rt.Len())
	}
	for i := 0; i < 7; i++ {
		if v, _, ok := rt.Get(fmt.Sprintf("k%d", i)); !ok || !bytes.Equal(v, big) {
			t.Fatalf("row k%d lost across snapshot+restart", i)
		}
	}
}

func TestDiskFlushIsTheDurabilityPoint(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := d.Table("t")
	if _, err := tb.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	// The record must be on disk now, not just in the bufio buffer.
	raw, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil || len(raw) == 0 {
		t.Fatalf("flushed WAL empty on disk (err=%v, %d bytes)", err, len(raw))
	}
	d.Close()
}

func TestParseEngine(t *testing.T) {
	for _, ok := range []string{"mem", "disk"} {
		if got, err := ParseEngine(ok); err != nil || got != ok {
			t.Fatalf("ParseEngine(%q) = %q, %v", ok, got, err)
		}
	}
	if _, err := ParseEngine("bolt"); err == nil {
		t.Fatal("ParseEngine accepted unknown engine")
	}
}
