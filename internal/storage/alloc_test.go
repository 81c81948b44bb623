//go:build !race

// The race detector's instrumentation allocates on its own and would blow
// any budget, so this test is built only without it.

package storage

import "testing"

// TestDiskPutAllocBudget holds a disk Put, snapshots off, to one
// allocation: the memtable's copy of the value. The WAL record is framed in
// the engine's reused encode buffer and buffered with one Write.
func TestDiskPutAllocBudget(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), DiskOptions{SnapshotBytes: -1})
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	tb, err := d.Table("t")
	if err != nil {
		t.Fatalf("Table: %v", err)
	}
	val := make([]byte, 100)
	if _, err := tb.Put("k", val); err != nil { // grows the encode buffer
		t.Fatalf("Put: %v", err)
	}
	n := testing.AllocsPerRun(1000, func() {
		if _, err := tb.Put("k", val); err != nil {
			t.Fatalf("Put: %v", err)
		}
	})
	if n > 1 {
		t.Errorf("disk Put: %.2f allocs, budget 1", n)
	}
}
