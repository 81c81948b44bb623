package live

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"joinopt/internal/history"
	"joinopt/internal/storage"
)

// TestConcurrentGetPutRace drives concurrent Get and Put batches against
// one table and checks, under the race detector, that every Get observes a
// consistent row: the value and the version of a response slot must belong
// to the same Put. This pins the handleGet lock-narrowing fix — rows are
// read under the engine's reader lock with only a short cacher write
// section — against torn reads and against the stale-cache ordering bug
// (cachers must be registered before the row is read).
func TestConcurrentGetPutRace(t *testing.T) {
	const (
		writers   = 4
		readers   = 4
		perWriter = 300
		keySpan   = 8 // keys per writer; disjoint across writers
	)
	reg := NewRegistry()
	srv := NewServer(reg, false)
	srv.AddTable(TableSpec{Name: "t", UDF: "none"})
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < writers; w++ {
		conn, err := DialNode(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		wg.Add(1)
		go func(w int, conn *Conn) {
			defer wg.Done()
			seq := make([]int, keySpan)
			for i := 0; i < perWriter; i++ {
				slot := i % keySpan
				seq[slot]++
				k := fmt.Sprintf("w%d-k%d", w, slot)
				// The value IS the expected version: the server assigns
				// versions by incrementing per put, and this goroutine is
				// the key's only writer.
				v := []byte(strconv.Itoa(seq[slot]))
				resp, err := conn.Call(Request{Op: OpPut, Table: "t",
					Keys: []string{k}, Params: [][]byte{v}})
				if err != nil {
					t.Errorf("put %s: %v", k, err)
					return
				}
				if got := resp.Metas[0].Version; got != int64(seq[slot]) {
					t.Errorf("put %s acked version %d, want %d", k, got, seq[slot])
					return
				}
			}
		}(w, conn)
	}
	for r := 0; r < readers; r++ {
		conn, err := DialNode(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		wg.Add(1)
		go func(r int, conn *Conn) {
			defer wg.Done()
			keys := make([]string, 0, writers*keySpan)
			for w := 0; w < writers; w++ {
				for s := 0; s < keySpan; s++ {
					keys = append(keys, fmt.Sprintf("w%d-k%d", w, s))
				}
			}
			for !stop.Load() {
				resp, err := conn.Call(Request{Op: OpGet, Table: "t", Keys: keys})
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				for i, v := range resp.Values {
					ver := resp.Metas[i].Version
					if ver == 0 {
						if v != nil {
							t.Errorf("key %s: version 0 with value %q", keys[i], v)
							return
						}
						continue
					}
					got, err := strconv.Atoi(string(v))
					if err != nil || int64(got) != ver {
						t.Errorf("key %s: torn read — value %q, version %d", keys[i], v, ver)
						return
					}
				}
			}
		}(r, conn)
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Writers finish on their own; give readers a moment of post-write
	// traffic, then stop them.
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stress goroutines hung")
	}
}

// TestFaultDurableKillRestartRecoversAckedPuts is the live-plane half of
// the durability contract: a data node running the disk engine is killed
// mid-write-storm and restarted on the same data directory, and every put
// the clients saw acknowledged must be readable afterwards. The snapshot
// threshold is tiny so the run crosses several snapshot+truncate cycles,
// and the restart exercises snapshot load + WAL tail replay + re-seeding
// underneath recovered rows. Runs under -race in CI.
func TestFaultDurableKillRestartRecoversAckedPuts(t *testing.T) {
	const (
		writers   = 4
		perWriter = 250
		killAt    = writers * perWriter / 3 // acked puts before the kill
	)
	dir := t.TempDir()
	seeds := map[string][]byte{"seeded": []byte("base")}
	reg := NewRegistry()

	boot := func(addr string) (*Server, *storage.Disk, string) {
		t.Helper()
		eng, err := storage.OpenDisk(dir, storage.DiskOptions{SnapshotBytes: 4 << 10})
		if err != nil {
			t.Fatalf("open engine: %v", err)
		}
		srv := NewServer(reg, false)
		srv.SetEngine(eng)
		srv.AddTable(TableSpec{Name: "t", UDF: "none", Rows: seeds})
		bound, err := srv.Serve(addr)
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
		return srv, eng, bound
	}
	srv, eng, addr := boot("127.0.0.1:0")

	var led history.Ledger
	put := func(conn **Conn, key, val string) bool {
		deadline := time.Now().Add(30 * time.Second)
		for {
			if *conn == nil || (*conn).Down() {
				if *conn != nil {
					(*conn).Close()
				}
				c, err := DialNode(addr, nil)
				if err != nil {
					if time.Now().After(deadline) {
						t.Errorf("redial never succeeded: %v", err)
						return false
					}
					time.Sleep(5 * time.Millisecond)
					continue
				}
				*conn = c
			}
			resp, err := (*conn).Call(Request{Op: OpPut, Table: "t",
				Keys: []string{key}, Params: [][]byte{[]byte(val)}})
			if err == nil {
				led.Ack(key, []byte(val), resp.Metas[0].Version)
				return true
			}
			if time.Now().After(deadline) {
				t.Errorf("put %s never acked: %v", key, err)
				return false
			}
			// Transport failure mid-outage: the put may or may not have
			// landed, so it is not acked — retry (the duplicate just
			// bumps the version again).
			time.Sleep(2 * time.Millisecond)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var conn *Conn
			defer func() {
				if conn != nil {
					conn.Close()
				}
			}()
			for i := 1; i <= perWriter; i++ {
				k := fmt.Sprintf("w%d-k%d", w, i%10)
				if !put(&conn, k, fmt.Sprintf("w%d-seq%d", w, i)) {
					return
				}
			}
		}(w)
	}

	// Kill the node mid-storm and restart it on the same directory and
	// address. Writers ride out the outage through their redial loop.
	for led.Acked() < killAt {
		time.Sleep(time.Millisecond)
	}
	srv.Close()
	eng.Close()
	var eng2 *storage.Disk
	srv, eng2, _ = boot(addr)
	defer srv.Close()
	defer eng2.Close()

	st := eng2.Stats()
	if st.RecoveredRows == 0 && st.ReplayedRecords == 0 {
		t.Fatalf("restart recovered nothing (stats %+v) with %d puts acked", st, led.Acked())
	}
	wg.Wait()

	// Every acknowledged put must be readable after recovery: same value
	// at its acked version, or a newer version (the key's writer went on
	// writing after the ack, or a failed-then-retried put landed twice).
	conn, err := DialNode(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	vs := led.Audit(nodeReader(conn, "t"))
	for _, v := range vs {
		t.Error(v)
	}
	if len(vs) == 0 {
		t.Logf("durability held: %d acked puts, %d keys readable after kill+restart (recovered %d snapshot rows + %d WAL records)",
			led.Acked(), led.Keys(), st.RecoveredRows, st.ReplayedRecords)
	}
	if v, _, _ := readRow(t, conn, "seeded"); string(v) != "base" {
		t.Errorf("seed row missing after restart: %q", v)
	}
}

// nodeReader reads a table's rows straight off one node, for
// history.Ledger.Audit.
func nodeReader(conn *Conn, table string) func(key string) ([]byte, int64, error) {
	return func(key string) ([]byte, int64, error) {
		resp, err := conn.Call(Request{Op: OpGet, Table: table, Keys: []string{key}})
		if err != nil {
			return nil, 0, err
		}
		return resp.Values[0], resp.Metas[0].Version, nil
	}
}

func readRow(t *testing.T, conn *Conn, key string) ([]byte, int64, bool) {
	t.Helper()
	resp, err := conn.Call(Request{Op: OpGet, Table: "t", Keys: []string{key}})
	if err != nil {
		t.Fatalf("get %s: %v", key, err)
	}
	return resp.Values[0], resp.Metas[0].Version, resp.Values[0] != nil
}
