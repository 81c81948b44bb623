// Command storeserver runs one standalone store node over TCP: a
// key-value shard with server-side UDF execution (coprocessor) and the
// Section 5 load balancer. It serves a synthetic demo table; a real
// deployment embeds internal/live.Server with its own tables and UDFs.
//
// By default rows live in memory and die with the process. With
// -engine disk the node persists every acknowledged put to a write-ahead
// log under -data-dir, compacts it into snapshots as it grows, and
// recovers the table on restart (snapshot load + WAL tail replay), so a
// kill-and-restart on the same directory loses nothing that was acked.
// -fsync additionally syncs the WAL on every acknowledgment barrier,
// extending the guarantee from process crashes to machine crashes.
//
// A node rejoining a replicated deployment catches up before it serves:
// -peers lists surviving replicas' addresses, and the node scans their
// tables (paged, versioned, set-if-newer) so every write replicated while
// it was down is applied locally first. -join goes further: the node is a
// NEW cluster member, so it skips the synthetic seed rows entirely and
// starts from whatever the peers hold — the membership map (and a
// subsequent live migration) decides what it will own.
//
// Shutdown is graceful: SIGTERM (or SIGINT) stops the listener, lets
// in-flight requests finish for up to -drain, then exits — a drained node
// never drops a request it already accepted. -drain 0 exits immediately.
//
// Admission control is always on: each op class (exec/put/fetch) runs
// behind a bounded run queue with weighted-fair priority dequeue, and
// arrivals past the bound are shed immediately with a typed overload error
// carrying a retry-after hint. -exec-queue/-put-queue/-fetch-queue size the
// queues and -exec-workers/-put-workers/-fetch-workers size the worker
// pools (0 = built-in defaults sized from GOMAXPROCS); -exec-workers is
// also the ceiling on UDFs the node runs at once, across all batches.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"joinopt/internal/live"
	"joinopt/internal/storage"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is main with its dependencies injected so the subprocess smoke test
// can drive it: args are the CLI arguments, ready (if non-nil) receives
// the bound listen address once the server is accepting, and the return
// value is the process exit code. The server runs until SIGINT/SIGTERM.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("storeserver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7070", "listen address")
	table := fs.String("table", "demo", "table name to serve")
	rows := fs.Int("rows", 10000, "synthetic rows to load")
	balanced := fs.Bool("balanced", true, "enable compute/data load balancing")
	engineName := fs.String("engine", "mem", "storage engine: mem (volatile) or disk (WAL + snapshots)")
	dataDir := fs.String("data-dir", "", "disk engine: data directory (required with -engine disk)")
	fsync := fs.Bool("fsync", false, "disk engine: fsync the WAL at every acknowledgment barrier")
	peers := fs.String("peers", "", "comma-separated replica addresses to catch up from before serving")
	join := fs.Bool("join", false, "join as a new member: skip seed rows, catch up from -peers, serve")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown budget: finish in-flight requests for up to this long on SIGTERM")
	execQueue := fs.Int("exec-queue", 0, "bounded run queue depth for exec ops (0 = default)")
	putQueue := fs.Int("put-queue", 0, "bounded run queue depth for put ops (0 = default)")
	fetchQueue := fs.Int("fetch-queue", 0, "bounded run queue depth for fetch/get ops (0 = default)")
	execWorkers := fs.Int("exec-workers", 0, "UDFs the node runs at once; also the exec batches in service (0 = default)")
	putWorkers := fs.Int("put-workers", 0, "worker goroutines draining the put queue (0 = default)")
	fetchWorkers := fs.Int("fetch-workers", 0, "worker goroutines draining the fetch queue (0 = default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logger := log.New(stderr, "", log.LstdFlags)

	engine, err := storage.ParseEngine(*engineName)
	if err != nil {
		logger.Print(err)
		return 2
	}

	reg := live.NewRegistry()
	reg.Register("identity", live.Identity)
	reg.Register("tag", func(key string, params, value []byte) []byte {
		out := append([]byte{}, value...)
		out = append(out, '#')
		return append(out, params...)
	})

	srv := live.NewServer(reg, *balanced)
	srv.SetAdmission(live.AdmissionConfig{
		ExecQueue: *execQueue, PutQueue: *putQueue, FetchQueue: *fetchQueue,
		ExecWorkers: *execWorkers, PutWorkers: *putWorkers, FetchWorkers: *fetchWorkers,
	})
	var disk *storage.Disk
	if engine == "disk" {
		if *dataDir == "" {
			logger.Print("storeserver: -engine disk requires -data-dir")
			return 2
		}
		disk, err = storage.OpenDisk(*dataDir, storage.DiskOptions{Fsync: *fsync})
		if err != nil {
			logger.Printf("storeserver: open disk engine: %v", err)
			return 1
		}
		defer disk.Close()
		srv.SetEngine(disk)
	}

	// Seed rows are the synthetic baseline; on a disk restart, recovered
	// puts (version ≥ 1) win over these (version 0) per the engine's
	// seed-only-if-absent rule. A -join node seeds nothing: it is a fresh
	// member whose rows arrive by catch-up and migration, and synthetic
	// seeds would shadow neither but would waste memory it never owns.
	data := map[string][]byte{}
	if !*join {
		data = make(map[string][]byte, *rows)
		for i := 0; i < *rows; i++ {
			data[fmt.Sprintf("k%08d", i)] = []byte(fmt.Sprintf("row-%d", i))
		}
	}
	srv.AddTable(live.TableSpec{Name: *table, UDF: "tag", Rows: data})

	if *join && *peers == "" {
		logger.Print("storeserver: -join requires -peers to catch up from")
		return 2
	}
	if *peers != "" {
		// Rejoin: replicate everything the peers accepted while this node
		// was down, before any client can read from it. One complete peer
		// copy per table is enough; seeds (version 0) are re-seeded above,
		// so the scan only carries real puts.
		applied, err := srv.CatchUp(strings.Split(*peers, ","))
		if err != nil {
			logger.Printf("storeserver: catch-up from %s failed: %v", *peers, err)
			return 1
		}
		logger.Printf("storeserver: caught up from %s (%d rows applied)", *peers, applied)
	}

	bound, err := srv.Serve(*addr)
	if err != nil {
		logger.Print(err)
		return 1
	}
	defer srv.Close()
	logger.Printf("storeserver: serving table %q (%d rows, balanced=%v, engine=%s) on %s",
		*table, *rows, *balanced, engine, bound)
	if disk != nil {
		st := disk.Stats()
		logger.Printf("storeserver: disk engine at %s (recovered %d snapshot rows, replayed %d WAL records, dropped %d torn bytes)",
			*dataDir, st.RecoveredRows, st.ReplayedRecords, st.TornTailBytes)
	}
	// The bound address goes to stdout (logs go to stderr) so scripts and
	// the smoke test can parse it when -addr ends in :0.
	fmt.Fprintln(stdout, bound)
	if ready != nil {
		ready <- bound
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// Graceful drain: stop accepting, let accepted requests finish within
	// the -drain budget, then close. A client whose connection dies
	// mid-drain sees a transport error and retries elsewhere; a request the
	// server already read off the wire gets its answer.
	idle := srv.Drain(*drain)
	if !idle {
		logger.Printf("storeserver: drain timed out after %v with requests still in flight", *drain)
	}
	logger.Printf("storeserver: %d gets, %d execs (%d bounced), %d puts, %d shed",
		srv.Gets.Load(), srv.Execs.Load(), srv.Bounced.Load(), srv.Puts.Load(), srv.Shed.Load())
	if !idle {
		return 1
	}
	return 0
}
