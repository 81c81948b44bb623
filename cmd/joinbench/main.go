// Command joinbench regenerates the paper's evaluation figures on the
// simulated cluster and prints them as tables, and can also benchmark the
// live plane end to end.
//
// Usage:
//
//	joinbench -fig 8a              # one figure
//	joinbench -fig all -tuples 30000
//	joinbench -live                # live-plane throughput over real TCP
//	joinbench -live -liveops 200000 -livenodes 3
//	joinbench -live -liveclients 8 -liveshards 0
//	joinbench -live -livecancel 0.2   # cancel 20% mid-flight
//	joinbench -live -cpuprofile cpu.out -memprofile mem.out
//	joinbench -livedurable                 # disk-engine kill/restart drill
//	joinbench -livedurable -liveops 20000 -livedir /tmp/dur -livefsync
//	joinbench -livereplicas 3              # kill-one-replica failover drill
//	joinbench -liverate 20000 -liveops 40000   # open-loop overload drill
//	joinbench -livemigrate                 # elastic-membership migration drill
//
// -liveclients N drives the one executor from N concurrent submitter
// goroutines (the parallel-Submit scaling axis); -liveshards sets the
// executor's state striping (0 = GOMAXPROCS, 1 = single global lock).
// -livecancel P submits that fraction of ops under contexts canceled right
// after submission and reports the completed/canceled/failed split plus how
// many UDF executions the store nodes skipped on cancel frames.
// -cpuprofile/-memprofile write pprof profiles of the run (most useful
// with -live to diagnose hot-path regressions straight from the CLI,
// without writing a test harness).
//
// -livedurable runs the durability drill instead: one store node on the
// disk storage engine (WAL + snapshots under -livedir, or a temp dir) takes
// a put storm, is killed and restarted on the same data directory mid-run,
// and every acknowledged put is verified readable afterwards. Exits 1 if
// any acked put is lost. -livefsync syncs the WAL at each acknowledgment
// barrier (the machine-crash setting; slower, same process-kill result).
//
// -livereplicas R runs the replication drill: R store nodes serve one table
// replicated R ways, concurrent quorum puts and failover reads ride out one
// node being killed mid-run, and the node is restarted and caught up from
// the survivors. Exits 1 if any read failure reached a caller or any
// acknowledged put is missing after rejoin. Needs R >= 3 (a surviving
// majority).
//
// -liverate N runs the overload drill: ops arrive open-loop at N/sec against
// one deliberately capacity-bounded store node (small bounded exec queue,
// slow UDF), with every eighth op PriorityHigh. Every op must resolve as
// either served or a typed CodeOverloaded shed; the report shows the
// served/shed split per priority class and p50/p99 latency of served ops.
// Exits 1 on any opaque timeout, untyped failure, or hang.
//
// -livemigrate runs the elastic-membership drill: a second store node joins
// a running single-node cluster mid-put-storm, every partition of the
// served table migrates to it through the fenced live handoff while
// concurrent puts and mixed-route reads keep running against a client whose
// membership map is deliberately stale (so every ownership change must
// reach it as a CodeMoved redirect), and the old owner is then removed.
// Exits 1 on any caller-visible read failure or wrong answer, any
// acknowledged put missing from the new owner when the migration returns
// or lost at the end, any stale post-migration read, or a run in which no
// redirect was exercised.
//
// Every drill ends its report with one verdict line,
//
//	<drill> drill: PASS: <what held>
//	<drill> drill: FAIL: <each broken rule, separated by "; ">
//
// <drill> being durability, replication, overload or migration. A FAIL line
// is repeated on standard error and the command exits 1, after its cleanup
// (profiles, the durability drill's temp directory) has run; a drill that
// cannot start (-livereplicas below 3, a node that will not boot) exits 1
// with no verdict. The durability, replication and migration drills audit
// every acknowledged put against one history.Ledger and print each one the
// cluster failed to serve back, before the verdict, as
//
//	<LOST|DIVERGED|STALE|UNREADABLE> acked put <key> (v<acked> "<value>"): <what was read>
//
// Figures: 5, 6, 7, 8a, 8b, 8c, 9, 11a, 11b, 11c, all.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"joinopt/internal/bench"
)

func main() { os.Exit(run()) }

// run is the command; it returns the exit status, so every deferred
// cleanup (profiles, a drill's temp directory) has run before the exit.
func run() (code int) {
	fig := flag.String("fig", "all", "figure to reproduce: 5, 6, 7, 8a, 8b, 8c, 9, 11a, 11b, 11c, all")
	tuples := flag.Int("tuples", 0, "input size per run (0 = per-figure default)")
	seed := flag.Int64("seed", 1, "workload RNG seed")
	verbose := flag.Bool("v", false, "log every run to stderr, in run order, once its figure's runs have finished")
	liveBench := flag.Bool("live", false, "benchmark the live plane end to end instead of reproducing figures")
	liveDurable := flag.Bool("livedurable", false, "run the disk-engine kill/restart durability drill instead of reproducing figures")
	liveDir := flag.String("livedir", "", "durability drill: data directory for the WAL and snapshots (empty = temp dir)")
	liveFsync := flag.Bool("livefsync", false, "durability drill: fsync the WAL at every acknowledgment barrier")
	liveReplicas := flag.Int("livereplicas", 0, "run the kill-one-replica drill with this replica factor (>= 3) instead of reproducing figures")
	liveRate := flag.Int("liverate", 0, "run the open-loop overload drill at this arrival rate (ops/sec) instead of reproducing figures")
	liveMigrate := flag.Bool("livemigrate", false, "run the elastic-membership live-migration drill instead of reproducing figures")
	liveOps := flag.Int("liveops", 100000, "live bench: join invocations")
	liveNodes := flag.Int("livenodes", 1, "live bench: store nodes")
	liveClients := flag.Int("liveclients", 1, "live bench: concurrent submitter goroutines on the one executor (parallel-Submit scaling)")
	liveShards := flag.Int("liveshards", 0, "live bench: executor state shards (0 = GOMAXPROCS, 1 = single global lock)")
	liveRetries := flag.Int("liveretries", 0, "live bench: max transport-error retries per request (0 = default 2, negative = disabled)")
	liveTimeout := flag.Duration("livetimeout", 0, "live bench: per-request deadline (0 or negative = default 10s)")
	liveCancel := flag.Float64("livecancel", 0, "live bench: fraction (0..1) of in-flight ops to cancel via context; reports completed/canceled/failed split")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile of the run to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err) // nothing to clean up yet
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Printf("memprofile: %v", err)
				code = 1
				return
			}
			defer f.Close()
			runtime.GC() // flush the final allocation stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("memprofile: %v", err)
				code = 1
			}
		}()
	}

	var err error
	switch {
	case *liveDurable:
		err = runLiveDurable(os.Stdout, *liveOps, *liveDir, *liveFsync)
	case *liveReplicas > 0:
		err = runLiveReplicas(os.Stdout, *liveOps, *liveReplicas)
	case *liveRate > 0:
		err = runLiveOverload(os.Stdout, *liveRate, *liveOps)
	case *liveMigrate:
		err = runLiveMigrate(os.Stdout, *liveOps)
	case *liveBench:
		err = runLiveBench(os.Stdout, *liveOps, *liveNodes, *liveClients, *liveShards,
			*liveRetries, *liveTimeout, *liveCancel)
	default:
		var progress io.Writer
		if *verbose {
			progress = os.Stderr
		}
		return figures(*fig, bench.Options{Tuples: *tuples, Seed: *seed, Out: progress})
	}
	if err != nil {
		log.Print(err)
		return 1
	}
	return 0
}

// figures prints one paper figure, or all of them, and returns the exit
// status: 2 for an unknown figure.
func figures(fig string, o bench.Options) int {
	if !bench.Figure(os.Stdout, fig, o) {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", fig)
		return 2
	}
	if fig != "all" {
		fmt.Println() // "all" ends every figure with a blank line itself
	}
	return 0
}
