package main

import (
	"fmt"

	"joinopt/internal/core"
)

// standardSeconds is the run length the op counts below are sized for;
// -seconds scales every count by seconds/standardSeconds.
const standardSeconds = 30

// workloadDef is one benchmark workload: a repetition runner and the input
// the layer probes replay.
type workloadDef struct {
	name string
	// reps is R, the measured repetitions of a run (one more, the first, is
	// run and discarded), unless -reps overrides it.
	reps int
	// rep runs one repetition at the given scale. workDir is a scratch
	// directory inside the checkout; tr is nil except in the traced
	// repetition.
	rep func(seed int64, scale float64, workDir string, tr *tracer) (repResult, error)
	// probe returns the workload's own seeded key stream and configuration
	// for the per-layer probes.
	probe func(seed int64) probeInput
}

// The three live workloads. Op counts are constants, never durations.
var (
	wireExec = liveSpec{
		name:  "wire_exec",
		nodes: 2, connsPerNode: 1,
		optimizer: core.Config{Policy: core.Policy{AlwaysCompute: true}},
		udf:       "tag",
		keys:      4096, valueSize: 1024,
		submitters: 2, window: 256,
		warmOps: 2_000, closedOps: 800_000, openOps: 45_000,
		rate: 30_000, limitMs: 10,
		valid: func(c liveCounts) error {
			if c.localHits != 0 || c.fetches != 0 {
				return fmt.Errorf("every op must be a remote exec: %d local hits, %d fetches", c.localHits, c.fetches)
			}
			return nil
		},
	}

	zipfCache = liveSpec{
		name:  "zipf_cache",
		nodes: 2, connsPerNode: 1,
		balanced: true,
		// The memory tier holds about a tenth of the 50k keys: the working
		// set is larger than the cache. The disk tier is sized to hold
		// nothing (0 would mean unbounded): promoting a disk-tier hit drops
		// the cached value (core.Route passes CondCacheInMemory a nil value)
		// and the executor then panics on the empty entry, so a live
		// workload cannot let anything spill there until that is fixed.
		optimizer: core.Config{
			Policy:         core.Policy{Caching: true},
			MemCacheBytes:  5000 * 256,
			DiskCacheBytes: 1,
		},
		udf:  "fnvtag",
		keys: 50_000, valueSize: 256,
		zipfS: 1.1, putShare: 0.05,
		separateWriter: true,
		cachedReads:    true,
		submitters:     2, window: 256,
		warmOps: 100_000, closedOps: 400_000, openOps: 45_000,
		rate: 30_000, limitMs: 10,
		valid: func(c liveCounts) error {
			hit := ratio(c.localHits, c.reads)
			if hit < 0.70 || hit > 0.97 {
				return fmt.Errorf("local hit ratio %.3f outside [0.70, 0.97]", hit)
			}
			if c.fetches == 0 || c.remoteComputed == 0 {
				return fmt.Errorf("both decision arms must be taken: %d fetches, %d remote computes", c.fetches, c.remoteComputed)
			}
			return nil
		},
	}

	putDisk = liveSpec{
		name:  "put_disk",
		nodes: 1, connsPerNode: 2,
		disk:      true,
		optimizer: core.Config{Policy: core.Policy{AlwaysCompute: true}},
		udf:       "fnvtag",
		keys:      10_000, valueSize: 256,
		putShare: 0.8, readRecent: true,
		preloadPuts: 50_000,
		submitters:  2, window: 64, syncPuts: true,
		warmOps: 2_000, closedOps: 120_000, openOps: 15_000,
		rate: 10_000, limitMs: 5,
		valid: func(c liveCounts) error {
			if c.disk.Snapshots < 3 {
				return fmt.Errorf("%d snapshots in the repetition, want at least 3", c.disk.Snapshots)
			}
			if c.disk.RecoveredRows == 0 || c.disk.ReplayedRecords == 0 {
				return fmt.Errorf("reopen recovered %d snapshot rows and replayed %d WAL records; both must be positive",
					c.disk.RecoveredRows, c.disk.ReplayedRecords)
			}
			if c.localHits != 0 {
				return fmt.Errorf("%d reads were served from the client cache", c.localHits)
			}
			return nil
		},
	}
)

func liveWorkload(spec liveSpec) workloadDef {
	return workloadDef{
		name: spec.name,
		reps: 5,
		rep: func(seed int64, scale float64, workDir string, tr *tracer) (repResult, error) {
			return runLiveRep(spec.scaled(scale), seed, workDir, tr)
		},
		probe: func(seed int64) probeInput {
			// The op stream is drawn in order, so a spec cut down to the
			// first probeOps ops generates exactly the run's prefix.
			head := spec
			head.warmOps, head.closedOps, head.openOps = probeOps, 0, 0
			in := head.generate(seed)
			p := probeInput{valueSize: spec.valueSize, disk: spec.disk, optimizer: spec.optimizer,
				zipfS: spec.zipfS, nkeys: spec.keys}
			for _, o := range in.ops {
				p.keys = append(p.keys, in.keyNames[o.key])
				p.puts = append(p.puts, o.put)
			}
			return p
		},
	}
}

var workloads = []workloadDef{
	liveWorkload(wireExec),
	liveWorkload(zipfCache),
	liveWorkload(putDisk),
	simPaper,
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
