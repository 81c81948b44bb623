package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"

	"joinopt"
	"joinopt/internal/cache"
	"joinopt/internal/cluster"
	"joinopt/internal/core"
	"joinopt/internal/costmodel"
	"joinopt/internal/freq"
	"joinopt/internal/live"
	"joinopt/internal/loadbalance"
	"joinopt/internal/membership"
	"joinopt/internal/sim"
	"joinopt/internal/skirental"
	"joinopt/internal/storage"
	"joinopt/internal/store"
	"joinopt/internal/workload"
)

// perLayerDefs are the ungated metrics the traced run prints. Timings are
// self times of benchmark-side spans around calls into each layer's
// exported functions, replaying the workload's own seeded key stream;
// counts come from exported counters. A metric a workload does not exercise
// reads 0.
var perLayerDefs = []metricDef{
	{"workload.zipf_next_ns", "ns"}, {"workload.synth_tuple_ns", "ns"},

	{"core.route_ns", "ns"}, {"core.on_response_ns", "ns"}, {"core.on_fetched_ns", "ns"},
	{"core.route_local_share", "ratio"}, {"core.route_compute_share", "ratio"}, {"core.route_fetch_share", "ratio"},
	{"skirental.decide_ns", "ns"},
	{"freq.observe_ns", "ns"}, {"freq.tracked_keys", "count"},
	{"costmodel.params_ns", "ns"},
	{"cache.get_ns", "ns"}, {"cache.admit_ns", "ns"}, {"cache.invalidate_ns", "ns"},
	{"cache.hit_ratio", "ratio"}, {"cache.mem_evictions", "count"},

	{"loadbalance.solve_exact_b64_ns", "ns"}, {"loadbalance.replica_pick_ns", "ns"},
	{"store.locate_ns", "ns"}, {"membership.owner_for_key_ns", "ns"},

	{"live.submit_ns", "ns"}, {"live.wait_us", "us"}, {"live.put_us", "us"}, {"live.dial_ms", "ms"},
	{"live.local_hit_ratio", "ratio"}, {"live.remote_computed_ratio", "ratio"},
	{"live.remote_raw_ratio", "ratio"}, {"live.fetch_served_ratio", "ratio"},
	{"live.fetches_per_op", "ratio"}, {"live.keys_per_wire_batch", "ratio"},
	{"live.retries", "count"}, {"live.shed", "count"}, {"live.moved", "count"},

	{"live.conn_call_k1_us", "us"}, {"live.pool_call_b64_us", "us"}, {"live.pool_get_b64_us", "us"},
	{"live.pool_put_k1_us", "us"}, {"live.server_queue_us", "us"}, {"live.server_service_us", "us"},
	{"live.wire_overhead_us", "us"}, {"live.server_bounced_ratio", "ratio"},

	{"storage.mem_get_ns", "ns"}, {"storage.mem_put_ns", "ns"},
	{"storage.disk_put_ns", "ns"}, {"storage.disk_get_ns", "ns"},
	{"storage.disk_flush_b64_us", "us"}, {"storage.disk_snapshot_ms", "ms"}, {"storage.disk_reopen_ms", "ms"},
	{"storage.replayed_records", "count"}, {"storage.snapshots", "count"},
	{"storage.wal_bytes_per_user_byte", "ratio"},

	{"sim.event_ns", "ns"}, {"sim.resource_schedule_ns", "ns"},
	{"exec.job_ms_no", "ms"}, {"exec.job_ms_fo", "ms"}, {"exec.job_ms_p50", "ms"},
	{"exec.sim_tput_no", "1/s"}, {"exec.sim_tput_fd", "1/s"}, {"exec.sim_tput_fr", "1/s"},
	{"exec.sim_tput_co", "1/s"}, {"exec.sim_tput_lo", "1/s"}, {"exec.sim_tput_fo", "1/s"},
	{"exec.fo_vs_best_static", "ratio"}, {"exec.bytes_on_wire_fo", "B"}, {"exec.mem_hits_fo", "count"},

	{"proc.cpu_us_per_op", "us"}, {"proc.gc_cycles", "count"}, {"proc.gc_pause_ms", "ms"},
	{"harness.open_lat_p99_ms", "ms"}, {"harness.open_lat_max_ms", "ms"}, {"harness.gen_lag_p99_ms", "ms"},
	{"harness.closed_ops_per_s", "1/s"}, {"harness.rep_iqr_pct", "%"}, {"harness.trace_overhead_pct", "%"},
}

// probeOps is how many ops of the workload's stream the layer probes
// replay.
const probeOps = 100_000

// probeInput is a workload's own seeded key stream and the configuration
// its layers run under.
type probeInput struct {
	keys      []string
	puts      []bool
	nkeys     int     // size of the key space
	zipfS     float64 // skew of the stream
	valueSize int
	disk      bool // the workload's servers run the disk engine
	optimizer core.Config
}

// sink keeps the optimizer from discarding a probed call's result.
var sink float64

// spanBatch is how many calls of a nanosecond-scale function one span
// covers.
const spanBatch = 1024

// batched times fn(i) for i in [0, n) in spans of spanBatch calls.
func batched(tr *tracer, name string, n int, fn func(i int)) {
	for lo := 0; lo < n; lo += spanBatch {
		hi := min(lo+spanBatch, n)
		t0 := nowNs()
		for i := lo; i < hi; i++ {
			fn(i)
		}
		tr.add(name, t0, nowNs(), 0, 0, int32(hi-lo))
	}
}

// timed records one span around fn.
func timed(tr *tracer, name string, n int, fn func()) {
	t0 := nowNs()
	fn()
	tr.add(name, t0, nowNs(), 0, 0, int32(n))
}

// spanPerCall maps a per-layer metric to the probe span it is the per-call
// self time of, and the divisor from nanoseconds to the metric's unit.
var spanPerCall = []struct {
	metric, span string
	div          float64
}{
	{"workload.zipf_next_ns", "workload.zipf_next", 1},
	{"workload.synth_tuple_ns", "workload.synth_tuple", 1},
	{"core.route_ns", "core.route", 1},
	{"core.on_response_ns", "core.on_response", 1},
	{"core.on_fetched_ns", "core.on_fetched", 1},
	{"skirental.decide_ns", "skirental.decide", 1},
	{"freq.observe_ns", "freq.observe", 1},
	{"costmodel.params_ns", "costmodel.params", 1},
	{"cache.get_ns", "cache.get", 1},
	{"cache.admit_ns", "cache.admit", 1},
	{"cache.invalidate_ns", "cache.invalidate", 1},
	{"loadbalance.solve_exact_b64_ns", "loadbalance.solve_exact_b64", 1},
	{"loadbalance.replica_pick_ns", "loadbalance.replica_pick", 1},
	{"store.locate_ns", "store.locate", 1},
	{"membership.owner_for_key_ns", "membership.owner_for_key", 1},
	{"live.conn_call_k1_us", "live.conn_call_k1", 1e3},
	{"live.pool_call_b64_us", "live.pool_call_b64", 1e3},
	{"live.pool_get_b64_us", "live.pool_get_b64", 1e3},
	{"live.pool_put_k1_us", "live.pool_put_k1", 1e3},
	{"storage.mem_get_ns", "storage.mem_get", 1},
	{"storage.mem_put_ns", "storage.mem_put", 1},
	{"storage.disk_put_ns", "storage.disk_put", 1},
	{"storage.disk_get_ns", "storage.disk_get", 1},
	{"storage.disk_flush_b64_us", "storage.disk_flush_b64", 1e3},
	{"storage.disk_snapshot_ms", "storage.disk_snapshot", 1e6},
	{"storage.disk_reopen_ms", "storage.disk_reopen", 1e6},
	{"sim.event_ns", "sim.event", 1},
	{"sim.resource_schedule_ns", "sim.resource_schedule", 1},
}

// spanMetrics fills in the metrics that are read off the recorded spans:
// per-call self times of the probes, and the medians of the traced
// repetition's live.submit, live.wait and live.put spans.
func spanMetrics(tr *tracer, vals map[string]float64) {
	self, calls := tr.selfTimes()
	for _, m := range spanPerCall {
		v := 0.0
		if calls[m.span] > 0 {
			v = self[m.span] / calls[m.span] / m.div
		}
		vals[m.metric] = v
	}
	vals["live.submit_ns"] = median(tr.durations("live.submit"))
	vals["live.wait_us"] = median(tr.durations("live.wait")) / 1e3
	vals["live.put_us"] = median(tr.durations("live.put")) / 1e3
}

// runProbes runs every layer probe over the workload's key stream,
// recording spans in tr and counts in vals.
func runProbes(in probeInput, seed int64, scale float64, workDir string, tr *tracer, vals map[string]float64) error {
	if len(in.keys) > probeOps {
		in.keys, in.puts = in.keys[:probeOps], in.puts[:probeOps]
	}
	probeWorkload(in, seed, scale, tr, vals)
	probeCore(in, tr, vals)
	probeDecision(in, tr, vals)
	probeCache(in, tr)
	probePlacement(in, tr)
	probeSim(tr)
	if err := probeWire(in, workDir, tr, vals); err != nil {
		return fmt.Errorf("wire: %w", err)
	}
	if err := probeStorage(in, workDir, tr, vals); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	return nil
}

// probeWorkload times the key generators and, with the tuples it drew, runs
// the six simulated strategies at skew 1.0 for the exec.* outcomes.
func probeWorkload(in probeInput, seed int64, scale float64, tr *tracer, vals map[string]float64) {
	z := workload.NewZipf(rand.New(rand.NewSource(seed)), in.zipfS, in.nkeys)
	batched(tr, "workload.zipf_next", 1<<16, func(int) { sink += float64(z.Next()) })

	tuples := max(500, int(simTuples*scale))
	syn := workload.NewSynth(workload.DataComputeHeavy, tuples, 1.0, seed)
	src := syn.Source()
	ts := make([]joinopt.SimTuple, 0, tuples)
	timed(tr, "workload.synth_tuple", tuples, func() {
		for t, ok := src.Next(); ok; t, ok = src.Next() {
			ts = append(ts, t)
		}
	})

	jobs := runSimJobs(syn, seed, []float64{1.0}, [][]joinopt.SimTuple{ts}, tr)
	bestStatic := 0.0
	var fo simJob
	var wallMs []float64
	for _, j := range jobs {
		wallMs = append(wallMs, j.wallMs)
		name := simName(j.strategy)
		vals["exec.sim_tput_"+name] = j.report.Throughput
		switch name {
		case "no", "fd", "fr":
			bestStatic = max(bestStatic, j.report.Throughput)
		case "fo":
			fo = j
		}
		if name == "no" || name == "fo" {
			vals["exec.job_ms_"+name] = j.wallMs
		}
	}
	vals["exec.job_ms_p50"] = median(wallMs)
	vals["exec.fo_vs_best_static"] = fo.report.Throughput / bestStatic
	vals["exec.bytes_on_wire_fo"] = float64(fo.report.BytesOnWire)
	vals["exec.mem_hits_fo"] = float64(fo.report.MemHits)
}

// probeCore replays the stream through a fresh optimizer the way an
// executor does — a batch of routing decisions, then the responses they
// caused — single-threaded, so its counters repeat exactly for a seed.
func probeCore(in probeInput, tr *tracer, vals map[string]float64) {
	const batch = 64 // the executors' wire batch size
	opt := core.New(in.optimizer)
	versions := map[string]int64{}
	value := make([]byte, in.valueSize)
	var computes, fetchKeys []string
	var fetchMem []bool
	for lo := 0; lo < len(in.keys); lo += batch {
		hi := min(lo+batch, len(in.keys))
		computes, fetchKeys, fetchMem = computes[:0], fetchKeys[:0], fetchMem[:0]
		var reads []string
		for i := lo; i < hi; i++ {
			if in.puts[i] {
				versions[in.keys[i]]++
				opt.Invalidate(in.keys[i], versions[in.keys[i]])
			} else {
				reads = append(reads, in.keys[i])
			}
		}
		timed(tr, "core.route", len(reads), func() {
			for _, k := range reads {
				switch opt.Route(k, 1e9) {
				case core.RouteCompute:
					computes = append(computes, k)
				case core.RouteDataMem:
					fetchKeys, fetchMem = append(fetchKeys, k), append(fetchMem, true)
				case core.RouteDataDisk:
					fetchKeys, fetchMem = append(fetchKeys, k), append(fetchMem, false)
				}
			}
		})
		timed(tr, "core.on_response", len(computes), func() {
			for _, k := range computes {
				opt.OnComputeResponse(core.ResponseMeta{Key: k, ValueSize: int64(in.valueSize),
					ComputedSize: 37, ComputeCost: 2e-6, Version: versions[k]})
			}
		})
		timed(tr, "core.on_fetched", len(fetchKeys), func() {
			for i, k := range fetchKeys {
				opt.OnValueFetched(k, int64(in.valueSize), versions[k], value, fetchMem[i])
			}
		})
	}
	st, cs := opt.Stats(), opt.Cache.Stats()
	vals["core.route_local_share"] = ratio(st.LocalMem+st.LocalDisk, st.Routed)
	vals["core.route_compute_share"] = ratio(st.ComputeReqs, st.Routed)
	vals["core.route_fetch_share"] = ratio(st.DataReqs+st.NoCacheReqs, st.Routed)
	vals["cache.hit_ratio"] = ratio(cs.MemHits+cs.DiskHits, cs.MemHits+cs.DiskHits+cs.Misses)
	vals["cache.mem_evictions"] = float64(cs.EvictToDisk)
}

// probeDecision times the pieces Route is made of: the frequency counter,
// the cost model, the ski-rental rule and the Section 5 balancer.
func probeDecision(in probeInput, tr *tracer, vals map[string]float64) {
	if in.optimizer.Epsilon > 0 {
		c := freq.NewLossy(in.optimizer.Epsilon)
		batched(tr, "freq.observe", len(in.keys), func(i int) { sink += float64(c.Observe(in.keys[i])) })
		vals["freq.tracked_keys"] = float64(c.Tracked())
	} else {
		c := freq.NewExact()
		batched(tr, "freq.observe", len(in.keys), func(i int) { sink += float64(c.Observe(in.keys[i])) })
		vals["freq.tracked_keys"] = float64(c.Distinct())
	}

	model := costmodel.NewModel(costmodel.DefaultAlpha)
	var p costmodel.Params
	batched(tr, "costmodel.params", 1<<16, func(i int) {
		p = model.Params(1e9, float64(in.valueSize), 2e-6*float64(1+i%4), 2e-6)
		sink += p.TCompute() + p.TFetch()
	})
	costs := skirental.Costs{Rent: p.TCompute(), Buy: p.TFetch(), RecurMem: p.TRecMem(), RecurDisk: p.TRecDisk()}
	batched(tr, "skirental.decide", 1<<16, func(i int) {
		sink += float64(skirental.Decide(costs, 1+i%32, i%2 == 0))
	})

	sz := loadbalance.Sizes{SK: 16, SP: 256, SV: float64(in.valueSize), SCV: 256}
	batched(tr, "loadbalance.solve_exact_b64", 1<<14, func(i int) {
		cs := loadbalance.ComputeStats{PendingLocal: i % 97, OutstandingOther: i % 53, TCC: 2e-6, NetBw: 1e9}
		ds := loadbalance.DataStats{PendingComputeReqs: 64 + i%211, ComputedAtData: i % 64, TCD: 3e-6, NetBw: 1e9}
		d, _ := loadbalance.Build(cs, ds, sz, 64).SolveExact()
		sink += float64(d)
	})
	rt := loadbalance.NewReplicaTracker()
	nodes := []int{0, 1, 2}
	for _, n := range nodes {
		rt.Observe(n, 1e-4*float64(3-n))
	}
	batched(tr, "loadbalance.replica_pick", 1<<16, func(int) { sink += float64(rt.Pick(nodes, nil)) })
}

// probeCache drives a two-tier cache of the workload's budgets directly:
// admit the stream, look it up, invalidate it.
func probeCache(in probeInput, tr *tracer) {
	mem := in.optimizer.MemCacheBytes
	if mem <= 0 {
		mem = core.DefaultMemCacheBytes
	}
	c := cache.New(mem, in.optimizer.DiskCacheBytes)
	value := make([]byte, in.valueSize)
	size := int64(in.valueSize)
	batched(tr, "cache.admit", len(in.keys), func(i int) {
		c.UpdateBenefit(in.keys[i], 1e-5)
		if !c.CondCacheInMemory(in.keys[i], size, value, true) {
			c.AddToDisk(in.keys[i], size, value)
		}
	})
	batched(tr, "cache.get", len(in.keys), func(i int) {
		if _, _, ok := c.Get(in.keys[i]); ok {
			sink++
		}
	})
	batched(tr, "cache.invalidate", len(in.keys), func(i int) {
		if c.Invalidate(in.keys[i]) {
			sink++
		}
	})
}

// probePlacement times the two placement answers a Submit consults.
func probePlacement(in probeInput, tr *tracer) {
	ids := []cluster.NodeID{0, 1}
	tbl := store.NewTable("t", store.CatalogFunc(func(string) store.RowMeta { return store.RowMeta{} }), 2, ids)
	batched(tr, "store.locate", len(in.keys), func(i int) { sink += float64(tbl.Locate(in.keys[i])) })

	m := membership.NewMap()
	m.AddNode(0, "a")
	m.AddNode(1, "b")
	m.SetTable("t", []cluster.NodeID{0, 1, 0, 1})
	batched(tr, "membership.owner_for_key", len(in.keys), func(i int) {
		n, _ := m.View().OwnerForKey("t", in.keys[i])
		sink += float64(n)
	})
}

// probeSim times the simulator's two primitives: an event through the
// kernel's heap, and a reservation on a multi-server resource.
func probeSim(tr *tracer) {
	const n = 1 << 16
	k := sim.NewKernel()
	rng := rand.New(rand.NewSource(1))
	timed(tr, "sim.event", n, func() {
		for i := 0; i < n; i++ {
			k.At(sim.Time(rng.Float64()), func() { sink++ })
		}
		k.Run()
	})
	k = sim.NewKernel()
	r := sim.NewResource(k, "cpu", 4)
	batched(tr, "sim.resource_schedule", n, func(i int) {
		_, end := r.Schedule(sim.Duration(1e-6*float64(1+i%7)), nil)
		sink += float64(end)
	})
}

// probeRows is how many distinct keys of the stream the wire and storage
// probes load.
const probeRows = 4096

// distinctKeys returns the first probeRows distinct keys of the stream.
func distinctKeys(in probeInput) []string {
	seen := map[string]struct{}{}
	var out []string
	for _, k := range in.keys {
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			out = append(out, k)
			if len(out) == probeRows {
				break
			}
		}
	}
	return out
}

// probeWire drives one store node directly, without an executor: single-key
// and 64-key calls over a bare connection and a one-connection pool. The
// server's queue and service times come back on every response; what is
// left of the call is the codec, the coalescing writer and the loopback.
func probeWire(in probeInput, workDir string, tr *tracer, vals map[string]float64) error {
	keys := distinctKeys(in)
	rows := make(map[string][]byte, len(keys))
	value := bytes.Repeat([]byte("x"), in.valueSize)
	for _, k := range keys {
		rows[k] = value
	}
	srv := live.NewServer(newRegistry(), false, live.WireBinary)
	if in.disk {
		dir, err := os.MkdirTemp(workDir, "probe-wire-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		eng, err := storage.OpenDisk(dir, storage.DiskOptions{})
		if err != nil {
			return err
		}
		defer eng.Close()
		srv.SetEngine(eng)
	}
	srv.SetAdmission(admission)
	srv.AddTable(live.TableSpec{Name: "t", UDF: "tag", Rows: rows})
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()

	conn, err := live.DialNode(addr, nil, live.WireBinary)
	if err != nil {
		return err
	}
	defer conn.Close()
	pool, err := live.DialPool(addr, 1, nil, live.WireBinary)
	if err != nil {
		return err
	}
	defer pool.Close()

	const (
		singles = 2000
		batches = 500
		b       = 64
	)
	one := func(i int, op live.Op, param []byte) live.Request {
		return live.Request{Op: op, Table: "t", Keys: []string{keys[i%len(keys)]}, Params: [][]byte{param}}
	}
	many := func(i int, op live.Op) live.Request {
		req := live.Request{Op: op, Table: "t"}
		for j := 0; j < b; j++ {
			req.Keys = append(req.Keys, keys[(i*b+j)%len(keys)])
			if op == live.OpExec {
				req.Params = append(req.Params, udfParams)
			}
		}
		return req
	}
	for i := 0; i < singles; i++ {
		req := one(i, live.OpExec, udfParams)
		t0 := nowNs()
		if _, err := conn.Call(req); err != nil {
			return err
		}
		tr.add("live.conn_call_k1", t0, nowNs(), 0, int32(i), 1)
	}
	var queueUs, serviceUs, overheadUs []float64
	for i := 0; i < batches; i++ {
		req := many(i, live.OpExec)
		t0 := nowNs()
		resp, err := pool.Call(req)
		t1 := nowNs()
		if err != nil {
			return err
		}
		tr.add("live.pool_call_b64", t0, t1, 0, int32(i), 1)
		queueUs = append(queueUs, float64(resp.QueueMicros))
		serviceUs = append(serviceUs, float64(resp.ServiceMicros))
		overheadUs = append(overheadUs, float64(t1-t0)/1e3-float64(resp.QueueMicros+resp.ServiceMicros))
	}
	for i := 0; i < batches; i++ {
		req := many(i, live.OpGet)
		t0 := nowNs()
		if _, err := pool.Call(req); err != nil {
			return err
		}
		tr.add("live.pool_get_b64", t0, nowNs(), 0, int32(i), 1)
	}
	for i := 0; i < singles; i++ {
		req := one(i, live.OpPut, value)
		t0 := nowNs()
		if _, err := pool.Call(req); err != nil {
			return err
		}
		tr.add("live.pool_put_k1", t0, nowNs(), 0, int32(i), 1)
	}
	vals["live.server_queue_us"] = mean(queueUs)
	vals["live.server_service_us"] = mean(serviceUs)
	vals["live.wire_overhead_us"] = median(overheadUs)
	return nil
}

// probeStorage drives both engines directly with the stream's keys. The
// disk engine runs with automatic snapshots off, so the one explicit
// snapshot, the WAL it leaves and the records a reopen replays depend on
// the seed alone.
func probeStorage(in probeInput, workDir string, tr *tracer, vals map[string]float64) error {
	value := bytes.Repeat([]byte("v"), in.valueSize)
	n := min(len(in.keys), 1<<15)
	keys := in.keys[:n]

	mt, err := storage.NewMem().Table("t")
	if err != nil {
		return err
	}
	var perr error
	batched(tr, "storage.mem_put", n, func(i int) {
		if _, err := mt.Put(keys[i], value); err != nil {
			perr = err
		}
	})
	batched(tr, "storage.mem_get", n, func(i int) {
		v, _, _ := mt.Get(keys[i])
		sink += float64(len(v))
	})

	dir, err := os.MkdirTemp(workDir, "probe-disk-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := storage.DiskOptions{SnapshotBytes: -1}
	eng, err := storage.OpenDisk(dir, opts)
	if err != nil {
		return err
	}
	dt, err := eng.Table("t")
	if err != nil {
		return err
	}
	// write puts keys[lo:hi] in flushed batches of 64, the server's group
	// commit.
	write := func(lo, hi int) {
		for ; lo < hi; lo += 64 {
			end := min(lo+64, hi)
			timed(tr, "storage.disk_put", end-lo, func() {
				for _, k := range keys[lo:end] {
					if _, err := dt.Put(k, value); err != nil {
						perr = err
					}
				}
			})
			timed(tr, "storage.disk_flush_b64", 1, func() {
				if err := eng.Flush(); err != nil {
					perr = err
				}
			})
		}
	}
	write(0, n/2)
	vals["storage.wal_bytes_per_user_byte"] = float64(eng.Stats().WALBytes) / float64(n/2*len(value))
	timed(tr, "storage.disk_snapshot", 1, func() {
		if err := eng.Snapshot(); err != nil {
			perr = err
		}
	})
	write(n/2, n)
	batched(tr, "storage.disk_get", n, func(i int) {
		v, _, _ := dt.Get(keys[i])
		sink += float64(len(v))
	})
	if err := eng.Close(); err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	var reopened *storage.Disk
	timed(tr, "storage.disk_reopen", 1, func() { reopened, err = storage.OpenDisk(dir, opts) })
	if err != nil {
		return err
	}
	defer reopened.Close()
	st := reopened.Stats()
	if st.RecoveredRows == 0 || st.ReplayedRecords != n-n/2 {
		return fmt.Errorf("reopen recovered %d snapshot rows and replayed %d records, want >0 and %d",
			st.RecoveredRows, st.ReplayedRecords, n-n/2)
	}
	vals["storage.replayed_records"] = float64(st.ReplayedRecords)
	return nil
}

// zeroLiveLayer is the live.* and storage.snapshots part of a repetition's
// layer map for a workload with no live cluster.
func zeroLiveLayer() map[string]float64 {
	m := liveCounts{}.layer()
	m["live.dial_ms"] = 0
	m["storage.snapshots"] = 0
	return m
}
