package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/core"
	"joinopt/internal/live"
	"joinopt/internal/storage"
	"joinopt/internal/store"
	"joinopt/internal/workload"
)

// liveSpec describes one live-plane workload: a cluster shape, a data set,
// an operation mix and the sizes of its phases. Every knob the product
// would default from the core count is set here explicitly.
type liveSpec struct {
	name string

	nodes        int // store nodes
	connsPerNode int
	disk         bool // storage.OpenDisk instead of the in-memory engine
	balanced     bool // Section 5 balancer on the servers
	optimizer    core.Config
	udf          string // "tag" or "fnvtag"

	keys      int
	valueSize int
	zipfS     float64 // key skew of the reads; 0 is uniform
	putShare  float64 // share of ops that are Table.Put, on uniformly drawn keys
	// readRecent makes every read target one of the last recentKeys keys
	// written, as an uncached wire fetch (recentReadOpts).
	readRecent  bool
	preloadPuts int // writes applied straight to the engine before it is reopened
	// separateWriter sends writes through a second executor. A server does
	// not push an invalidation to the connection a put arrived on, so a
	// caching reader only hears of writes made over other connections.
	separateWriter bool
	// cachedReads tolerates a share of at most maxStaleShare of reads older
	// than the write acknowledged before them. The client cache is
	// invalidated by a push that races the fetch responses it should fence:
	// a fetch answered just before a put can be installed just after that
	// put's invalidation and then stays until evicted, so a caching workload
	// cannot hold every read to freshness. Uncached reads are held to it
	// strictly.
	cachedReads bool

	submitters, window int // closed loop: callers and outstanding ops per caller
	// syncPuts makes a closed-loop caller wait for each of its puts before
	// its next op, pipelining only its reads; otherwise a put runs on its
	// own goroutine and occupies a window slot like a read.
	syncPuts  bool
	warmOps   int
	closedOps int
	openOps   int
	rate      float64 // open-loop ops per second
	limitMs   float64

	// valid checks that the repetition exercised what the workload is for.
	valid func(c liveCounts) error
}

const recentKeys = 64

// maxStaleShare is the share of a caching workload's reads that may return
// a value older than the write acknowledged before them. Up to 15 of
// zipf_cache's 518k reads (3e-5) did over 42 repetitions on the reference
// host; with Zipf-distributed writes, where the race above hits the hot
// keys, a third did. The ceiling sits 30 times above the first and 300
// times below the second.
const maxStaleShare = 1e-3

// admissionQueue bounds each server run queue. It is deep enough that the
// open loop's arrivals during a host stall of seconds queue up — and miss
// their latency limit — instead of being shed, which would fail the run for
// the host's sake.
const admissionQueue = 1 << 16

// admission pins the servers' queue bounds and worker pools, which the
// product would size from the core count.
var admission = live.AdmissionConfig{
	ExecQueue: admissionQueue, PutQueue: admissionQueue, FetchQueue: admissionQueue,
	ExecWorkers: 2, PutWorkers: 2, FetchWorkers: 4,
}

// scaled returns the spec with its op counts multiplied by scale (the run
// length relative to the benchmark's standard one). Data set sizes stay, so
// hit ratios keep their meaning.
func (s liveSpec) scaled(scale float64) liveSpec {
	f := func(n int) int { return max(64, int(float64(n)*scale)) }
	s.warmOps, s.closedOps, s.openOps = f(s.warmOps), f(s.closedOps), f(s.openOps)
	if s.preloadPuts > 0 {
		s.preloadPuts = f(s.preloadPuts)
	}
	if scale < 1 {
		s.valid = nil // the hit-ratio and snapshot windows are sized for the full run
	}
	return s
}

// opRec is one generated operation.
type opRec struct {
	key int32
	put bool
}

// liveInputs is everything generated from the seed before the system
// starts: the stored values, the key names and the op stream.
type liveInputs struct {
	keyNames []string
	base     [][]byte // base[k]: the stored value of key k at sequence 0
	fillHash []uint64 // FNV-1a state after base[k]'s filler, to check fnvtag results cheaply
	preload  []int32  // keys of the engine preload, in order
	ops      []opRec  // warm-up, closed-loop and open-loop ops, in that order
}

const (
	hdrLen      = 16 // a value ends with its key index and write sequence
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvAdd(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

var udfParams = []byte("p-live-bench")

// tagUDF is joinbench's trivial UDF: the value, '#', the parameters.
func tagUDF(_ string, params, value []byte) []byte {
	out := make([]byte, 0, len(value)+1+len(params))
	out = append(out, value...)
	out = append(out, '#')
	return append(out, params...)
}

// fnvTagUDF makes one pass over the value: FNV-1a of all of it, then the
// value's trailing header, '#', the parameters.
func fnvTagUDF(_ string, params, value []byte) []byte {
	out := make([]byte, 0, 8+hdrLen+1+len(params))
	out = binary.LittleEndian.AppendUint64(out, fnvAdd(fnvOffset64, value))
	if len(value) >= hdrLen {
		out = append(out, value[len(value)-hdrLen:]...)
	}
	out = append(out, '#')
	return append(out, params...)
}

func newRegistry() *live.Registry {
	reg := live.NewRegistry()
	reg.Register("tag", tagUDF)
	reg.Register("fnvtag", fnvTagUDF)
	return reg
}

// streamSalt separates the op stream's random sequence from the values'.
const streamSalt = 0x5bd1e995

// generate builds the inputs from the seed alone: the same seed gives the
// same values and the same op stream.
func (s liveSpec) generate(seed int64) *liveInputs {
	in := &liveInputs{
		keyNames: make([]string, s.keys),
		base:     make([][]byte, s.keys),
		fillHash: make([]uint64, s.keys),
	}
	vrng := rand.New(rand.NewSource(seed))
	backing := make([]byte, s.keys*s.valueSize)
	_, _ = vrng.Read(backing) // math/rand's Read always fills the slice
	for k := range in.base {
		v := backing[k*s.valueSize : (k+1)*s.valueSize : (k+1)*s.valueSize]
		binary.LittleEndian.PutUint64(v[len(v)-hdrLen:], uint64(k))
		binary.LittleEndian.PutUint64(v[len(v)-8:], 0)
		in.base[k] = v
		in.fillHash[k] = fnvAdd(fnvOffset64, v[:len(v)-hdrLen])
		in.keyNames[k] = fmt.Sprintf("k%07d", k)
	}

	rng := rand.New(rand.NewSource(seed ^ streamSalt))
	uniform := func() int32 { return int32(rng.Intn(s.keys)) }
	next := uniform
	if s.zipfS > 0 {
		z := workload.NewZipf(rng, s.zipfS, s.keys)
		next = func() int32 { return int32(z.Next()) }
	}
	var recent [recentKeys]int32
	nrecent := 0
	in.preload = make([]int32, s.preloadPuts)
	for i := range in.preload {
		k := uniform()
		in.preload[i] = k
		recent[nrecent%recentKeys] = k
		nrecent++
	}
	in.ops = make([]opRec, s.warmOps+s.closedOps+s.openOps)
	for i := range in.ops {
		switch {
		case rng.Float64() < s.putShare:
			k := uniform()
			in.ops[i] = opRec{key: k, put: true}
			recent[nrecent%recentKeys] = k
			nrecent++
		case s.readRecent && nrecent > 0:
			in.ops[i] = opRec{key: recent[rng.Intn(min(nrecent, recentKeys))]}
		default:
			in.ops[i] = opRec{key: next()}
		}
	}
	return in
}

// versioned returns key k's value at write sequence seq.
func (in *liveInputs) versioned(k int32, seq uint64) []byte {
	v := append([]byte(nil), in.base[k]...)
	binary.LittleEndian.PutUint64(v[len(v)-8:], seq)
	return v
}

// keyState tracks one key's writes so reads can be checked against them.
// mu serializes the key's puts end to end, which makes the server's version
// order equal the sequence order.
type keyState struct {
	mu     sync.Mutex
	issued atomic.Uint64 // highest sequence handed to a put
	acked  atomic.Uint64 // highest sequence a put acknowledged
}

// liveCounts are the exported counters of one repetition's cluster.
type liveCounts struct {
	reads                                             int64 // joins the harness submitted
	localHits, remoteComputed, remoteRaw, fetchServed int64
	fetches, failed, canceled, shed, retries, moved   int64
	srvExecs, srvGets, srvBounced                     int64
	disk                                              storage.DiskStats // summed over the nodes
}

// liveRun is one repetition's running system and the opSystem the load
// generators drive.
type liveRun struct {
	spec liveSpec
	in   *liveInputs
	tr   *tracer

	servers []*live.Server
	engines []*storage.Disk
	dir     string
	exec    *live.Executor
	wexec   *live.Executor // separate writer, or nil
	tbl     *live.Table    // reads (and writes, without a separate writer)
	wtbl    *live.Table
	keys    []keyState

	reads      atomic.Int64
	staleReads atomic.Int64
	dialMs     float64
}

// startLive builds the cluster the way cmd/joinbench does — servers over a
// storage engine, a store.Table for placement, an executor dialing them —
// with every core-count default pinned.
func startLive(spec liveSpec, in *liveInputs, workDir string, tr *tracer) (*liveRun, error) {
	r := &liveRun{spec: spec, in: in, tr: tr, keys: make([]keyState, spec.keys)}
	reg := newRegistry()

	ids := make([]cluster.NodeID, spec.nodes)
	for i := range ids {
		ids[i] = cluster.NodeID(i)
	}
	catalog := store.CatalogFunc(func(string) store.RowMeta {
		return store.RowMeta{ValueSize: int64(spec.valueSize)}
	})
	placement := store.NewTable("t", catalog, 2, ids)
	rows := make([]map[string][]byte, spec.nodes)
	for i := range rows {
		rows[i] = make(map[string][]byte, spec.keys/spec.nodes+1)
	}
	for k, name := range in.keyNames {
		rows[placement.Locate(name)][name] = in.base[k]
	}

	if spec.disk {
		dir, err := os.MkdirTemp(workDir, spec.name+"-")
		if err != nil {
			return nil, fmt.Errorf("create data directory: %w", err)
		}
		r.dir = dir
	}
	addrs := make(map[cluster.NodeID]string, spec.nodes)
	for i := 0; i < spec.nodes; i++ {
		srv := live.NewServer(reg, spec.balanced, live.WireBinary)
		if spec.disk {
			node := cluster.NodeID(i)
			eng, err := r.openPreloaded(fmt.Sprintf("%s/node%d", r.dir, i), func(k int32) bool {
				return placement.Locate(in.keyNames[k]) == node
			})
			if err != nil {
				r.close()
				return nil, err
			}
			r.engines = append(r.engines, eng)
			srv.SetEngine(eng)
		}
		srv.SetAdmission(admission)
		srv.AddTable(live.TableSpec{Name: "t", UDF: spec.udf, Rows: rows[i]})
		addr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, fmt.Errorf("serve node %d: %w", i, err)
		}
		r.servers = append(r.servers, srv)
		addrs[cluster.NodeID(i)] = addr
	}

	dial := func(opt core.Config) (*live.Executor, error) {
		return live.NewExecutor(live.ExecConfig{
			Tables:       map[string]*store.Table{"t": placement},
			Addrs:        addrs,
			Registry:     reg,
			TableUDF:     map[string]string{"t": spec.udf},
			Optimizer:    opt,
			Shards:       2,
			ConnsPerNode: spec.connsPerNode,
			Wire:         live.WireBinary,
		})
	}
	t0 := time.Now()
	e, err := dial(spec.optimizer)
	if err != nil {
		r.close()
		return nil, err
	}
	r.dialMs = float64(time.Since(t0)) / 1e6
	r.exec, r.tbl, r.wtbl = e, e.Table("t"), e.Table("t")
	if spec.separateWriter {
		w, err := dial(core.Config{Policy: core.Policy{AlwaysCompute: true}})
		if err != nil {
			r.close()
			return nil, err
		}
		r.wexec, r.wtbl = w, w.Table("t")
	}
	return r, nil
}

// openPreloaded applies the preload puts of the keys a node owns straight to
// a fresh disk engine, closes it and opens it again, so the snapshot load
// and the WAL replay are part of the set-up the repetition times.
func (r *liveRun) openPreloaded(dir string, owns func(k int32) bool) (*storage.Disk, error) {
	opts := storage.DiskOptions{Fsync: false}
	eng, err := storage.OpenDisk(dir, opts)
	if err != nil {
		return nil, fmt.Errorf("open disk engine: %w", err)
	}
	tb, err := eng.Table("t")
	if err != nil {
		return nil, fmt.Errorf("open table: %w", err)
	}
	for i, k := range r.in.preload {
		if !owns(k) {
			continue
		}
		ks := &r.keys[k]
		seq := ks.issued.Add(1)
		v := r.in.versioned(k, seq)
		ver, err := tb.Put(r.in.keyNames[k], v)
		if err != nil {
			return nil, fmt.Errorf("preload put: %w", err)
		}
		if uint64(ver) != seq {
			return nil, fmt.Errorf("preload put of %s: version %d, want %d", r.in.keyNames[k], ver, seq)
		}
		ks.acked.Store(seq)
		if i%64 == 63 {
			if err := eng.Flush(); err != nil {
				return nil, fmt.Errorf("preload flush: %w", err)
			}
		}
	}
	if err := eng.Close(); err != nil {
		return nil, fmt.Errorf("close preloaded engine: %w", err)
	}
	eng, err = storage.OpenDisk(dir, opts)
	if err != nil {
		return nil, fmt.Errorf("reopen disk engine: %w", err)
	}
	return eng, nil
}

// close tears the repetition's system down and removes its data directory.
func (r *liveRun) close() {
	if r.exec != nil {
		r.exec.Close()
	}
	if r.wexec != nil {
		r.wexec.Close()
	}
	for _, s := range r.servers {
		s.Close()
	}
	for _, e := range r.engines {
		e.Close()
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

var bg = context.Background()

// recentReadOpts makes a read an independent wire fetch. ForceFetch alone
// would let it pile onto a fetch of the same key already in flight, whose
// answer may predate a write acknowledged before this read was submitted;
// WithNoCache switches that dedup (and the pointless cache install) off, so
// the read can be held to the acknowledged version.
var recentReadOpts = []live.CallOption{live.WithRoute(live.ForceFetch), live.WithNoCache()}

// traceEvery samples the closed loop's spans: op i is traced when
// i%traceEvery == 0. The open loop traces every op.
const traceEvery = 8

func (r *liveRun) traced(i int, async bool) bool {
	return r.tr != nil && (!async || i%traceEvery == 0)
}

// start implements opSystem.
func (r *liveRun) start(i int, async bool, due int64) pendingOp {
	op := r.in.ops[i]
	p := pendingOp{i: int32(i), fifo: async, due: due}
	if r.traced(i, async) {
		if due == 0 {
			p.due = nowNs()
		}
		p.span = r.tr.reserve("op", int32(i))
	}
	if op.put {
		switch {
		case async && r.spec.syncPuts:
			p.err, p.settled = r.put(p), true
		case async:
			p.done = make(chan error, 1)
			go func() { p.done <- r.put(p) }()
		}
		return p
	}
	r.reads.Add(1)
	p.acked = r.keys[op.key].acked.Load()
	var opts []live.CallOption
	if r.spec.readRecent {
		opts = recentReadOpts
	}
	if p.span == 0 {
		p.fut = r.tbl.Submit(bg, r.in.keyNames[op.key], udfParams, opts...)
		return p
	}
	t0 := nowNs()
	p.fut = r.tbl.Submit(bg, r.in.keyNames[op.key], udfParams, opts...)
	r.tr.add("live.submit", t0, nowNs(), p.span, p.i, 1)
	return p
}

// finish implements opSystem.
func (r *liveRun) finish(p pendingOp) error {
	op := r.in.ops[p.i]
	var t0 int64
	if p.span != 0 {
		t0 = nowNs()
	}
	var err error
	switch {
	case p.settled:
		err = p.err
	case p.done != nil:
		err = <-p.done
	case op.put:
		err = r.put(p)
	default:
		var out []byte
		out, err = p.fut.WaitErr()
		if p.span != 0 {
			// A closed loop collects its oldest op, which has usually
			// completed already; only an op's own parked goroutine times
			// the wait for it.
			name := "live.wait"
			if p.fifo {
				name = "live.collect"
			}
			r.tr.add(name, t0, nowNs(), p.span, p.i, 1)
		}
		if err == nil {
			err = r.checkRead(op.key, p, out)
		}
	}
	r.tr.finish(p.span, p.due, nowNs())
	return err
}

// put writes the key's next sequence and checks the acknowledged version.
func (r *liveRun) put(p pendingOp) error {
	k := r.in.ops[p.i].key
	ks := &r.keys[k]
	ks.mu.Lock()
	defer ks.mu.Unlock()
	seq := ks.issued.Add(1)
	v := r.in.versioned(k, seq)
	var t0 int64
	if p.span != 0 {
		t0 = nowNs()
	}
	ver, err := r.wtbl.Put(bg, r.in.keyNames[k], v)
	if p.span != 0 {
		r.tr.add("live.put", t0, nowNs(), p.span, p.i, 1)
	}
	if err != nil {
		return fmt.Errorf("put %s: %w", r.in.keyNames[k], err)
	}
	if uint64(ver) != seq {
		return fmt.Errorf("put %s: acknowledged at version %d, want %d", r.in.keyNames[k], ver, seq)
	}
	ks.acked.Store(seq)
	return nil
}

var errWrongOutput = errors.New("wrong output")

// checkRead verifies a join result: it is the UDF applied to a value the
// key really held, no newer than the newest write handed out and — unless
// the workload reads through the cache — no older than the write
// acknowledged before the read was submitted.
func (r *liveRun) checkRead(k int32, p pendingOp, out []byte) error {
	name := r.in.keyNames[k]
	var hdr []byte
	switch r.spec.udf {
	case "tag":
		n := r.spec.valueSize
		if len(out) != n+1+len(udfParams) || out[n] != '#' || !bytes.Equal(out[n+1:], udfParams) {
			return fmt.Errorf("%w: %s: malformed tag result of %d bytes", errWrongOutput, name, len(out))
		}
		if !bytes.Equal(out[:n-8], r.in.base[k][:n-8]) {
			return fmt.Errorf("%w: %s: value bytes differ from the stored row", errWrongOutput, name)
		}
		hdr = out[n-hdrLen : n]
	default:
		if len(out) != 8+hdrLen+1+len(udfParams) || out[8+hdrLen] != '#' || !bytes.Equal(out[8+hdrLen+1:], udfParams) {
			return fmt.Errorf("%w: %s: malformed fnvtag result of %d bytes", errWrongOutput, name, len(out))
		}
		hdr = out[8 : 8+hdrLen]
		if got, want := binary.LittleEndian.Uint64(out), fnvAdd(r.in.fillHash[k], hdr); got != want {
			return fmt.Errorf("%w: %s: hash %x, want %x", errWrongOutput, name, got, want)
		}
	}
	if got := binary.LittleEndian.Uint64(hdr); got != uint64(k) {
		return fmt.Errorf("%w: %s: result carries key index %d", errWrongOutput, name, got)
	}
	seq := binary.LittleEndian.Uint64(hdr[8:])
	ks := &r.keys[k]
	if newest := ks.issued.Load(); seq > newest {
		return fmt.Errorf("%w: %s: sequence %d was never written (newest %d)", errWrongOutput, name, seq, newest)
	}
	if seq >= p.acked {
		return nil
	}
	if r.spec.cachedReads {
		r.staleReads.Add(1)
		return nil
	}
	return fmt.Errorf("%w: %s: read sequence %d after sequence %d was acknowledged", errWrongOutput, name, seq, p.acked)
}

// counts reads the cluster's exported counters.
func (r *liveRun) counts() liveCounts {
	e := r.exec
	c := liveCounts{
		reads:     r.reads.Load(),
		localHits: e.LocalHits.Load(), remoteComputed: e.RemoteComputed.Load(),
		remoteRaw: e.RemoteRaw.Load(), fetchServed: e.FetchServed.Load(),
		fetches: e.Fetches.Load(), failed: e.Failed.Load(), canceled: e.Canceled.Load(),
		shed: e.Shed.Load(), retries: e.Retries.Load(), moved: e.Moved.Load(),
	}
	for _, s := range r.servers {
		c.srvExecs += s.Execs.Load()
		c.srvGets += s.Gets.Load()
		c.srvBounced += s.Bounced.Load()
	}
	for _, d := range r.engines {
		st := d.Stats()
		c.disk.Snapshots += st.Snapshots
		c.disk.RecoveredRows += st.RecoveredRows
		c.disk.ReplayedRecords += st.ReplayedRecords
	}
	return c
}

// resolved is how many submissions the executor counted in its outcome
// buckets; the accounting invariant says it equals the reads issued.
func (c liveCounts) resolved() int64 {
	return c.localHits + c.remoteComputed + c.remoteRaw + c.fetchServed + c.failed + c.canceled + c.shed
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layer turns the counters into the per-layer metrics they feed.
func (c liveCounts) layer() map[string]float64 {
	remote := c.remoteComputed + c.remoteRaw + c.fetchServed
	return map[string]float64{
		"live.local_hit_ratio":       ratio(c.localHits, c.reads),
		"live.remote_computed_ratio": ratio(c.remoteComputed, c.reads),
		"live.remote_raw_ratio":      ratio(c.remoteRaw, c.reads),
		"live.fetch_served_ratio":    ratio(c.fetchServed, c.reads),
		"live.fetches_per_op":        ratio(c.fetches, c.reads),
		"live.keys_per_wire_batch":   ratio(remote, c.srvExecs+c.srvGets),
		"live.retries":               float64(c.retries),
		"live.shed":                  float64(c.shed),
		"live.moved":                 float64(c.moved),
		"live.server_bounced_ratio":  ratio(c.srvBounced, c.srvExecs),
	}
}

// runLiveRep is one repetition of a live workload: fresh set-up, fixed-count
// warm-up, timed closed loop, timed open loop, output checks, teardown.
func runLiveRep(spec liveSpec, seed int64, workDir string, tr *tracer) (repResult, error) {
	var res repResult
	t0 := time.Now()
	in := spec.generate(seed)
	r, err := startLive(spec, in, workDir, tr)
	if err != nil {
		return res, err
	}
	defer r.close()
	var errs errTally
	warmEnd, closedEnd := spec.warmOps, spec.warmOps+spec.closedOps
	r.tr = nil // the warm-up is never traced
	closedLoop(r, 0, warmEnd, spec.submitters, spec.window, &errs)
	r.tr = tr
	res.setupS = time.Since(t0).Seconds()

	runtime.GC()
	before := readProc()
	res.closedS = closedLoop(r, warmEnd, closedEnd, spec.submitters, spec.window, &errs)
	res.proc = readProc().since(before)
	res.ops = spec.closedOps

	runtime.GC()
	latMs, lagMs := openLoop(r, closedEnd, len(in.ops), spec.rate, &errs)
	res.open = summarize(latMs, lagMs, spec.limitMs)
	res.heapMB = heapMiB()

	c := r.counts()
	res.attempted = len(in.ops)
	res.failed = int(errs.n.Load())
	res.layer = c.layer()
	res.layer["live.dial_ms"] = r.dialMs
	res.layer["storage.snapshots"] = float64(c.disk.Snapshots)
	if errs.first != nil {
		return res, fmt.Errorf("%d of %d ops failed, first: %w", res.failed, res.attempted, errs.first)
	}
	if c.resolved() != c.reads {
		return res, fmt.Errorf("accounting invariant broken: %d submissions resolved, %d issued", c.resolved(), c.reads)
	}
	if c.failed+c.canceled+c.shed != 0 {
		return res, fmt.Errorf("executor counted %d failed, %d canceled, %d shed", c.failed, c.canceled, c.shed)
	}
	if stale := r.staleReads.Load(); float64(stale) > maxStaleShare*float64(c.reads) {
		return res, fmt.Errorf("%d of %d cached reads returned a value older than the write acknowledged before them, more than %g of them",
			stale, c.reads, maxStaleShare)
	}
	if spec.valid != nil {
		if err := spec.valid(c); err != nil {
			return res, fmt.Errorf("workload validity: %w", err)
		}
	}
	return res, nil
}
