package live

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"joinopt/internal/loadbalance"
)

// ewma is a 0.25/0.75 moving average of seconds, kept as float bits in a
// plain atomic so updates don't box. What a unit of service costs is kept
// three ways, and each decision reads exactly one:
//
//	Server.udfCost    per UDF run (execOne)  → the balancer's TCD; ComputeCost on bounced slots
//	Server.classSvc   per request (handle)   → retry-after on a shed; the advertised window
//	ServiceMicros     raw, on every response → the client's replica pricing (its own EWMA)
//
// Each node measures the first two itself: a region migrated in is priced
// by the target's own traffic, and after ten observations the cold seed
// holds under 6% of the weight.
type ewma struct{ bits atomic.Uint64 }

// coldServiceSeconds seeds every EWMA until traffic says otherwise.
const coldServiceSeconds = 1e-4

func (e *ewma) load() float64 { return math.Float64frombits(e.bits.Load()) }

func (e *ewma) observe(x float64) { e.bits.Store(math.Float64bits(0.25*x + 0.75*e.load())) }

// set overwrites the average.
func (e *ewma) set(v float64) { e.bits.Store(math.Float64bits(v)) }

// handle serves one dequeued request and hands the answer to respond.
// queueWait is the time the request spent in its admission queue; the
// response reports it (QueueMicros) alongside the measured service time so
// clients can tell queuing from slow work.
//
//joinopt:hotpath
func (s *Server) handle(wc *wireConn, req *Request, queueWait time.Duration) {
	svcStart := time.Now()
	var resp *Response
	// The membership epoch check: one comparison when the
	// client's map agrees with this node's and nothing ever moved away.
	// A mismatch — stale stamp, or this node holding any moved record
	// (the flag bit keeps the word unequal to every stamp) — walks the
	// request's keys against the moved-region set; a mismatch touching no
	// moved region falls through and is served normally. An OpPut takes the
	// check in commit instead, under putGate.
	if req.Op != OpPut && s.routeState.Load() != req.Epoch<<1 {
		resp = s.routeCheck(req)
	}
	tb := s.table(req.Table)
	switch {
	case resp != nil:
		// CodeMoved redirect already built.
	case tb == nil:
		resp = errResponse(req.ID, CodeServer, "unknown table "+req.Table) //lint:allow hotpath unknown-table error path
	case req.Op == OpGet:
		resp = s.handleGet(wc, tb, req)
	case req.Op == OpExec:
		resp = s.handleExec(wc, tb, req)
	case req.Op == OpPut, req.Op == OpPutRepl:
		resp = s.commit(wc, tb, req)
	case req.Op == OpScan:
		resp = s.handleScan(tb, req)
	default:
		resp = errResponse(req.ID, CodeServer, "unknown op")
	}
	cl := classOf(req.Op)
	svc := time.Since(svcStart)
	s.classSvc[cl].observe(svc.Seconds())
	resp.QueueMicros = uint64(queueWait.Microseconds())
	resp.ServiceMicros = uint64(svc.Microseconds())
	s.respond(wc, req, resp, cl)
}

// handleGet answers a fetch batch: register this conn as a cacher of each
// key, unless the request says nothing will cache the values (prioNoCache),
// then read the rows under the engine's reader lock.
//
// Registration deliberately comes FIRST. If a Put lands between the two
// steps, the sweep already sees this conn and sends an invalidation, and
// the read returns the new value — either ordering leaves the client
// consistent. Read-then-register would open a stale-cache window: a Put
// sweeping between the read and the registration would notify nobody while
// the client caches the old value forever.
//
//joinopt:hotpath
func (s *Server) handleGet(wc *wireConn, tb *serverTable, req *Request) *Response {
	s.Gets.Add(int64(len(req.Keys)))
	resp := getResponse()
	resp.ID = req.ID
	if req.Priority&prioNoCache == 0 {
		tb.cachers.register(wc, req.Keys)
	}
	for _, k := range req.Keys {
		v, ver, _ := tb.store.Get(k)
		resp.Values = append(resp.Values, v)
		resp.Computed = append(resp.Computed, false)
		resp.Metas = append(resp.Metas, Meta{
			ValueSize: int64(len(v)),
			Version:   ver,
		})
	}
	return resp
}

// sliceN resizes a pooled slice to n zeroed elements, reusing its capacity.
func sliceN[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

//joinopt:hotpath
func (s *Server) handleExec(wc *wireConn, tb *serverTable, req *Request) *Response {
	b := len(req.Keys)
	s.Execs.Add(int64(b))
	udf, ok := s.reg.Lookup(tb.udf)
	if !ok {
		return errResponse(req.ID, CodeServer, "unregistered UDF "+tb.udf) //lint:allow hotpath misconfigured-table error path
	}

	// Section 5: decide how many of the b requests to compute here. (One
	// assignment, so the helpers' closure captures d by value, not a heap cell.)
	d := s.balance(req.Stats, b)
	s.Bounced.Add(int64(b - d))
	s.pendingTotal.Add(int64(b))
	s.pendingExec.Add(int64(d))
	defer s.pendingTotal.Add(-int64(b))

	resp := getResponse()
	resp.ID = req.ID
	resp.Values = sliceN(resp.Values, b)
	resp.Computed = sliceN(resp.Computed, b)
	resp.Metas = sliceN(resp.Metas, b)
	for i, k := range req.Keys {
		v, ver, _ := tb.store.Get(k)
		resp.Metas[i] = Meta{ValueSize: int64(len(v)), Version: ver}
		// Stage the raw value; workers overwrite it with the UDF output
		// for the d computed slots. Past d it stays as-is: bounced back
		// for the caller to compute (it pays the fetch, not the UDF).
		resp.Values[i] = v
	}

	// Run the d UDFs on the slots the limiter grants: this goroutine works
	// one, and each extra slot gets a helper pulling indices from a shared
	// counter — not one goroutine per key, which costs a closure allocation
	// and a scheduler handoff per op. One slot runs inline: no goroutine,
	// and a counter that never leaves the stack.
	if d > 0 {
		if slots := s.acquireUDFSlots(d); slots == 1 {
			var next atomic.Int64
			s.execFrom(&next, d, wc, req, resp, udf)
		} else {
			var next atomic.Int64
			var wg sync.WaitGroup
			wg.Add(slots - 1)
			for h := 1; h < slots; h++ {
				//joinopt:xfer helpers borrow req/resp synchronously; wg.Wait precedes any recycle
				go func() { //lint:allow hotpath one closure per helper, amortized over the exec batch
					defer wg.Done()
					s.execFrom(&next, d, wc, req, resp, udf)
				}()
			}
			s.execFrom(&next, d, wc, req, resp, udf)
			wg.Wait()
		}
	}
	for i := range resp.Metas {
		if !resp.Computed[i] {
			resp.Metas[i].ComputeCost = s.udfCost.load()
		}
	}
	return resp
}

// acquireUDFSlots is the node's one UDF limiter, the only place slots are
// taken: the caller blocks for the slot its own goroutine works and takes up
// to want-1 more from whatever is idle at this instant; execFrom, which works
// a slot, is the only place one is given back. No more than ExecWorkers UDFs
// are ever in flight; a lone batch on an idle node uses every slot, and under
// load each batch gets one.
//
//joinopt:hotpath
func (s *Server) acquireUDFSlots(want int) int {
	s.udfSlots <- struct{}{}
	n := 1
	for n < want {
		select {
		case s.udfSlots <- struct{}{}:
			n++
		default:
			return n
		}
	}
	return n
}

// execFrom works one slot of a batch: it claims indices from the batch's
// counter until the d committed UDFs are taken, then gives the slot back at
// once, so a batch waiting behind this one never waits on an idle slot.
//
//joinopt:hotpath
func (s *Server) execFrom(next *atomic.Int64, d int, wc *wireConn, req *Request, resp *Response, udf UDF) {
	for i := int(next.Add(1)) - 1; i < d; i = int(next.Add(1)) - 1 {
		s.execOne(wc, req, resp, udf, i)
	}
	<-s.udfSlots
}

// execOne runs one committed UDF — on a slot its caller holds — and records
// its measured cost; resp.Values[i] holds the raw row value on entry and the
// UDF output on exit. A slot whose cancel frame arrived before dispatch is
// skipped: the raw value stays staged with Computed=false (the client has
// already rejected the op and ignores the slot), and the skip is counted in
// ExecCanceled.
//
//joinopt:hotpath
func (s *Server) execOne(wc *wireConn, req *Request, resp *Response, udf UDF, i int) {
	if wc.slotCanceled(req.ID, i) {
		s.pendingExec.Add(-1)
		s.ExecCanceled.Add(1)
		return
	}
	start := time.Now()
	out := udf(req.Keys[i], param(req.Params, i), resp.Values[i])
	dur := time.Since(start).Seconds()
	s.pendingExec.Add(-1)
	s.udfCost.observe(dur)
	resp.Values[i] = out
	resp.Computed[i] = true
	resp.Metas[i].ComputedSize = int64(len(out))
	resp.Metas[i].ComputeCost = dur
}

func param(params [][]byte, i int) []byte {
	if i < len(params) {
		return params[i]
	}
	return nil
}

// balance runs the Appendix C minimization with live statistics; a server
// with the balancer off computes everything, like FD/CO.
func (s *Server) balance(cs loadbalance.ComputeStats, b int) int {
	if !s.balanced {
		return b
	}
	tcd := s.udfCost.load()
	if cs.TCC <= 0 {
		cs.TCC = tcd
	}
	if cs.NetBw <= 0 {
		cs.NetBw = 1e9
	}
	ds := loadbalance.DataStats{
		PendingComputeReqs: int(s.pendingTotal.Load()),
		ComputedAtData:     int(s.pendingExec.Load()),
		TCD:                tcd,
		NetBw:              1e9,
	}
	sz := loadbalance.Sizes{SK: 16, SP: 256, SV: 1024, SCV: 256}
	p := loadbalance.Build(cs, ds, sz, b)
	d, _ := p.SolveExact()
	return d
}

// commit is the one way a write batch lands, for both write ops: apply the
// rows, cross the flush barrier — group commit: one durability barrier per
// batch, not per row — and only then take the keys' cachers and notify them.
// OpPut rows get the engine's next version. OpPutRepl rows (the replication
// stream) carry the sequencer's (version, value) and apply set-if-newer, so
// re-sent and reordered records are harmless; Computed[i] reports whether row
// i applied (false = this replica already had an equal-or-newer version), so
// quorum logic upstream can tell a fresh ack from an idempotent replay. The
// engine copies each value out of the request frame (decoded params alias it).
//
// This is the only take for a write, and it sits past the one Flush: a failed
// batch leaves every registration intact, and the next acknowledged write of
// the key still notifies. (Deregistering inside the put loop once left the
// cachers of a failed batch holding stale values with no invalidation ever
// arriving.)
//
// Failed-put visibility contract (see storage.Table.Put): rows written
// before the failure point are already visible in the engine's memtable and
// are NOT rolled back — a batch that fails at the barrier may still be
// (partially) readable, and a transiently failed flush may even make it
// durable. The client is told "unacknowledged", which means maybe-committed,
// never "rolled back". TestFaultFailedPutStillVisible pins this.
//
//joinopt:hotpath
func (s *Server) commit(from *wireConn, tb *serverTable, req *Request) *Response {
	s.Puts.Add(int64(len(req.Keys)))
	// Migration guard (migrate.go), OpPut only (the replication stream is
	// never client-routed): every put batch checks its route and writes its
	// rows holding putGate shared. The fence and the cutover take it
	// exclusively, so a batch finds the fence or the moved record, or the
	// fence waits for it. A batch touching a moved region is redirected,
	// one touching a fenced region bounces retryable (the fence check runs
	// only while a region of this node is being copied away), and either
	// is answered before any row is written.
	if req.Op == OpPut {
		s.putGate.RLock()
		var bounce *Response
		if s.routeState.Load() != req.Epoch<<1 {
			bounce = s.routeCheck(req)
		}
		if bounce == nil && s.migActive.Load() != 0 {
			bounce = s.putFenced(req)
		}
		if bounce != nil {
			s.putGate.RUnlock()
			return bounce
		}
	}
	resp := getResponse()
	resp.ID = req.ID
	// A row that fails may be visible in memory but its durability is not
	// guaranteed; never acknowledge it. Preceding rows of the batch are in
	// the same position — the whole batch fails, and OpPut is never retried
	// by the executor (not idempotent).
	var fail string
	for i, k := range req.Keys {
		var ver int64
		var err error
		if req.Op == OpPut {
			ver, err = tb.store.Put(k, param(req.Params, i))
		} else {
			var value []byte
			var ok, applied bool
			if ver, value, ok = decodePutRepl(param(req.Params, i)); !ok {
				fail = "malformed replication record for key " + k //lint:allow hotpath failed-put path; the concat prices the failure
				break
			}
			applied, err = tb.store.PutAt(k, value, ver)
			resp.Computed = append(resp.Computed, applied)
		}
		if err != nil {
			fail = "storage: " + err.Error() //lint:allow hotpath failed-put path; the concat prices the failure
			break
		}
		resp.Metas = append(resp.Metas, Meta{Version: ver})
	}
	if req.Op == OpPut {
		s.putGate.RUnlock()
	}
	// The acknowledgment barrier: every row above is durable (to the
	// engine's configured level) once Flush returns. The in-memory engine
	// answers instantly.
	if fail == "" {
		if err := s.engine.Flush(); err != nil {
			fail = "storage flush: " + err.Error() //lint:allow hotpath failed-flush path; the concat prices the failure
		}
	}
	if fail != "" {
		putResponse(resp)
		return errResponse(req.ID, CodeServer, fail)
	}
	push(tb.cachers.take(req.Table, req.Keys, resp.Metas, resp.Computed, from))
	return resp
}
