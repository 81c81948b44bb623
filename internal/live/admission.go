package live

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// Admission control: every request read off a connection passes
// through a bounded run queue for its op class before any work happens.
// Overload is therefore a first-class, immediately-visible outcome — a full
// queue sheds the request with a typed CodeOverloaded carrying a
// retry-after hint — instead of an unbounded goroutine pile that drowns
// callers in opaque timeouts. A fixed pool of dispatcher goroutines per
// class drains its queue with a weighted-fair pick over the three priority
// classes, so high-priority work is served first (and shed last) without
// starving the rest.

// opClass buckets ops into the three server run queues: exec (UDF work),
// put (writes, including replication), and fetch (reads and scans).
type opClass uint8

const (
	classExec opClass = iota
	classPut
	classFetch
	numClasses
)

// classOf maps an op onto its run queue. Unknown ops ride the fetch queue:
// they are answered with a cheap "unknown op" rejection, which is
// fetch-priced work.
func classOf(op Op) opClass {
	switch op {
	case OpExec:
		return classExec
	case OpPut, OpPutRepl:
		return classPut
	default:
		return classFetch
	}
}

// numPriorities is the count of wire priority classes (see Priority).
const numPriorities = 3

// prioIdx maps a wire priority onto its queue lane, ordered by service
// preference: high first, low last. Unknown bytes from a hostile peer land
// in the normal lane.
func prioIdx(p Priority) int {
	switch p {
	case PriorityHigh:
		return 0
	case PriorityLow:
		return 2
	default:
		return 1
	}
}

// prioWeights is the weighted-fair share of dequeues per refill round:
// high gets 4, normal 2, low 1. Low is never starved — it still moves one
// item per round — but under saturation it is served last and, because
// admission evicts the newest queued low item to make room for higher
// classes, shed first.
var prioWeights = [numPriorities]int{4, 2, 1}

// AdmissionConfig bounds a server's run queues and dispatcher pools, one
// pair per op class. Zero or negative fields take the defaults (queues
// defaultQueueBound deep; worker counts scaled to the core count). Must be
// set before Serve.
type AdmissionConfig struct {
	ExecQueue, PutQueue, FetchQueue       int
	ExecWorkers, PutWorkers, FetchWorkers int
}

const (
	defaultQueueBound = 1024
	// maxRetryAfterMillis clamps the shed hint: past 2s the estimate says
	// more about EWMA noise than about real drain time.
	maxRetryAfterMillis = 2000
	// windowLatencyBudget caps the advertised per-conn window at roughly
	// this many seconds of queued service time, so a slow-UDF class
	// advertises a small window and a cheap-fetch class a large one.
	windowLatencyBudget = 0.050
)

// SetAdmission replaces the server's default queue bounds and dispatcher
// pool sizes; it must be called before Serve (the dispatchers start there).
func (s *Server) SetAdmission(cfg AdmissionConfig) {
	if s.admStarted.Load() {
		panic("live: SetAdmission after Serve")
	}
	s.admCfg = cfg
}

// startAdmission builds the run queues and starts the per-class dispatcher
// pools; called once, from Serve.
func (s *Server) startAdmission() {
	s.admOnce.Do(func() {
		s.admStarted.Store(true)
		ncpu := runtime.NumCPU()
		bounds := [numClasses]int{
			classExec:  orDefault(s.admCfg.ExecQueue, defaultQueueBound),
			classPut:   orDefault(s.admCfg.PutQueue, defaultQueueBound),
			classFetch: orDefault(s.admCfg.FetchQueue, defaultQueueBound),
		}
		s.admWorkers = [numClasses]int{
			classExec:  orDefault(s.admCfg.ExecWorkers, max(2, ncpu)),
			classPut:   orDefault(s.admCfg.PutWorkers, max(2, ncpu)),
			classFetch: orDefault(s.admCfg.FetchWorkers, max(4, ncpu)),
		}
		for cl := range s.admission {
			q := newRunQueue(bounds[cl])
			s.admission[cl] = q
			for w := 0; w < s.admWorkers[cl]; w++ {
				go s.dispatch(q)
			}
		}
	})
}

func orDefault(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// admit routes one decoded request into its class's bounded run queue, or
// sheds it (and possibly a lower-priority victim evicted to make room)
// immediately with CodeOverloaded. The caller has already registered the
// request active; shed answers deregister it.
//
//joinopt:hotpath
func (s *Server) admit(wc *wireConn, req *Request) {
	cl := classOf(req.Op)
	admitted, evicted, hasEvicted := s.admission[cl].push(wc, req, time.Now())
	if hasEvicted {
		s.shed(evicted.wc, evicted.req, cl)
	}
	if !admitted {
		s.shed(wc, req, cl)
	}
}

// shed answers a request with CodeOverloaded without performing any of its
// work. The response carries the retry-after hint (estimated queue drain
// time) and the usual backpressure header, so a paced client stops
// sending before it sheds again.
func (s *Server) shed(wc *wireConn, req *Request, cl opClass) {
	s.Shed.Add(1)
	resp := errResponse(req.ID, CodeOverloaded, shedMsgs[cl])
	resp.RetryAfterMillis = s.retryAfterHint(cl)
	s.stampCredit(wc, resp, cl)
	id := req.ID
	putRequest(req)
	if wc.writeResponse(resp) != nil {
		wc.Close()
	}
	putResponse(resp)
	wc.endActive(id)
}

var shedMsgs = [numClasses]string{
	classExec:  "overloaded: exec run queue full; request shed at admission, no work performed",
	classPut:   "overloaded: put run queue full; request shed at admission, no work performed",
	classFetch: "overloaded: fetch run queue full; request shed at admission, no work performed",
}

// retryAfterHint estimates when the class's queue will have headroom again:
// current depth × EWMA service time ÷ dispatcher count, clamped to
// [1ms, maxRetryAfterMillis]. Deliberately coarse — it only needs to spread
// retries past the drain horizon, not predict it.
func (s *Server) retryAfterHint(cl opClass) uint64 {
	depth := s.admission[cl].len()
	workers := s.admWorkers[cl]
	if workers < 1 {
		workers = 1
	}
	ms := uint64(float64(depth+1) * s.classSvcSeconds(cl) / float64(workers) * 1000)
	if ms < 1 {
		ms = 1
	}
	if ms > maxRetryAfterMillis {
		ms = maxRetryAfterMillis
	}
	return ms
}

// stampCredit writes the backpressure pair onto an outgoing response:
// window is the per-conn outstanding-op budget for the class (queue
// headroom capped at ~windowLatencyBudget seconds of EWMA service time, in
// [1, 255] — a server always budgets at least one op, so window 0
// uniquely means "no signal"), credit is the budget minus the connection's
// in-flight count, floored at zero. Credit 0 with a nonzero window is the
// explicit "stop sending" signal the client's pacing keys on.
//
//joinopt:hotpath
func (s *Server) stampCredit(wc *wireConn, resp *Response, cl opClass) {
	q := s.admission[cl]
	if q == nil {
		return // handler driven without Serve (direct tests): no signal
	}
	window := q.limit - q.len()
	if svc := s.classSvcSeconds(cl); svc > 0 {
		if byLatency := int(windowLatencyBudget / svc); byLatency < window {
			window = byLatency
		}
	}
	if window < 1 {
		window = 1
	}
	if window > 255 {
		window = 255
	}
	credit := window - int(wc.inflight.Load())
	if credit < 0 {
		credit = 0
	}
	resp.Credit, resp.Window = uint8(credit), uint8(window)
}

// observeClassService folds one request's measured service time (queue wait
// excluded) into the class's EWMA, mirroring the UDF-cost EWMA.
func (s *Server) observeClassService(cl opClass, sec float64) {
	old := math.Float64frombits(s.classSvc[cl].Load())
	s.classSvc[cl].Store(math.Float64bits(0.25*sec + 0.75*old))
}

func (s *Server) classSvcSeconds(cl opClass) float64 {
	return math.Float64frombits(s.classSvc[cl].Load())
}

// dispatch is one dispatcher goroutine: it drains its class queue until the
// queue is closed and empty. Queue wait is measured here and handed to the
// handler so responses can split queueing from service.
func (s *Server) dispatch(q *runQueue) {
	for {
		item, ok := q.pop()
		if !ok {
			return
		}
		s.handle(item.wc, item.req, time.Since(item.enq))
	}
}

// queued is one admitted request waiting for a dispatcher. It owns the
// pooled request while it sits in the run queue: admission hands the frame
// off at push, and either a dispatcher (handle releases it after framing
// the response) or shed (on eviction/close) takes ownership back.
type queued struct {
	wc *wireConn
	//joinopt:owns
	req *Request
	enq time.Time
}

// prioLane is one priority's FIFO inside a runQueue: a slice with a head
// index so pops don't reslice away capacity; the vacated prefix is
// compacted once it dominates the backing array, keeping the steady state
// allocation-free.
type prioLane struct {
	items []queued
	head  int
}

func (l *prioLane) size() int { return len(l.items) - l.head }

func (l *prioLane) pushBack(it queued) {
	if l.head > 64 && l.head*2 >= len(l.items) {
		n := copy(l.items, l.items[l.head:])
		for i := n; i < len(l.items); i++ {
			l.items[i] = queued{}
		}
		l.items = l.items[:n]
		l.head = 0
	}
	l.items = append(l.items, it)
}

func (l *prioLane) popFront() queued {
	it := l.items[l.head]
	l.items[l.head] = queued{}
	l.head++
	if l.head == len(l.items) {
		l.items = l.items[:0]
		l.head = 0
	}
	return it
}

func (l *prioLane) popBack() queued {
	n := len(l.items) - 1
	it := l.items[n]
	l.items[n] = queued{}
	l.items = l.items[:n]
	if l.head == len(l.items) {
		l.items = l.items[:0]
		l.head = 0
	}
	return it
}

// runQueue is one op class's bounded admission queue: three priority lanes
// sharing a single depth bound, drained weighted-fair by the class's
// dispatcher pool. When the queue is full, an arriving request either
// evicts the newest queued item of a strictly lower priority (so low sheds
// before high) or is itself rejected.
type runQueue struct {
	mu     sync.Mutex
	cond   sync.Cond
	lanes  [numPriorities]prioLane
	tokens [numPriorities]int
	depth  int
	limit  int
	closed bool
}

func newRunQueue(limit int) *runQueue {
	rq := &runQueue{limit: limit, tokens: prioWeights}
	rq.cond.L = &rq.mu
	return rq
}

func (rq *runQueue) len() int {
	rq.mu.Lock()
	d := rq.depth
	rq.mu.Unlock()
	return d
}

// push admits a request into its priority lane. Returns admitted=false when
// the queue is full with nothing lower-priority to evict (or closed); when
// admission evicted a lower-priority victim to make room, the victim comes
// back for the caller to shed.
//
//joinopt:hotpath
func (rq *runQueue) push(wc *wireConn, req *Request, now time.Time) (admitted bool, evicted queued, hasEvicted bool) {
	pi := prioIdx(req.Priority)
	rq.mu.Lock()
	if rq.closed {
		rq.mu.Unlock()
		return false, queued{}, false
	}
	if rq.depth >= rq.limit {
		vi := -1
		for i := numPriorities - 1; i > pi; i-- {
			if rq.lanes[i].size() > 0 {
				vi = i
				break
			}
		}
		if vi < 0 {
			rq.mu.Unlock()
			return false, queued{}, false
		}
		evicted = rq.lanes[vi].popBack()
		rq.lanes[pi].pushBack(queued{wc: wc, req: req, enq: now})
		rq.mu.Unlock()
		return true, evicted, true
	}
	rq.lanes[pi].pushBack(queued{wc: wc, req: req, enq: now})
	rq.depth++
	rq.mu.Unlock()
	rq.cond.Signal()
	return true, queued{}, false
}

// pop hands the next request to a dispatcher, weighted-fair across the
// priority lanes: each refill round grants prioWeights tokens per lane and
// lanes are scanned high-to-low, so high drains ~4× faster than low under
// saturation while a backlogged low lane still moves every round. Blocks
// while the queue is empty; returns ok=false once the queue is closed and
// drained.
func (rq *runQueue) pop() (queued, bool) {
	rq.mu.Lock()
	for {
		if rq.depth > 0 {
			// Two passes: if every non-empty lane is out of tokens, the
			// refill between the passes guarantees the second one hits.
			for pass := 0; pass < 2; pass++ {
				for i := 0; i < numPriorities; i++ {
					if rq.lanes[i].size() > 0 && rq.tokens[i] > 0 {
						rq.tokens[i]--
						rq.depth--
						it := rq.lanes[i].popFront()
						rq.mu.Unlock()
						return it, true
					}
				}
				rq.tokens = prioWeights
			}
		}
		if rq.closed {
			rq.mu.Unlock()
			return queued{}, false
		}
		rq.cond.Wait() //lint:allow lockcheck cond.Wait releases the queue mutex while parked; this is the dispatcher's idle state
	}
}

// close wakes every dispatcher; they drain what is queued, then exit.
func (rq *runQueue) close() {
	rq.mu.Lock()
	rq.closed = true
	rq.mu.Unlock()
	rq.cond.Broadcast()
}
