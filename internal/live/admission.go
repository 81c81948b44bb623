package live

import (
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
// preference: high first, low last. The prioNoCache bit does not choose a
// lane; unknown bytes from a hostile peer land in the normal lane.
func prioIdx(p Priority) int {
	switch p &^ prioNoCache {
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
// pair per op class. ExecWorkers is also the ceiling on UDFs the node runs
// at once, across all batches (acquireUDFSlots). Zero or negative fields take
// the defaults (queues defaultQueueBound deep; worker counts scaled to
// GOMAXPROCS: what the process may use, not what the box has). Must be set
// before Serve.
type AdmissionConfig struct {
	ExecQueue, PutQueue, FetchQueue       int
	ExecWorkers, PutWorkers, FetchWorkers int
}

const defaultQueueBound = 1024

// SetAdmission replaces the server's default queue bounds and dispatcher
// pool sizes; it must be called before Serve (the dispatchers start there).
func (s *Server) SetAdmission(cfg AdmissionConfig) {
	if s.admStarted.Load() {
		panic("live: SetAdmission after Serve")
	}
	s.admCfg = cfg
}

// startAdmission builds the run queues and the UDF limiter and starts the
// per-class dispatcher pools; called once, from Serve.
func (s *Server) startAdmission() {
	s.admOnce.Do(func() {
		s.admStarted.Store(true)
		ncpu := runtime.GOMAXPROCS(0)
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
		s.udfSlots = make(chan struct{}, s.admWorkers[classExec])
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
// immediately with CodeOverloaded — unless Close already shut the queue, in
// which case it refuses it instead. The caller has already registered the
// request active; shed and refuse answers deregister it.
//
//joinopt:hotpath
func (s *Server) admit(wc *wireConn, req *Request) {
	cl := classOf(req.Op)
	admitted, evicted, hasEvicted := s.admission[cl].push(wc, req, time.Now())
	if hasEvicted {
		s.shed(evicted.wc, evicted.req, cl)
	}
	if !admitted {
		if s.admission[cl].isClosed() {
			s.refuse(wc, req, cl)
			return
		}
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
	s.respond(wc, req, resp, cl)
}

// refuse answers a request that arrived after Close shut its run queue. The
// node is going away, not overloaded, so the answer is what every straggler
// of a Close gets from the cut connection — CodeTransport, which the client
// counts as Failed and may retry on another replica — with no retry-after
// hint and no Shed count: a shutdown must not read as overload.
func (s *Server) refuse(wc *wireConn, req *Request, cl opClass) {
	s.respond(wc, req, errResponse(req.ID, CodeTransport, refuseMsg), cl)
}

const refuseMsg = "store node closing; request refused at admission, no work performed"

var shedMsgs = [numClasses]string{
	classExec:  "overloaded: exec run queue full; request shed at admission, no work performed",
	classPut:   "overloaded: put run queue full; request shed at admission, no work performed",
	classFetch: "overloaded: fetch run queue full; request shed at admission, no work performed",
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

// isClosed reports whether close has run; push refuses every request from
// then on.
func (rq *runQueue) isClosed() bool {
	rq.mu.Lock()
	defer rq.mu.Unlock()
	return rq.closed
}

// close wakes every dispatcher; they drain what is queued, then exit.
func (rq *runQueue) close() {
	rq.mu.Lock()
	rq.closed = true
	rq.mu.Unlock()
	rq.cond.Broadcast()
}
