package live

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// Conn is a client connection to one store node with asynchronous request
// multiplexing: many requests can be in flight, responses are matched by ID
// (the asynchronous-submission technique of Section 7 / DBridge [22]).
//
// A Conn does not heal itself: when the stream breaks, every pending call
// fails with a CodeTransport response, Down() reports true, and further
// calls fail fast. Pool layers reconnection on top.
//
// In-flight calls live in pooled completion cells (see recycle.go), with
// the pending map as the single source of truth for delivery: the party
// that removes an entry — the read loop, failAll, a failed write, or a
// cancel — is the party that sends (or forgoes) the entry's exactly-one
// response.
type Conn struct {
	wc *wireConn

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*call
	onNotif func(Notification)
	onDown  func(*Conn) // read-loop exit hook (set by Pool); may be nil
	// onCredit (set by Pool before start; may be nil) observes the v3
	// backpressure pair of every response, feeding the pool's pacing and
	// adaptive batch sizing.
	onCredit func(credit, window uint8)
	closed   bool
}

// DialNode connects to a store node. onNotif (may be nil) receives
// invalidation notifications pushed by the server. The trailing wire
// argument is ignored (see Wire).
func DialNode(addr string, onNotif func(Notification), _ ...Wire) (*Conn, error) {
	c, err := dialDeferred(addr, onNotif, nil)
	if err != nil {
		return nil, err
	}
	c.start()
	return c, nil
}

// dialDeferred dials without starting the read loop: the caller must call
// start() exactly once. The split lets Pool install the conn into its slot
// first, so the onDown hook — which runs after the read loop exits and
// every pending call has been failed — can never observe a conn that is
// not yet anywhere.
func dialDeferred(addr string, onNotif func(Notification), onDown func(*Conn)) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Conn{
		wc:      newWireConn(c),
		pending: make(map[uint64]*call),
		onNotif: onNotif,
		onDown:  onDown,
	}, nil
}

// start launches the read loop of a dialDeferred conn.
func (c *Conn) start() { go c.readLoop() }

func (c *Conn) readLoop() {
	for {
		resp, notif, err := c.wc.readMessage()
		if err != nil {
			c.wc.Close() // release the socket and stop the writer goroutine
			c.failAll(err)
			if c.onDown != nil {
				c.onDown(c)
			}
			return
		}
		switch {
		case resp != nil:
			if c.onCredit != nil {
				// Read before delivery: ownership of resp passes with the
				// channel send.
				c.onCredit(resp.Credit, resp.Window)
			}
			c.mu.Lock()
			cl := c.pending[resp.ID]
			delete(c.pending, resp.ID)
			c.mu.Unlock()
			if cl != nil {
				cl.ch <- resp
			} else {
				// Cancelled or unknown: nothing will ever read it.
				putResponse(resp)
			}
		case notif != nil:
			if c.onNotif != nil {
				c.onNotif(*notif)
			}
		}
	}
}

// failAll marks the connection dead and answers every pending call with a
// transport error: the stream is broken, so none of them can ever be
// answered by the server (a response always returns on the connection that
// carried its request).
func (c *Conn) failAll(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if len(c.pending) == 0 {
		return
	}
	msg := "connection lost: " + err.Error()
	for id, cl := range c.pending {
		cl.ch <- errResponse(id, CodeTransport, msg) //lint:allow lockcheck ch has capacity 1 and receives exactly one send; this never blocks
		delete(c.pending, id)
	}
}

// Down reports whether the connection's stream has failed (or Close was
// called): every call on a down conn fails immediately.
func (c *Conn) Down() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// sentCall is the by-value handle of one in-flight send: the pooled
// completion cell plus enough identity to cancel the call without
// allocating a closure per request. wait is its one receive: it recycles
// the cell with putCall, or calls cancel when the deadline wins.
type sentCall struct {
	cl *call //joinopt:owns
	c  *Conn // nil when the call failed fast (response already buffered)
	id uint64
}

// cancel abandons the call by dropping its pending entry, so a wait whose
// deadline expired does not leave the entry — and eventually the late
// response — pinned in the map for the life of the connection. If the delivery race was already lost, the imminent response
// is drained and recycled; either way the cell returns to the pool. A
// fast-failed call's cancel is a no-op (its cell holds the undelivered
// response and both are left to the GC).
func (s sentCall) cancel() {
	c := s.c
	if c == nil {
		return
	}
	c.mu.Lock()
	_, mine := c.pending[s.id]
	delete(c.pending, s.id)
	c.mu.Unlock()
	if !mine {
		// Someone else removed the entry and owns the single send; it
		// has landed or is imminent. Take it, then recycle.
		putResponse(<-s.cl.ch)
	}
	putCall(s.cl)
}

// cancelRemote sends a cancel frame for slot index of the in-flight request
// id, telling the server to skip that op's UDF if it has not
// started. Best-effort: a dead stream or a request that already answered
// makes the frame a no-op, and the error (if any) is irrelevant — the op's
// future was already rejected locally.
func (c *Conn) cancelRemote(id uint64, index int) {
	_ = c.wc.writeCancel(&Cancel{ID: id, Index: uint32(index)})
}

// send registers the request and writes it through the coalescing writer.
//
//joinopt:hotpath
func (c *Conn) send(req *Request) sentCall {
	cl := getCall()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cl.ch <- errResponse(req.ID, CodeTransport, "connection closed")
		return sentCall{cl: cl}
	}
	c.nextID++
	req.ID = c.nextID
	id := req.ID
	c.pending[id] = cl
	c.mu.Unlock()
	if err := c.wc.writeRequest(req); err != nil {
		// Only fail the channel if the request is still pending: the read
		// loop (or failAll) may have already answered it, and a buffered
		// channel of one must receive exactly one response.
		c.mu.Lock()
		_, mine := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if mine {
			cl.ch <- errResponse(id, CodeTransport, "write failed: "+err.Error()) //lint:allow hotpath failed-write path; the concat prices the error, not the op
		}
		return sentCall{cl: cl}
	}
	return sentCall{cl: cl, c: c, id: id}
}

// Call sends req and waits for its response, bounded by the executor's
// default request timeout (ExecConfig.RequestTimeout); a failed response, a
// timeout included, surfaces as an *Error.
func (c *Conn) Call(req Request) (*Response, error) {
	return c.send(&req).result(req.Op, nil)
}

// result is the synchronous tail of Conn.Call and Pool.Call: wait under the
// default request timeout and surface a failed response as an *Error.
func (s sentCall) result(op Op, p *Pool) (*Response, error) {
	resp := s.wait(time.Duration(defaultRequestTimeout.Load()), p)
	if err := respError(op, resp); err != nil {
		putResponse(resp) // the *Error copied what it needs
		return nil, err
	}
	return resp, nil
}

// wait is the one wait on a call's response, bounded by d. A timed-out call
// is cancelled on its conn — the pending entry is dropped, a late response is
// discarded, and the pooled completion cell is recycled by the cancel — so a
// stalled-but-alive server cannot pin one abandoned call per timeout for the
// life of the connection. p is the pool the call went through, nil for a
// bare Conn, which learns no credits.
func (s sentCall) wait(d time.Duration, p *Pool) *Response {
	t := getTimer(d)
	defer putTimer(t)
	select {
	case resp := <-s.cl.ch:
		putCall(s.cl)
		return resp
	case <-t.C:
		s.cancel()
		// Attribute the deadline before surfacing it (the message callers
		// see must distinguish "the server never dequeued it" from "the
		// UDF ran long"): a node whose last advertised credit was zero was
		// saturated, so the request most likely expired in its run queue;
		// with credits available it was almost certainly in service. The
		// credit pair rides the fabricated response so respError can mark
		// the queue case Overload without string sniffing.
		var credit, window uint8
		if p != nil {
			credit, window = p.lastCredits()
		}
		msg := fmt.Sprintf("no response within %v with credits available — request was likely in service (long-running UDF or oversized batch)", d)
		if window > 0 && credit == 0 {
			msg = fmt.Sprintf("no response within %v; node advertised 0/%d credits — request was likely still queued at an overloaded server, not in service", d, window)
		}
		resp := errResponse(s.id, CodeTimeout, msg)
		resp.Credit, resp.Window = credit, window
		return resp
	}
}

// timerPool recycles the deadline timers of wait: every wire attempt would
// otherwise allocate a timer it almost never lets fire. Since Go 1.23 a
// stopped or reset timer's channel holds no stale value, so a recycled timer
// needs no drain.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func putTimer(t *time.Timer) {
	t.Stop()
	timerPool.Put(t)
}

// Close closes the connection; pending calls fail via the read loop's exit.
func (c *Conn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.wc.Close()
}
