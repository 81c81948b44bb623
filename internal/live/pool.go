package live

import (
	"sync/atomic"
	"time"
)

// Pool is a set of pipelined connections to one store node. Each Conn
// already multiplexes any number of in-flight requests by ID; the pool adds
// parallel TCP streams so large frames on one connection do not head-of-line
// block unrelated requests, and so the kernel can spread socket work across
// cores. Requests are spread round-robin over the healthy connections; a
// response always returns on the connection that carried its request.
//
// The pool is self-healing: when a connection's stream breaks (its read
// loop exits), the conn's in-flight calls fail with a CodeTransport
// response, its slot is vacated, and a background dialer redials it with
// exponential backoff while new calls route to the remaining healthy
// connections. With every slot down, a call fails fast with CodeTransport —
// it never blocks waiting for a redial — so the caller's retry policy stays
// in charge of timing.
//
// Slots are atomic pointers (nil while a slot's dialer is backing off), so
// the send hot path takes no lock: picking a conn is one atomic counter
// bump plus slot loads. Each conn is bound to its slot index and its read
// loop only starts after the slot is installed, so a conn that dies at any
// moment — even instantly — always finds its slot and triggers exactly one
// redialer.
type Pool struct {
	addr      string
	noConnMsg string // precomputed so a fast-fail burst allocates nothing
	onNotif   func(Notification)

	next   atomic.Uint64
	closed atomic.Bool
	slots  []atomic.Pointer[Conn] // conn per slot; nil while redialing

	// epoch counts real disconnects. A caller that snapshots it before a
	// send and finds it unchanged later knows no conn of this pool died
	// in between — the guard the executor uses before trusting a fetched
	// value's invalidation subscription enough to cache it.
	epoch atomic.Int64

	// onConnDown (may be nil; fixed at construction, before any read loop
	// can observe a death) runs once per real disconnect, after the slot
	// is vacated and the epoch is bumped. The executor uses it to drop
	// cache entries whose server-side invalidation subscription died with
	// the conn.
	onConnDown func()

	// Backpressure state. creditState packs the node's last
	// advertised credit/window pair (credit<<8 | window; window 0 = no
	// signal yet). outstanding counts this pool's requests on the wire
	// awaiting a response; the executor's pacing compares it against the
	// advertised window × slot count before releasing a batch. paceWaits
	// counts flushes that waited for credit at least once.
	creditState atomic.Uint32
	outstanding atomic.Int64
	paceWaits   atomic.Int64

	health poolCounters
}

// PoolHealth is a snapshot of a pool's connection health.
type PoolHealth struct {
	Size        int   // configured connection count
	Healthy     int   // currently usable connections
	Disconnects int64 // connection deaths observed
	Redials     int64 // successful reconnects
	RedialFails int64 // failed reconnect attempts (each backs off)
	FastFails   int64 // sends failed because no connection was healthy
	Credit      uint8 // node's last advertised per-conn credit
	Window      uint8 // node's last advertised per-conn window; 0 = no signal
	Outstanding int64 // requests on the wire awaiting a response
	PaceWaits   int64 // flushes that waited on exhausted credit
}

// poolCounters holds the pool's live health counters as atomics; Health()
// flattens them into a PoolHealth snapshot.
type poolCounters struct {
	Disconnects atomic.Int64
	Redials     atomic.Int64
	RedialFails atomic.Int64
	FastFails   atomic.Int64
}

// Redial backoff: first retry almost immediately (a node restart usually
// comes right back), then exponential up to the cap so a long outage does
// not busy-dial.
const (
	redialBase = 5 * time.Millisecond
	redialMax  = 500 * time.Millisecond
)

// DialPool opens size connections to a store node (size <= 0 means 1). All
// connections share the onNotif callback; the server pushes an invalidation
// on whichever connection fetched the key, so one callback sees them all.
// Every connection must succeed initially (a bad address fails fast);
// afterwards the pool redials broken connections on its own. The trailing
// wire argument is ignored (see Wire).
func DialPool(addr string, size int, onNotif func(Notification), _ ...Wire) (*Pool, error) {
	return dialPool(addr, size, onNotif, nil)
}

// dialPool is DialPool plus the disconnect hook, which must be bound
// before the first conn dials so no read loop can ever race its write.
func dialPool(addr string, size int, onNotif func(Notification), onConnDown func()) (*Pool, error) {
	if size <= 0 {
		size = 1
	}
	p := &Pool{addr: addr, noConnMsg: "no healthy connection to " + addr,
		onNotif: onNotif, onConnDown: onConnDown,
		slots: make([]atomic.Pointer[Conn], size)}
	for i := 0; i < size; i++ {
		if err := p.dialSlot(i); err != nil {
			p.Close()
			return nil, err
		}
	}
	return p, nil
}

// dialSlot dials one slot's connection, installs it, and only then starts
// its read loop, so the conn's death hook always finds it installed.
func (p *Pool) dialSlot(i int) error {
	c, err := dialDeferred(p.addr, p.onNotif, func(dead *Conn) { p.slotDown(i, dead) })
	if err != nil {
		return err
	}
	c.onCredit = p.observeCredit // before start: no read loop races the write
	p.slots[i].Store(c)
	c.start()
	// A Close racing the install could have swept the slots before the
	// Store: reclaim the conn ourselves so it cannot leak past Close.
	if p.closed.Load() && p.slots[i].CompareAndSwap(c, nil) {
		c.Close()
	}
	return nil
}

// slotDown is the conn-death hook: vacate the slot and start its dialer.
// In-flight calls were already failed by the conn itself. The CAS makes
// the death idempotent per conn, so exactly one redialer runs per slot.
func (p *Pool) slotDown(i int, dead *Conn) {
	if p.closed.Load() || !p.slots[i].CompareAndSwap(dead, nil) {
		return
	}
	p.health.Disconnects.Add(1)
	p.epoch.Add(1)
	go p.redial(i) // reconnect first; the down-hook must not delay it
	if p.onConnDown != nil {
		go p.onConnDown()
	}
}

// redial re-establishes one slot with exponential backoff until it
// succeeds or the pool closes.
func (p *Pool) redial(i int) {
	backoff := redialBase
	for !p.closed.Load() {
		if err := p.dialSlot(i); err == nil {
			p.health.Redials.Add(1)
			return
		}
		p.health.RedialFails.Add(1)
		time.Sleep(backoff)
		if backoff *= 2; backoff > redialMax {
			backoff = redialMax
		}
	}
}

// conn picks the next healthy connection round-robin, or nil if every slot
// is down. Lock-free: one counter bump, then slot loads.
func (p *Pool) conn() *Conn {
	n := len(p.slots)
	if n == 1 {
		return p.slots[0].Load()
	}
	start := p.next.Add(1)
	for i := 0; i < n; i++ {
		if c := p.slots[(start+uint64(i))%uint64(n)].Load(); c != nil {
			return c
		}
	}
	return nil
}

// live reports whether at least one slot currently holds a usable conn —
// the cheap health probe replica routing uses to skip dead nodes. Lock-free
// slot loads, like conn().
func (p *Pool) live() bool {
	if p.closed.Load() {
		return false
	}
	for i := range p.slots {
		if c := p.slots[i].Load(); c != nil && !c.Down() {
			return true
		}
	}
	return false
}

// fastFail is the shared allocation-free failure path of send: a pooled
// cell pre-loaded with a pooled error response. The caller always receives
// (the response is already buffered), so the handle carries no conn and
// its cancel is a no-op.
func fastFail(resp *Response) sentCall {
	cl := getCall()
	cl.ch <- resp
	return sentCall{cl: cl}
}

// send submits a request on one of the pooled connections and returns the
// cancel handle of Conn.send (see there). With the pool closed or every
// connection down it fails fast with CodeClosed/CodeTransport instead of
// blocking on a redial.
func (p *Pool) send(req *Request) sentCall {
	if p.closed.Load() {
		return fastFail(errResponse(req.ID, CodeClosed, "pool closed"))
	}
	c := p.conn()
	if c == nil {
		p.health.FastFails.Add(1)
		return fastFail(errResponse(req.ID, CodeTransport, p.noConnMsg))
	}
	return c.send(req)
}

// Call sends req on one of the pooled connections and waits for its
// response, bounded like Conn.Call; a failed response, a timeout included,
// surfaces as an *Error.
func (p *Pool) Call(req Request) (*Response, error) {
	return p.send(&req).result(req.Op, p)
}

// Size returns the number of connection slots in the pool.
func (p *Pool) Size() int { return len(p.slots) }

// Health snapshots the pool's connection health counters.
func (p *Pool) Health() PoolHealth {
	healthy := 0
	for i := range p.slots {
		if c := p.slots[i].Load(); c != nil && !c.Down() {
			healthy++
		}
	}
	credit, window := p.lastCredits()
	return PoolHealth{
		Size:        len(p.slots),
		Healthy:     healthy,
		Disconnects: p.health.Disconnects.Load(),
		Redials:     p.health.Redials.Load(),
		RedialFails: p.health.RedialFails.Load(),
		FastFails:   p.health.FastFails.Load(),
		Credit:      credit,
		Window:      window,
		Outstanding: p.outstanding.Load(),
		PaceWaits:   p.paceWaits.Load(),
	}
}

// observeCredit records the backpressure pair from a response; installed
// as every conn's onCredit hook.
func (p *Pool) observeCredit(credit, window uint8) {
	p.creditState.Store(uint32(credit)<<8 | uint32(window))
}

// lastCredits unpacks the node's last advertised credit/window pair; window
// 0 means the node has not signaled (nothing answered yet).
func (p *Pool) lastCredits() (credit, window uint8) {
	cs := p.creditState.Load()
	return uint8(cs >> 8), uint8(cs)
}

// starved reports whether the node's last response advertised an exhausted
// admission window (credit 0 of a signaled window).
func (p *Pool) starved() bool {
	credit, window := p.lastCredits()
	return window > 0 && credit == 0
}

// budget is the pool-wide outstanding-op allowance implied by the node's
// advertised per-conn window, or 0 when the node has not signaled.
func (p *Pool) budget() int64 {
	_, window := p.lastCredits()
	return int64(window) * int64(len(p.slots))
}

// Close closes every connection and stops the redialers; the first error
// wins. Safe to call more than once.
func (p *Pool) Close() error {
	p.closed.Store(true)
	var first error
	for i := range p.slots {
		if c := p.slots[i].Swap(nil); c != nil {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
