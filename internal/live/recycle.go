package live

import "sync"

// This file is the object lifecycle of the hot path: every per-request
// carrier — Request, Response, completion cells, wire batches — is
// drawn from a sync.Pool and returned when its bytes are dead, so a
// steady-state join round trip costs a handful of allocations instead of
// one per object per op.
//
// Ownership rules (violations are lifecycle bugs; the arena's poison hook
// exists to surface them):
//
//   - A *Response travels exactly one of two roads: the executor's flush
//     goroutine receives it, distributes it via handleResponse and recycles
//     it; or a public Conn.Call/Pool.Call caller receives it and owns it
//     forever (it escapes the pool and dies by GC).
//   - A *liveBatch is drawn by the accumulator that fills it (takeLocked), owned
//     by the flush goroutine ship starts, and recycled there once
//     handleResponse has settled its entries (or by ship itself when nothing
//     is left to send).
//   - A call cell is recycled by its one receiver, sentCall.wait (or by
//     sentCall.cancel when the wait's deadline wins) — never by the sender
//     — because after the single buffered send lands, the receiver is the
//     last party to touch the channel.
//   - A server-side *Request (and the arena frame its params alias) is
//     recycled by the handler goroutine once the response bytes are framed.
//   - Decoded client response frames are NEVER recycled: their values alias
//     the frame and flow into futures and the cache (the zero-copy read
//     path documented in proto.go).

var respPool = sync.Pool{New: func() any { return new(Response) }}

// getResponse returns a cleared Response with whatever slice capacity its
// previous life accumulated.
func getResponse() *Response {
	return respPool.Get().(*Response)
}

// putResponse recycles a Response, dropping every value reference so a
// pooled response cannot pin row data, UDF outputs or a network frame.
//
//joinopt:pooled
func putResponse(r *Response) {
	if r == nil {
		return
	}
	vals := r.Values
	for i := range vals {
		vals[i] = nil
	}
	*r = Response{Values: vals[:0], Computed: r.Computed[:0], Metas: r.Metas[:0]}
	respPool.Put(r)
}

var reqPool = sync.Pool{New: func() any { return new(Request) }}

func getRequest() *Request {
	return reqPool.Get().(*Request)
}

// putRequest recycles a server-side Request and the arena frame buffer its
// params alias (ownership of both ends here).
//
//joinopt:pooled
func putRequest(r *Request) {
	if r == nil {
		return
	}
	frame := r.frame
	keys, params := r.Keys, r.Params
	for i := range keys {
		keys[i] = ""
	}
	for i := range params {
		params[i] = nil
	}
	*r = Request{Keys: keys[:0], Params: params[:0]}
	reqPool.Put(r)
	putBuf(frame)
}

// call is a pooled single-use completion slot for one in-flight wire
// request: the sender that removes the pending entry delivers exactly one
// response into ch, and the receiver recycles the cell after taking it.
//
//joinopt:pooled
type call struct {
	ch chan *Response
}

var callPool = sync.Pool{New: func() any { return &call{ch: make(chan *Response, 1)} }}

func getCall() *call { return callPool.Get().(*call) }

//joinopt:pooled
func putCall(c *call) { callPool.Put(c) }

// futCell is the pooled resolution machinery of a Future: a one-shot
// buffered channel. The Future header itself is never recycled (it is cut
// once from a futChunk, settle.go) so the documented contract — WaitErr is
// safe for repeated and concurrent callers forever — survives pooling; only
// the channel, which exactly one resolve sends into and exactly one WaitErr
// receives from, is recycled.
//
//joinopt:pooled
type futCell struct {
	ch chan futResult
}

var futCellPool = sync.Pool{New: func() any { return &futCell{ch: make(chan futResult, 1)} }}

func getFutCell() *futCell { return futCellPool.Get().(*futCell) }

//joinopt:pooled
func putFutCell(c *futCell) { futCellPool.Put(c) }
