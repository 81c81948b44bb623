package live

const (
	// maxRetryAfterMillis clamps the shed hint: past 2s the estimate says
	// more about EWMA noise than about real drain time.
	maxRetryAfterMillis = 2000
	// windowLatencyBudget caps the advertised per-conn window at roughly
	// this many seconds of queued service time, so a slow-UDF class
	// advertises a small window and a cheap-fetch class a large one.
	windowLatencyBudget = 0.050
)

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
	ms := uint64(float64(depth+1) * s.classSvc[cl].load() / float64(workers) * 1000)
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
	if svc := s.classSvc[cl].load(); svc > 0 {
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

// respond is the one way a response leaves the server, served or shed: stamp
// the backpressure pair, frame the bytes onto the conn's writer, then recycle
// the response, deregister the request (Drain counts it finished from here)
// and recycle it with its frame — every carrier on the server-side hot path
// is pooled, so a steady-state request allocates only what its UDF produces.
//
// A frame-size rejection leaves the connection clean (nothing was written):
// answer with a small error response so the client's pending call fails
// instead of hanging. Any other write error means a broken stream; close it
// so the client's read loop fails every pending call.
//
//joinopt:hotpath
func (s *Server) respond(wc *wireConn, req *Request, resp *Response, cl opClass) {
	s.stampCredit(wc, resp, cl)
	err := wc.writeResponse(resp)
	putResponse(resp)
	if err == errFrameTooBig {
		small := errResponse(req.ID, CodeServer, errFrameTooBig.Error())
		err = wc.writeResponse(small)
		putResponse(small)
	}
	if err != nil {
		wc.Close()
	}
	wc.endActive(req.ID)
	putRequest(req)
}
