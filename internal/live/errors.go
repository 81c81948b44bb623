package live

import (
	"fmt"
	"time"
)

// ErrCode classifies a failed request so callers can tell apart the three
// outcomes that used to collapse into a nil value: the server answered with
// an error, the wire failed underneath the request, or the request was never
// answered at all. "Key absent" is NOT an error: a missing row resolves the
// future to a nil value with a nil error.
type ErrCode uint8

const (
	// CodeOK is the zero value: no error. It never appears inside an
	// *Error; it exists so a Response's wire byte has a "success" state.
	CodeOK ErrCode = iota
	// CodeServer: the store node received the request and rejected it
	// (unknown table, unregistered UDF, malformed batch). Retrying the
	// same request would fail the same way.
	CodeServer
	// CodeTransport: the connection failed underneath the request — dial
	// refused, stream cut mid-frame, decode error, write error — or a
	// closing store node refused it at admission. The request may or may
	// not have reached the server; idempotent ops are safe to retry on a
	// fresh connection.
	CodeTransport
	// CodeTimeout: no response within ExecConfig.RequestTimeout. The
	// request is abandoned (a late response is dropped on the floor).
	CodeTimeout
	// CodeClosed: the executor or pool was shut down while the request
	// was pending. Never retried.
	CodeClosed
	// CodeCanceled: the submission's context was canceled (or its
	// deadline passed) before the result arrived. The work is abandoned
	// best-effort all the way to the data node: a cancel frame tells the
	// server to skip UDF execution it has not started yet. Never retried.
	CodeCanceled
	// CodeOverloaded: the store node's bounded run queue for the op's
	// class was full and the request was shed at admission — the server
	// did zero work on it. The error carries a retry-after hint
	// (Error.RetryAfter) estimating when queue headroom returns; the
	// executor retries idempotent ops after that hint (with jitter) and
	// never retries puts. Shed ops are counted in Stats.Shed, not Failed,
	// and never feed the optimizer's cost model.
	CodeOverloaded
	// CodeMoved: the store node no longer owns (at least one of) the
	// request's keys — the partition migrated to a new owner under a newer
	// membership epoch. The server did zero work on the
	// request; the response's redirect payload carries the new epoch and
	// the moved regions' owners + addresses. The executor resolves the
	// redirect transparently — it updates its partition map, dials the new
	// owner if needed and re-sends — so under a healthy membership map
	// callers never observe this code; it can only surface after the
	// redirect-hop budget is exhausted (a routing loop, i.e. a broken map).
	CodeMoved
)

// String returns the wire-doc name of the code.
func (c ErrCode) String() string {
	switch c {
	case CodeOK:
		return "ok"
	case CodeServer:
		return "server"
	case CodeTransport:
		return "transport"
	case CodeTimeout:
		return "timeout"
	case CodeClosed:
		return "closed"
	case CodeCanceled:
		return "canceled"
	case CodeOverloaded:
		return "overloaded"
	case CodeMoved:
		return "moved"
	}
	return fmt.Sprintf("ErrCode(%d)", uint8(c))
}

// Error is the structured failure of one request: which operation failed,
// how (the code), and the human-readable detail. Every error a Future
// rejects with is an *Error, so callers can switch on Code (use errors.As
// through wrapping layers).
type Error struct {
	Code ErrCode
	Op   Op
	Msg  string
	// retryAfter backs the RetryAfter accessor; set only from the wire's
	// retry-after field on CodeOverloaded responses.
	retryAfter time.Duration
	// Overload reports whether the failure is attributable to server
	// overload rather than the work itself: always true for
	// CodeOverloaded, and true for a CodeTimeout whose node last
	// advertised zero credits (the request most likely expired in the run
	// queue, never dequeued — as opposed to a UDF running long).
	Overload bool
}

func (e *Error) Error() string {
	return fmt.Sprintf("live: %s %s: %s", opName(e.Op), e.Code, e.Msg)
}

// RetryAfter returns the server's load-shed hint: how long to wait before a
// retry has a chance of being admitted (the shed node's queue-depth × EWMA
// service-time estimate, clamped to [1ms, 2s] on the serving side). Nonzero
// only for CodeOverloaded errors; zero means "no hint" — the failure was not
// an admission shed, and callers should fall back to their own backoff.
//
// This is the first-class surface of the wire's retry-after field: callers
// branching on ErrOverloaded should sleep at least this long (ideally with
// jitter) before retrying, which is exactly what the executor does for
// idempotent ops. Non-idempotent puts are never auto-retried; a caller
// choosing to retry one should honor the same hint.
func (e *Error) RetryAfter() time.Duration { return e.retryAfter }

// Retryable reports whether a fresh attempt could succeed: only transport
// failures qualify. Server rejections are deterministic, timeouts already
// consumed the caller's deadline, and closed means shutdown. CodeOverloaded
// is deliberately NOT Retryable: the executor handles shed retries on a
// separate path (idempotent ops only, after the server's retry-after hint,
// with jitter) so generic retry loops cannot hammer a saturated node.
func (e *Error) Retryable() bool { return e.Code == CodeTransport }

// opNone marks an error raised before the submission was routed to a wire
// op (a context canceled at the door, an abandoned WaitCtx).
const opNone Op = 0xFF

func opName(op Op) string {
	switch op {
	case OpGet:
		return "get"
	case OpExec:
		return "exec"
	case OpPut:
		return "put"
	case OpPutRepl:
		return "putrepl"
	case OpScan:
		return "scan"
	case opNone:
		return "request"
	}
	return fmt.Sprintf("Op(%d)", uint8(op))
}

// respError converts a Response's wire error fields into a typed *Error, or
// nil if the response is a success. Responses from old peers that set Err
// without a code are classified CodeServer.
func respError(op Op, resp *Response) *Error {
	if resp.Code == CodeOK && resp.Err == "" {
		return nil
	}
	code := resp.Code
	if code == CodeOK {
		code = CodeServer
	}
	e := &Error{Code: code, Op: op, Msg: resp.Err}
	if code == CodeOverloaded {
		e.retryAfter = time.Duration(resp.RetryAfterMillis) * time.Millisecond
		e.Overload = true
	} else if code == CodeTimeout && resp.Window > 0 && resp.Credit == 0 {
		// Locally fabricated timeout responses carry the node's last
		// advertised credit state (see callOnce): a zero-credit window at
		// expiry means the request was most likely still queued.
		e.Overload = true
	}
	return e
}

// errResponse builds the local (never-on-the-wire) Response carrying a
// client-side failure into the normal response plumbing. Pool-sourced like
// every decoded response, so one recycling rule covers both.
func errResponse(id uint64, code ErrCode, msg string) *Response {
	r := getResponse()
	r.ID, r.Code, r.Err = id, code, msg
	return r
}
