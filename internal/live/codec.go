package live

import (
	"bufio"
	"io"
)

// Wire names the on-the-wire encoding. The binary framing layer of frame.go
// is the only transport, so the type has one value and selects nothing: it,
// WireBinary, ExecConfig.Wire and the trailing wire argument of NewServer,
// DialNode and DialPool survive only because the benchmark module compiles
// against them and is frozen for this change. A later benchmark change drops
// the argument, and then the type goes.
type Wire uint8

// WireBinary is the length-prefixed binary framing layer.
const WireBinary Wire = 0

// binCodec speaks the binary framing protocol of frame.go. Encoding happens
// in the sender into an arena buffer; the framed bytes are queued and a
// single writer goroutine per connection gathers all frames queued since the
// last syscall into one buffered write — concurrent senders share syscalls
// instead of serializing on a mutex. Writes are safe for concurrent use;
// reads are single-reader (each conn has one read loop).
type binCodec struct {
	br *bufio.Reader
	fw frameSink
	in interner // request-string interning; single reader per conn
}

// frameSink takes each framed buffer, and with it the buffer's ownership: a
// connection's coalescing frameWriter, or the synchronous writer of tests
// that drive in-memory buffers.
type frameSink interface {
	enqueue(f outFrame) error
	Close()
}

// newBinCodecConn builds the production codec over a real connection, with
// the coalescing writer attached. The conn is closed on a write error so
// the read loop observes the break.
func newBinCodecConn(c io.ReadWriteCloser) *binCodec {
	return &binCodec{br: bufio.NewReaderSize(c, 64<<10), fw: newFrameWriter(c, c)}
}

// close stops the writer goroutine; the underlying conn is closed separately
// by wireConn.Close.
func (c *binCodec) close() { c.fw.Close() }

func (c *binCodec) send(encode func([]byte) []byte) error {
	bp := getBuf(bufInitialCap)
	b := append((*bp)[:0], frameHdrPad[:]...)
	b = encode(b)
	*bp = b
	if len(b)-frameHdrMax > maxFrame {
		putBuf(bp)
		return errFrameTooBig
	}
	return c.fw.enqueue(outFrame{bp: bp, off: int32(finishFrame(b))})
}

func (c *binCodec) writeRequest(req *Request) error {
	//joinopt:xfer synchronous encode borrow: send returns before the caller recycles req
	return c.send(func(b []byte) []byte { return appendRequest(b, req) })
}

func (c *binCodec) writeResponse(resp *Response) error {
	//joinopt:xfer synchronous encode borrow: send returns before the caller recycles resp
	return c.send(func(b []byte) []byte { return appendResponse(b, resp) })
}

func (c *binCodec) writeNotification(n *Notification) error {
	return c.send(func(b []byte) []byte { return appendNotification(b, n) })
}

// writeCancel abandons one batched op of an in-flight request; it rides the
// same ordered stream as the request.
func (c *binCodec) writeCancel(cn *Cancel) error {
	return c.send(func(b []byte) []byte { return appendCancel(b, cn) })
}

// readRequest is the server-side read (clients send requests and cancels).
// It decodes a request into req, reusing req's slice capacities — the decoded
// strings and params stay valid until putRequest — and returns (nil, nil). A
// cancel frame leaves req untouched and returns it as the first result
// instead.
func (c *binCodec) readRequest(req *Request) (*Cancel, error) {
	bp, err := readFramePooled(c.br)
	if err != nil {
		return nil, err
	}
	if len(*bp) > 0 && (*bp)[0] == kindCancel {
		cn, err := decodeCancel(*bp)
		putBuf(bp)
		if err != nil {
			return nil, err
		}
		return &cn, nil
	}
	if err := decodeRequestInto(*bp, req, &c.in); err != nil {
		putBuf(bp)
		return nil, err
	}
	// The decoded params alias the frame; its ownership rides along and
	// ends at putRequest.
	req.frame = bp
	return nil, nil
}

// readMessage is the client-side read: exactly one of the results is non-nil
// on success. A returned Response is pool-sourced; the party that consumes it
// owns its recycling. A frame that fits the read buffer is decoded where it
// lies (decodeClientMessage); a larger one is read into its own allocation,
// exact-size up to frameTrustMax (readPayload).
//
//joinopt:hotpath
func (c *binCodec) readMessage() (*Response, *Notification, error) {
	n, err := readFrameLen(c.br)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, nil, errTruncated
	}
	if n > c.br.Size() {
		payload, err := readPayload(c.br, make([]byte, 0, min(n, frameTrustMax)), n) //lint:allow hotpath a frame larger than the read buffer
		if err != nil {
			return nil, nil, err
		}
		return decodeClientMessage(payload, false)
	}
	payload, err := c.br.Peek(n)
	if err != nil {
		return nil, nil, unexpectedEOF(err)
	}
	resp, notif, err := decodeClientMessage(payload, true)
	_, _ = c.br.Discard(n) // cannot fail: Peek buffered all n bytes
	return resp, notif, err
}

// decodeClientMessage decodes a response or notification payload. With
// borrowed set the payload is the read buffer, which the next read
// overwrites, so a response's header is decoded first, once: a notification
// or a response without values (a put ack, an error reply) keeps only
// copies, and a response with values gets an exact-size copy of the frame
// for them to alias — not an arena buffer, because they escape into futures
// and the cache (the zero-copy contract of Future.WaitErr).
//
//joinopt:hotpath
func decodeClientMessage(payload []byte, borrowed bool) (*Response, *Notification, error) {
	switch payload[0] {
	case kindResponse:
		resp := getResponse()
		r := frameReader{buf: payload, pos: 1}
		nv := r.responseHead(resp)
		if borrowed && nv > 0 && r.err == nil {
			r.buf = append(make([]byte, 0, len(payload)), payload...) //lint:allow hotpath the value-bearing response's frame: its values escape
		}
		r.responseBody(resp, nv)
		if r.err != nil {
			putResponse(resp)
			return nil, nil, r.err
		}
		return resp, nil, nil
	case kindNotification:
		notif, err := decodeNotification(payload)
		if err != nil {
			return nil, nil, err
		}
		return nil, &notif, nil
	}
	return nil, nil, errBadKind
}
