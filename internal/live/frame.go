package live

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// wireVersion is the protocol generation spoken by this build. Version 2
// added the cancel frame (kindCancel); version 3 added the request's
// priority byte and the response's backpressure header (credit/window,
// retry-after, queue/service micros); version 4 added the request's routing
// epoch (membership) and the CodeMoved redirect payload — see the package
// doc. The frame layouts are not self-describing, so both ends of a
// deployment must move together (as with any golden-bytes bump). The
// priority byte's high bit (prioNoCache) needed no bump: a node that
// predates it serves the flagged fetch in its normal lane and registers it.
const wireVersion = 4

// Message kinds: the first byte of every frame payload.
const (
	kindRequest      byte = 0x01
	kindResponse     byte = 0x02
	kindNotification byte = 0x03
	kindCancel       byte = 0x04 // client abandons one batched op
)

// maxFrame bounds a single frame payload so a corrupt or hostile length
// prefix cannot make the reader allocate unbounded memory.
const maxFrame = 64 << 20 // 64 MiB

var (
	errFrameTooBig = errors.New("live: frame exceeds 64 MiB size limit")
	errTruncated   = errors.New("live: truncated frame")
	errBadKind     = errors.New("live: unknown message kind")
)

// The buffer arena: one shared pool behind every hot byte-buffer whose
// lifetime ends inside the plane — encode buffers on both sides, the
// coalescing writers' queued frames, and the server's pooled request
// frames. Buffers grow in place to the workload's frame size and then
// circulate at that capacity, so the steady state allocates nothing; a
// buffer that ballooned past bufRecycleMax is left to the GC instead, so
// one jumbo frame cannot pin megabytes in the pool for the life of the
// process. Client-side reads take no arena buffer (readMessage): a
// notification or a value-less response (a put ack, an error reply) is
// decoded in place in the connection's read buffer, every field a copy, and
// a response that carries values gets an exact-size GC allocation — its
// values escape into futures and the cache, so the buffer could never come
// back, and a pool that leaks its buffers is just a slow allocator.
const (
	bufInitialCap = 4 << 10
	bufRecycleMax = 1 << 20
)

var bufArena = sync.Pool{
	New: func() any {
		b := make([]byte, 0, bufInitialCap)
		return &b
	},
}

// poisonBuf, when set, is called with every buffer entering the arena.
// Tests install a scribbler here (atomically, so in-flight connections can
// race the install safely) so any reader still aliasing a released buffer
// (a lifecycle bug) sees garbage instead of silently reading stale bytes
// that happen to still look right.
var poisonBuf atomic.Pointer[func([]byte)]

// getBuf returns a zero-length arena buffer with capacity >= n.
func getBuf(n int) *[]byte {
	bp := bufArena.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, 0, n)
	}
	return bp
}

// putBuf returns a buffer to the arena; oversized buffers go to the GC.
//
//joinopt:pooled
func putBuf(bp *[]byte) {
	if bp == nil {
		return
	}
	c := cap(*bp)
	if c > bufRecycleMax {
		return
	}
	if poison := poisonBuf.Load(); poison != nil {
		(*poison)((*bp)[:c])
	}
	*bp = (*bp)[:0]
	bufArena.Put(bp)
}

// interner dedups decoded strings for one connection's read loop. Keys and
// table names repeat across a connection's lifetime, so after the first
// sighting a string decodes without allocating (the map lookup on a byte
// slice does not copy). Single-reader by construction — each connection has
// exactly one read loop — so no lock. Memory is bounded against hostile
// streams on both axes: strings longer than internMaxStr never enter the
// map (they are returned as plain copies), and the map is reset wholesale
// when it reaches internCap entries, capping a connection's interner at
// internCap × internMaxStr bytes.
const (
	internCap    = 8192
	internMaxStr = 256
)

type interner struct {
	m map[string]string
}

func (it *interner) str(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > internMaxStr {
		return string(b)
	}
	if it.m == nil {
		it.m = make(map[string]string, 64)
	} else if s, ok := it.m[string(b)]; ok {
		return s
	}
	if len(it.m) >= internCap {
		it.m = make(map[string]string, 64)
	}
	s := string(b)
	it.m[s] = s
	return s
}

// appendString writes a length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendBlob writes a byte slice distinguishing nil from empty: 0 encodes
// nil, n+1 encodes a slice of length n. OpExec semantics depend on the
// difference (a nil param means "no parameters", not "empty parameters").
func appendBlob(b, v []byte) []byte {
	if v == nil {
		return binary.AppendUvarint(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(v))+1)
	return append(b, v...)
}

func appendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// appendRequest encodes req after a kindRequest byte.
//
//joinopt:hotpath
func appendRequest(b []byte, req *Request) []byte {
	b = append(b, kindRequest)
	b = binary.AppendUvarint(b, req.ID)
	b = append(b, byte(req.Op), byte(req.Priority))
	b = binary.AppendUvarint(b, req.Epoch) // routing epoch
	b = appendString(b, req.Table)
	b = binary.AppendUvarint(b, uint64(len(req.Keys)))
	for _, k := range req.Keys {
		b = appendString(b, k)
	}
	b = binary.AppendUvarint(b, uint64(len(req.Params)))
	for _, p := range req.Params {
		b = appendBlob(b, p)
	}
	s := &req.Stats
	b = binary.AppendVarint(b, int64(s.PendingLocal))
	b = binary.AppendVarint(b, int64(s.PendingDataReqs))
	b = binary.AppendVarint(b, int64(s.PendingComputeReqs))
	b = binary.AppendVarint(b, int64(s.PendingDataResps))
	b = binary.AppendVarint(b, int64(s.OutstandingOther))
	b = binary.AppendVarint(b, int64(s.OtherComputedAtData))
	b = appendFloat64(b, s.TCC)
	b = appendFloat64(b, s.NetBw)
	return b
}

// appendResponse encodes resp after a kindResponse byte. The Computed flags
// are bit-packed, eight per byte, LSB first.
//
//joinopt:hotpath
func appendResponse(b []byte, resp *Response) []byte {
	b = append(b, kindResponse)
	b = binary.AppendUvarint(b, resp.ID)
	b = append(b, byte(resp.Code))
	b = appendString(b, resp.Err)
	b = append(b, resp.Credit, resp.Window)
	b = binary.AppendUvarint(b, resp.RetryAfterMillis)
	b = binary.AppendUvarint(b, resp.QueueMicros)
	b = binary.AppendUvarint(b, resp.ServiceMicros)
	b = binary.AppendUvarint(b, uint64(len(resp.Values)))
	for _, v := range resp.Values {
		b = appendBlob(b, v)
	}
	b = binary.AppendUvarint(b, uint64(len(resp.Computed)))
	var bits byte
	for i, c := range resp.Computed {
		if c {
			bits |= 1 << (i % 8)
		}
		if i%8 == 7 {
			b = append(b, bits)
			bits = 0
		}
	}
	if len(resp.Computed)%8 != 0 {
		b = append(b, bits)
	}
	b = binary.AppendUvarint(b, uint64(len(resp.Metas)))
	for i := range resp.Metas {
		m := &resp.Metas[i]
		b = binary.AppendVarint(b, m.ValueSize)
		b = binary.AppendVarint(b, m.ComputedSize)
		b = appendFloat64(b, m.ComputeCost)
		b = binary.AppendVarint(b, m.Version)
	}
	return b
}

// appendNotification encodes n after a kindNotification byte.
func appendNotification(b []byte, n *Notification) []byte {
	b = append(b, kindNotification)
	b = appendString(b, n.Table)
	b = appendString(b, n.Key)
	b = binary.AppendVarint(b, n.Version)
	return b
}

// appendCancel encodes c after a kindCancel byte.
func appendCancel(b []byte, c *Cancel) []byte {
	b = append(b, kindCancel)
	b = binary.AppendUvarint(b, c.ID)
	b = binary.AppendUvarint(b, uint64(c.Index))
	return b
}

// frameReader is a sticky-error cursor over one frame payload. All slice
// reads alias the underlying buffer (zero-copy); the buffer's ownership
// passes to the decoded message unless the caller recycles it after copying
// what it keeps (the server does, for request frames). When in is non-nil,
// decoded strings are interned through it instead of allocated.
type frameReader struct {
	buf []byte
	pos int
	err error
	in  *interner
}

func (r *frameReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *frameReader) remaining() int { return len(r.buf) - r.pos }

func (r *frameReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.fail(errTruncated)
		return 0
	}
	v := r.buf[r.pos]
	r.pos++
	return v
}

func (r *frameReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.pos += n
	return v
}

func (r *frameReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.pos += n
	return v
}

func (r *frameReader) float64() float64 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 8 {
		r.fail(errTruncated)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.pos:]))
	r.pos += 8
	return v
}

// take returns the next n bytes as a capacity-clamped subslice of the frame
// buffer.
func (r *frameReader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(r.remaining()) {
		r.fail(errTruncated)
		return nil
	}
	end := r.pos + int(n)
	s := r.buf[r.pos:end:end]
	r.pos = end
	return s
}

func (r *frameReader) string() string {
	b := r.take(r.uvarint())
	if r.in != nil {
		return r.in.str(b)
	}
	return string(b)
}

// blob reads a nil-aware byte slice (see appendBlob).
func (r *frameReader) blob() []byte {
	n := r.uvarint()
	if n == 0 {
		return nil
	}
	return r.take(n - 1)
}

// sliceCap clamps a wire-declared element count to a safe initial slice
// capacity: no more than the remaining bytes could possibly hold (each
// element costs at least one wire byte), and no more than a fixed ceiling —
// in-memory elements are up to 32x their minimum wire size, so a hostile
// count backed by a large frame could otherwise force a multi-GiB
// pre-allocation. Past the ceiling, append grows the slice only as fast as
// real elements actually decode.
func (r *frameReader) sliceCap(n uint64) int {
	const maxInitial = 4096 // far above any real batch size
	if rem := uint64(r.remaining()); n > rem {
		n = rem
	}
	if n > maxInitial {
		return maxInitial
	}
	return int(n)
}

// decodeRequest decodes a kindRequest payload into a fresh Request. Params
// alias the payload.
func decodeRequest(payload []byte) (Request, error) {
	var req Request
	err := decodeRequestInto(payload, &req, nil)
	return req, err
}

// decodeRequestInto decodes a kindRequest payload into req, reusing req's
// slice capacities (the pooled-request read path decodes with zero steady-
// state allocations). Params alias the payload; strings are interned through
// in when non-nil.
//
//joinopt:hotpath
func decodeRequestInto(payload []byte, req *Request, in *interner) error {
	r := frameReader{buf: payload, in: in}
	if r.byte() != kindRequest {
		return errBadKind
	}
	req.ID = r.uvarint()
	req.Op = Op(r.byte())
	req.Priority = Priority(r.byte())
	req.Epoch = r.uvarint() // routing epoch
	req.Table = r.string()
	req.Keys = req.Keys[:0]
	if nk := r.uvarint(); nk > 0 {
		if req.Keys == nil {
			req.Keys = make([]string, 0, r.sliceCap(nk))
		}
		for i := uint64(0); i < nk && r.err == nil; i++ {
			req.Keys = append(req.Keys, r.string())
		}
	}
	req.Params = req.Params[:0]
	if np := r.uvarint(); np > 0 {
		if req.Params == nil {
			req.Params = make([][]byte, 0, r.sliceCap(np))
		}
		for i := uint64(0); i < np && r.err == nil; i++ {
			req.Params = append(req.Params, r.blob())
		}
	}
	s := &req.Stats
	s.PendingLocal = int(r.varint())
	s.PendingDataReqs = int(r.varint())
	s.PendingComputeReqs = int(r.varint())
	s.PendingDataResps = int(r.varint())
	s.OutstandingOther = int(r.varint())
	s.OtherComputedAtData = int(r.varint())
	s.TCC = r.float64()
	s.NetBw = r.float64()
	return r.err
}

// decodeResponse decodes a kindResponse payload into a fresh Response.
// Values alias the payload.
func decodeResponse(payload []byte) (Response, error) {
	var resp Response
	err := decodeResponseInto(payload, &resp)
	return resp, err
}

// decodeResponseInto decodes a kindResponse payload into resp, reusing
// resp's slice capacities (the pooled-response read path decodes with zero
// steady-state allocations). Values alias the payload.
//
//joinopt:hotpath
func decodeResponseInto(payload []byte, resp *Response) error {
	r := frameReader{buf: payload}
	if r.byte() != kindResponse {
		return errBadKind
	}
	r.responseBody(resp, r.responseHead(resp))
	return r.err
}

// responseHead decodes a response's fields up to and including its value
// count, which it returns: everything before the values, so a reader can
// choose where the values will live (readMessage) without decoding twice.
// The error string is a copy.
//
//joinopt:hotpath
func (r *frameReader) responseHead(resp *Response) uint64 {
	resp.ID = r.uvarint()
	resp.Code = ErrCode(r.byte())
	resp.Err = r.string()
	resp.Credit = r.byte()
	resp.Window = r.byte()
	resp.RetryAfterMillis = r.uvarint()
	resp.QueueMicros = r.uvarint()
	resp.ServiceMicros = r.uvarint()
	return r.uvarint()
}

// responseBody decodes the rest of a response after responseHead: nv values
// (aliasing r.buf), the Computed flags and the metas (copies).
//
//joinopt:hotpath
func (r *frameReader) responseBody(resp *Response, nv uint64) {
	resp.Values = resp.Values[:0]
	if nv > 0 {
		if resp.Values == nil {
			resp.Values = make([][]byte, 0, r.sliceCap(nv))
		}
		for i := uint64(0); i < nv && r.err == nil; i++ {
			resp.Values = append(resp.Values, r.blob())
		}
	}
	nc := r.uvarint()
	// Bound-check before the ceiling division: a hostile count near 2^64
	// would wrap (nc+7)/8 to a tiny number and sail past take() into a
	// huge make() below. Eight flags cost at least one byte.
	if nc > uint64(r.remaining())*8 {
		r.fail(errTruncated)
		nc = 0
	}
	packed := r.take((nc + 7) / 8)
	resp.Computed = resp.Computed[:0]
	if r.err == nil && nc > 0 {
		if resp.Computed == nil {
			resp.Computed = make([]bool, 0, r.sliceCap(nc))
		}
		for i := uint64(0); i < nc; i++ {
			resp.Computed = append(resp.Computed, packed[i/8]&(1<<(i%8)) != 0)
		}
	}
	nm := r.uvarint()
	resp.Metas = resp.Metas[:0]
	if nm > 0 && resp.Metas == nil {
		resp.Metas = make([]Meta, 0, r.sliceCap(nm))
	}
	for i := uint64(0); i < nm && r.err == nil; i++ {
		var m Meta
		m.ValueSize = r.varint()
		m.ComputedSize = r.varint()
		m.ComputeCost = r.float64()
		m.Version = r.varint()
		resp.Metas = append(resp.Metas, m)
	}
}

// decodeCancel decodes a kindCancel payload. A hostile index beyond
// uint32's range is clamped, not wrapped: MaxUint32 is a slot no real batch
// has (batches top out around the 4096 decode ceiling), so an oversized
// value cancels nothing instead of aliasing a live low-numbered slot.
func decodeCancel(payload []byte) (Cancel, error) {
	r := frameReader{buf: payload}
	if r.byte() != kindCancel {
		return Cancel{}, errBadKind
	}
	var c Cancel
	c.ID = r.uvarint()
	idx := r.uvarint()
	if idx > math.MaxUint32 {
		idx = math.MaxUint32
	}
	c.Index = uint32(idx)
	return c, r.err
}

// decodeNotification decodes a kindNotification payload.
func decodeNotification(payload []byte) (Notification, error) {
	r := frameReader{buf: payload}
	if r.byte() != kindNotification {
		return Notification{}, errBadKind
	}
	var n Notification
	n.Table = r.string()
	n.Key = r.string()
	n.Version = r.varint()
	return n, r.err
}

// decodeMessage dispatches a payload on its kind byte; it is the single
// entry point the fuzzer drives.
func decodeMessage(payload []byte) error {
	if len(payload) == 0 {
		return errTruncated
	}
	var err error
	switch payload[0] {
	case kindRequest:
		_, err = decodeRequest(payload)
	case kindResponse:
		_, err = decodeResponse(payload)
	case kindNotification:
		_, err = decodeNotification(payload)
	case kindCancel:
		_, err = decodeCancel(payload)
	default:
		err = errBadKind
	}
	return err
}

// readFrameLen reads a frame's uvarint length header and bounds it.
func readFrameLen(br *bufio.Reader) (int, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, err
	}
	if n > maxFrame {
		return 0, errFrameTooBig
	}
	return int(n), nil
}

// unexpectedEOF reports a stream that ended inside a frame as such.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readFramePooled reads one length-prefixed payload into an arena buffer
// (the server's request read): the caller owns the returned buffer and must
// putBuf it once nothing aliases the decoded message.
//
//joinopt:hotpath
func readFramePooled(br *bufio.Reader) (*[]byte, error) {
	n, err := readFrameLen(br)
	if err != nil {
		return nil, err
	}
	bp := getBuf(min(n, frameTrustMax))
	*bp, err = readPayload(br, (*bp)[:0], n)
	if err != nil {
		putBuf(bp)
		return nil, err
	}
	return bp, nil
}

// frameTrustMax is how much of a frame's claimed length a reader allocates
// before any of its bytes arrive. A frame up to it is read into one
// exact-size buffer; past it, the buffer grows as the bytes come in, so a
// header that claims maxFrame over a stream that ends costs at most this
// much, not 64 MiB.
const frameTrustMax = 1 << 20

// readPayload reads an n-byte payload into buf, which starts empty: the
// bytes go into buf's capacity first, and past it buf at least doubles per
// step, never beyond n.
func readPayload(br *bufio.Reader, buf []byte, n int) ([]byte, error) {
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), max(len(buf), frameTrustMax)))
		}
		m, err := io.ReadFull(br, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+m]
		if err != nil {
			return buf, unexpectedEOF(err)
		}
	}
	return buf, nil
}

// frameHdrMax is the reserved prefix every encode buffer starts with: the
// payload is encoded at [frameHdrMax:], then the uvarint length header is
// written right-aligned into the reserved bytes, so a frame is framed
// in place with zero copies. binary.MaxVarintLen64 covers any length.
const frameHdrMax = binary.MaxVarintLen64

var frameHdrPad [frameHdrMax]byte

// finishFrame frames a buffer encoded after a frameHdrPad prefix: it writes
// the length header right-aligned before the payload and returns the offset
// the frame starts at.
func finishFrame(b []byte) int {
	payload := len(b) - frameHdrMax
	var hdr [frameHdrMax]byte
	n := binary.PutUvarint(hdr[:], uint64(payload))
	off := frameHdrMax - n
	copy(b[off:], hdr[:n])
	return off
}
