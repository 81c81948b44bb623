package live

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"joinopt/internal/loadbalance"
)

// --- Golden bytes -----------------------------------------------------------
//
// These literals pin the wire format byte for byte. If one of them breaks,
// the protocol changed: bump it knowingly (old and new binaries cannot
// interoperate) rather than "fixing" the test.

func TestGoldenRequestOpGet(t *testing.T) {
	req := Request{ID: 1, Op: OpGet, Table: "t", Keys: []string{"a", "b"}}
	want := []byte{
		0x01,      // kind: request
		0x01,      // id = 1
		0x00,      // op = OpGet
		0x00,      // priority = PriorityNormal
		0x00,      // epoch = 0: no membership
		0x01, 't', // table "t"
		0x02,      // 2 keys
		0x01, 'a', // "a"
		0x01, 'b', // "b"
		0x00,             // 0 params
		0, 0, 0, 0, 0, 0, // stats: 6 zero varints
		0, 0, 0, 0, 0, 0, 0, 0, // TCC = 0.0
		0, 0, 0, 0, 0, 0, 0, 0, // NetBw = 0.0
	}
	if got := appendRequest(nil, &req); !bytes.Equal(got, want) {
		t.Fatalf("OpGet encoding:\n got %#v\nwant %#v", got, want)
	}
}

// TestGoldenRequestNoCache pins the uncached-fetch flag: the high bit of the
// priority byte (prioNoCache), which no priority class uses. The server
// strips it before choosing a queue lane.
func TestGoldenRequestNoCache(t *testing.T) {
	req := Request{ID: 1, Op: OpGet, Priority: PriorityHigh | prioNoCache, Table: "t", Keys: []string{"a", "b"}}
	want := []byte{
		0x01,      // kind: request
		0x01,      // id = 1
		0x00,      // op = OpGet
		0x81,      // priority = PriorityHigh | prioNoCache
		0x00,      // epoch = 0: no membership
		0x01, 't', // table "t"
		0x02,      // 2 keys
		0x01, 'a', // "a"
		0x01, 'b', // "b"
		0x00,             // 0 params: a fetch ships none
		0, 0, 0, 0, 0, 0, // stats: 6 zero varints
		0, 0, 0, 0, 0, 0, 0, 0, // TCC = 0.0
		0, 0, 0, 0, 0, 0, 0, 0, // NetBw = 0.0
	}
	got := appendRequest(nil, &req)
	if !bytes.Equal(got, want) {
		t.Fatalf("flagged OpGet encoding:\n got %#v\nwant %#v", got, want)
	}
	dec, err := decodeRequest(got)
	if err != nil || !reflect.DeepEqual(dec, req) {
		t.Fatalf("decode: %+v, %v; want %+v", dec, err, req)
	}
	if prioIdx(dec.Priority) != prioIdx(PriorityHigh) || prioIdx(prioNoCache) != prioIdx(PriorityNormal) {
		t.Fatal("the uncached flag moved a request out of its priority lane")
	}
}

func TestGoldenRequestOpExec(t *testing.T) {
	req := Request{
		ID:       7,
		Op:       OpExec,
		Priority: PriorityHigh,
		Table:    "tbl",
		Keys:     []string{"k"},
		Params:   [][]byte{nil, {}, {0xFF}},
		Stats: loadbalance.ComputeStats{
			PendingLocal:     2,
			OutstandingOther: 1,
			TCC:              1.0,
			NetBw:            1e9,
		},
	}
	want := []byte{
		0x01,                // kind: request
		0x07,                // id = 7
		0x01,                // op = OpExec
		0x01,                // priority = PriorityHigh
		0x00,                // epoch = 0: no membership
		0x03, 't', 'b', 'l', // table "tbl"
		0x01,      // 1 key
		0x01, 'k', // "k"
		0x03,       // 3 params
		0x00,       // params[0] = nil
		0x01,       // params[1] = empty (len+1 = 1)
		0x02, 0xFF, // params[2] = {0xFF}
		0x04,                         // PendingLocal = 2   (zigzag)
		0x00,                         // PendingDataReqs = 0
		0x00,                         // PendingComputeReqs = 0
		0x00,                         // PendingDataResps = 0
		0x02,                         // OutstandingOther = 1 (zigzag)
		0x00,                         // OtherComputedAtData = 0
		0, 0, 0, 0, 0, 0, 0xF0, 0x3F, // TCC = 1.0 (float64 LE)
		0, 0, 0, 0, 0x65, 0xCD, 0xCD, 0x41, // NetBw = 1e9
	}
	if got := appendRequest(nil, &req); !bytes.Equal(got, want) {
		t.Fatalf("OpExec encoding:\n got %#v\nwant %#v", got, want)
	}
}

func TestGoldenRequestOpPut(t *testing.T) {
	req := Request{ID: 3, Op: OpPut, Table: "t",
		Keys: []string{"x"}, Params: [][]byte{{0x01, 0x02}}}
	want := []byte{
		0x01,      // kind: request
		0x03,      // id = 3
		0x02,      // op = OpPut
		0x00,      // priority = PriorityNormal
		0x00,      // epoch = 0: no membership
		0x01, 't', // table "t"
		0x01,      // 1 key
		0x01, 'x', // "x"
		0x01,             // 1 param
		0x03, 0x01, 0x02, // {0x01, 0x02} (len+1 = 3)
		0, 0, 0, 0, 0, 0, // zero stats
		0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0,
	}
	if got := appendRequest(nil, &req); !bytes.Equal(got, want) {
		t.Fatalf("OpPut encoding:\n got %#v\nwant %#v", got, want)
	}
}

func TestGoldenResponse(t *testing.T) {
	resp := Response{
		ID:       5,
		Values:   [][]byte{{0xAA}, nil},
		Computed: []bool{true, false},
		Metas: []Meta{
			{ValueSize: 1, ComputedSize: 2, Version: 3},
			{},
		},
	}
	want := []byte{
		0x02,       // kind: response
		0x05,       // id = 5
		0x00,       // errcode = CodeOK
		0x00,       // err = ""
		0x00,       // credit = 0
		0x00,       // window = 0 (no signal)
		0x00,       // retryAfterMillis = 0
		0x00,       // queueMicros = 0
		0x00,       // serviceMicros = 0
		0x02,       // 2 values
		0x02, 0xAA, // {0xAA}
		0x00,       // nil
		0x02,       // 2 computed flags
		0x01,       // bits: [true, false] LSB-first
		0x02,       // 2 metas
		0x02, 0x04, // ValueSize=1, ComputedSize=2 (zigzag)
		0, 0, 0, 0, 0, 0, 0, 0, // ComputeCost = 0.0
		0x06,       // Version = 3 (zigzag)
		0x00, 0x00, // zero meta
		0, 0, 0, 0, 0, 0, 0, 0,
		0x00,
	}
	if got := appendResponse(nil, &resp); !bytes.Equal(got, want) {
		t.Fatalf("response encoding:\n got %#v\nwant %#v", got, want)
	}
}

// TestGoldenResponseBackpressure pins the credit/window backpressure header
// on a shed response: a nonzero backpressure pair, the retry-after hint, and
// the queue/service time split, byte for byte.
func TestGoldenResponseBackpressure(t *testing.T) {
	resp := Response{
		ID:               2,
		Code:             CodeOverloaded,
		Err:              "q",
		Credit:           3,
		Window:           8,
		RetryAfterMillis: 300,
		QueueMicros:      1,
		ServiceMicros:    128,
	}
	want := []byte{
		0x02,      // kind: response
		0x02,      // id = 2
		0x06,      // errcode = CodeOverloaded
		0x01, 'q', // err = "q"
		0x03,       // credit = 3
		0x08,       // window = 8
		0xAC, 0x02, // retryAfterMillis = 300 (uvarint)
		0x01,       // queueMicros = 1
		0x80, 0x01, // serviceMicros = 128 (uvarint)
		0x00, // 0 values
		0x00, // 0 computed flags
		0x00, // 0 metas
	}
	if got := appendResponse(nil, &resp); !bytes.Equal(got, want) {
		t.Fatalf("backpressure response encoding:\n got %#v\nwant %#v", got, want)
	}
	got, err := decodeResponse(want)
	if err != nil {
		t.Fatalf("decodeResponse: %v", err)
	}
	if !reflect.DeepEqual(got, resp) {
		t.Fatalf("backpressure round trip:\n got %+v\nwant %+v", got, resp)
	}
}

func TestGoldenNotification(t *testing.T) {
	n := Notification{Table: "t", Key: "k", Version: -1}
	want := []byte{
		0x03,      // kind: notification
		0x01, 't', // table
		0x01, 'k', // key
		0x01, // version = -1 (zigzag)
	}
	if got := appendNotification(nil, &n); !bytes.Equal(got, want) {
		t.Fatalf("notification encoding:\n got %#v\nwant %#v", got, want)
	}
}

// TestGoldenCancel pins the cancel frame byte for byte.
func TestGoldenCancel(t *testing.T) {
	c := Cancel{ID: 300, Index: 7}
	want := []byte{
		0x04,       // kind: cancel
		0xAC, 0x02, // id = 300 (uvarint)
		0x07, // index = 7
	}
	if got := appendCancel(nil, &c); !bytes.Equal(got, want) {
		t.Fatalf("cancel encoding:\n got %#v\nwant %#v", got, want)
	}
}

// TestGoldenRequestEpoch pins the routing-epoch stamp: a client holding a
// membership map stamps every request with its view's epoch (uvarint,
// between the priority byte and the table name).
func TestGoldenRequestEpoch(t *testing.T) {
	req := Request{ID: 1, Op: OpGet, Epoch: 300, Table: "t", Keys: []string{"a"}}
	want := []byte{
		0x01,       // kind: request
		0x01,       // id = 1
		0x00,       // op = OpGet
		0x00,       // priority = PriorityNormal
		0xAC, 0x02, // epoch = 300 (uvarint)
		0x01, 't', // table "t"
		0x01,      // 1 key
		0x01, 'a', // "a"
		0x00,             // 0 params
		0, 0, 0, 0, 0, 0, // stats: 6 zero varints
		0, 0, 0, 0, 0, 0, 0, 0, // TCC = 0.0
		0, 0, 0, 0, 0, 0, 0, 0, // NetBw = 0.0
	}
	if got := appendRequest(nil, &req); !bytes.Equal(got, want) {
		t.Fatalf("epoch-stamped request encoding:\n got %#v\nwant %#v", got, want)
	}
	dec, err := decodeRequest(want)
	if err != nil {
		t.Fatalf("decodeRequest: %v", err)
	}
	if dec.Epoch != 300 {
		t.Fatalf("epoch round trip: got %d, want 300", dec.Epoch)
	}
}

// TestGoldenResponseMoved pins the CodeMoved redirect byte for
// byte: the error response whose Values[0] carries the moved-region
// payload (uvarint nmoved, then per entry uvarint epoch · uvarint region ·
// uvarint node · string addr).
func TestGoldenResponseMoved(t *testing.T) {
	entries := []movedRegion{{epoch: 9, region: 2, owner: 3, addr: "n:1"}}
	resp := Response{ID: 4, Code: CodeMoved, Err: "m",
		Values: [][]byte{encodeMoved(entries)}}
	want := []byte{
		0x02,      // kind: response
		0x04,      // id = 4
		0x07,      // errcode = CodeMoved
		0x01, 'm', // err = "m"
		0x00, // credit = 0
		0x00, // window = 0
		0x00, // retryAfterMillis = 0
		0x00, // queueMicros = 0
		0x00, // serviceMicros = 0
		0x01, // 1 value: the redirect payload (len+1 = 9)
		0x09,
		0x01,                // nmoved = 1
		0x09,                // epoch = 9 (the cutover's fencing token)
		0x02,                // region = 2
		0x03,                // owner = node 3
		0x03, 'n', ':', '1', // addr "n:1"
		0x00, // 0 computed flags
		0x00, // 0 metas
	}
	if got := appendResponse(nil, &resp); !bytes.Equal(got, want) {
		t.Fatalf("moved response encoding:\n got %#v\nwant %#v", got, want)
	}
	dec, err := decodeResponse(want)
	if err != nil {
		t.Fatalf("decodeResponse: %v", err)
	}
	moved, ok := decodeMoved(dec.Values[0])
	if !ok || !reflect.DeepEqual(moved, entries) {
		t.Fatalf("moved payload round trip: got %+v (ok=%v), want %+v", moved, ok, entries)
	}
}

// TestDecodeMovedCorrupt exercises the redirect-payload decoder's error
// paths: truncation at every byte and a count far beyond the buffer must
// both fail cleanly (no panic, no over-allocation).
func TestDecodeMovedCorrupt(t *testing.T) {
	full := encodeMoved([]movedRegion{
		{epoch: 8, region: 0, owner: 1, addr: "a"},
		{epoch: 12, region: 3, owner: 2, addr: "host:9999"},
	})
	if moved, ok := decodeMoved(full); !ok || len(moved) != 2 {
		t.Fatalf("full payload: ok=%v n=%d", ok, len(moved))
	}
	for i := 0; i < len(full); i++ {
		if _, ok := decodeMoved(full[:i]); ok {
			t.Fatalf("truncated payload at %d decoded ok", i)
		}
	}
	if _, ok := decodeMoved(append([]byte{}, full...)[:1]); ok {
		t.Fatal("count-only payload decoded ok")
	}
	if _, ok := decodeMoved([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}); ok {
		t.Fatal("huge count decoded ok")
	}
	if _, ok := decodeMoved(append(full, 0x00)); ok {
		t.Fatal("trailing byte decoded ok")
	}
}

// TestGoldenRegionFilter pins the OpScan partition filter
// (Params[1]): uvarint region · uvarint nregions.
func TestGoldenRegionFilter(t *testing.T) {
	want := []byte{0x02, 0x04}
	if got := encodeRegionFilter(2, 4); !bytes.Equal(got, want) {
		t.Fatalf("region filter encoding: got %#v, want %#v", got, want)
	}
	if r, n, ok := decodeRegionFilter(want); !ok || r != 2 || n != 4 {
		t.Fatalf("region filter decode: got (%d, %d, %v)", r, n, ok)
	}
	for _, bad := range [][]byte{
		nil,                // empty
		{0x02},             // missing nregions
		{0x00, 0x00},       // nregions = 0 matches nothing
		{0x04, 0x04},       // region out of range
		{0x02, 0x04, 0x00}, // trailing byte
	} {
		if _, _, ok := decodeRegionFilter(bad); ok {
			t.Fatalf("corrupt filter %#v decoded ok", bad)
		}
	}
}

// TestGoldenStateRecord pins the migration state record (the learned
// execution profile that travels with a shard): uvarint version ·
// float64le avgUDFSeconds · uvarint nclasses · nclasses × float64le.
func TestGoldenStateRecord(t *testing.T) {
	s := NewServer(NewRegistry(), false, WireBinary)
	defer s.Close()
	s.udfCost.set(0.5)
	for cl := range s.classSvc {
		s.classSvc[cl].set(0.25)
	}
	quarter := []byte{0, 0, 0, 0, 0, 0, 0xD0, 0x3F} // 0.25 little-endian
	want := []byte{
		0x01,                         // record version 1
		0, 0, 0, 0, 0, 0, 0xE0, 0x3F, // avgUDFSeconds = 0.5
		0x03, // 3 op classes (exec/put/fetch)
	}
	for i := 0; i < int(numClasses); i++ {
		want = append(want, quarter...)
	}
	got := s.exportState()
	if !bytes.Equal(got, want) {
		t.Fatalf("state record encoding:\n got %#v\nwant %#v", got, want)
	}

	// Import on a cold server adopts the EWMAs...
	d := NewServer(NewRegistry(), false, WireBinary)
	defer d.Close()
	if err := d.importState(got); err != nil {
		t.Fatalf("importState: %v", err)
	}
	if v := d.udfCost.load(); v != 0.5 {
		t.Fatalf("imported avgUDFSeconds = %v, want 0.5", v)
	}
	for cl := range d.classSvc {
		if v := d.classSvc[cl].load(); v != 0.25 {
			t.Fatalf("imported classSvc[%d] = %v, want 0.25", cl, v)
		}
	}

	// ...but never poison them: NaN/Inf/non-positive values are skipped,
	// and corrupt records are rejected without partial effect on length.
	poison := append([]byte{}, want...)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		binary.LittleEndian.PutUint64(poison[1:], math.Float64bits(bad))
		if err := d.importState(poison); err != nil {
			t.Fatalf("importState(%v record): %v", bad, err)
		}
		if v := d.udfCost.load(); v != 0.5 {
			t.Fatalf("%v import changed avgUDFSeconds to %v", bad, v)
		}
	}
	if err := d.importState([]byte{0x02}); err == nil {
		t.Fatal("unknown record version imported ok")
	}
	for i := 1; i < len(want); i++ {
		if err := d.importState(want[:i]); err == nil {
			t.Fatalf("truncated record at %d imported ok", i)
		}
	}
}

func TestCancelRoundTrip(t *testing.T) {
	for _, c := range []Cancel{
		{},
		{ID: 1, Index: 0},
		{ID: 1 << 60, Index: 1<<32 - 1},
	} {
		got, err := decodeCancel(appendCancel(nil, &c))
		if err != nil {
			t.Fatalf("decodeCancel(%+v): %v", c, err)
		}
		if got != c {
			t.Errorf("round trip mismatch: got %+v want %+v", got, c)
		}
	}
	if _, err := decodeCancel([]byte{0x04}); err != errTruncated {
		t.Fatalf("truncated cancel: err = %v, want errTruncated", err)
	}
}

// TestBinCodecCancelStream drives a request followed by a cancel through
// the binary codec's server-side read path: the request decodes normally,
// the cancel comes back as a message (never mistaken for a request).
func TestBinCodecCancelStream(t *testing.T) {
	var buf bytes.Buffer
	c := newBinCodec(&buf)
	if err := c.writeRequest(&Request{ID: 9, Op: OpExec, Table: "t", Keys: []string{"k"}}); err != nil {
		t.Fatal(err)
	}
	if err := c.writeCancel(&Cancel{ID: 9, Index: 0}); err != nil {
		t.Fatal(err)
	}
	var req Request
	cn, err := c.readRequest(&req)
	if err != nil || cn != nil || req.ID != 9 {
		t.Fatalf("request read: cn=%v err=%v id=%d", cn, err, req.ID)
	}
	cn, err = c.readRequest(&req)
	if err != nil || cn == nil || cn.ID != 9 || cn.Index != 0 {
		t.Fatalf("cancel read: cn=%+v err=%v", cn, err)
	}
}

// --- Round trips ------------------------------------------------------------

func roundTripRequest(t *testing.T, req Request) Request {
	t.Helper()
	got, err := decodeRequest(appendRequest(nil, &req))
	if err != nil {
		t.Fatalf("decodeRequest: %v", err)
	}
	return got
}

func TestRequestRoundTripEveryOp(t *testing.T) {
	big := bytes.Repeat([]byte{0xAB}, 100<<10) // > 64 KiB
	for _, req := range []Request{
		{ID: 42, Op: OpGet, Table: "users", Keys: []string{"k1", "k2", "k3"}},
		{ID: 43, Op: OpGet, Priority: PriorityLow, Table: "users", Keys: []string{"k"}},
		{ID: 1 << 60, Op: OpExec, Table: "t",
			Keys:   []string{"k", "", "k\x00weird"},
			Params: [][]byte{nil, {}, big},
			Stats: loadbalance.ComputeStats{
				PendingLocal: 1, PendingDataReqs: 2, PendingComputeReqs: 3,
				PendingDataResps: 4, OutstandingOther: 5, OtherComputedAtData: 6,
				TCC: 0.25, NetBw: 1e9,
			}},
		{ID: 9, Op: OpPut, Table: "t", Keys: []string{"k"}, Params: [][]byte{big}},
		{}, // empty batch, zero everything
	} {
		got := roundTripRequest(t, req)
		if !reflect.DeepEqual(got, req) {
			t.Errorf("round trip mismatch for op %d:\n got %+v\nwant %+v",
				req.Op, got, req)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	big := bytes.Repeat([]byte{0xCD}, 100<<10)
	for _, resp := range []Response{
		{},
		{ID: 1, Code: CodeServer, Err: "unknown table x"},
		{ID: 8, Code: CodeTimeout, Err: "request timed out"},
		{ID: 11, Code: CodeOverloaded, Err: "exec queue full",
			Credit: 0, Window: 16, RetryAfterMillis: 40},
		{ID: 12, Credit: 255, Window: 255,
			QueueMicros: 1 << 40, ServiceMicros: 1<<64 - 1},
		{ID: 2, Values: [][]byte{nil, {}, big, []byte("v")},
			Computed: []bool{true, false, true, true},
			Metas: []Meta{
				{ValueSize: -1, ComputedSize: 1 << 40, ComputeCost: 3.5, Version: -7},
				{}, {ValueSize: 100 << 10}, {Version: 1},
			}},
	} {
		got, err := decodeResponse(appendResponse(nil, &resp))
		if err != nil {
			t.Fatalf("decodeResponse: %v", err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, resp)
		}
	}
}

func TestComputedBitPackingLengths(t *testing.T) {
	// Exercise every partial-byte tail around the 8-bit boundaries.
	for n := 1; n <= 17; n++ {
		resp := Response{Computed: make([]bool, n)}
		for i := range resp.Computed {
			resp.Computed[i] = i%3 == 0
		}
		got, err := decodeResponse(appendResponse(nil, &resp))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(got.Computed, resp.Computed) {
			t.Fatalf("n=%d: computed flags %v, want %v", n, got.Computed, resp.Computed)
		}
	}
}

func TestNotificationRoundTrip(t *testing.T) {
	for _, n := range []Notification{
		{},
		{Table: "t", Key: "k", Version: 7},
		{Table: strings.Repeat("x", 300), Key: "k\x00", Version: -1 << 50},
	} {
		got, err := decodeNotification(appendNotification(nil, &n))
		if err != nil {
			t.Fatalf("decodeNotification: %v", err)
		}
		if got != n {
			t.Errorf("round trip mismatch: got %+v want %+v", got, n)
		}
	}
}

// TestDecodeIsZeroCopy pins the ownership contract: decoded values alias
// the frame buffer instead of being copied out of it.
func TestDecodeIsZeroCopy(t *testing.T) {
	payload := appendResponse(nil, &Response{Values: [][]byte{[]byte("abc")}})
	resp, err := decodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	idx := bytes.Index(payload, []byte("abc"))
	payload[idx] = 'z'
	if string(resp.Values[0]) != "zbc" {
		t.Fatalf("decoded value %q does not alias the frame buffer", resp.Values[0])
	}
}

// --- Codec stream tests -----------------------------------------------------

// TestBinCodecStream drives full frames (header + payload) through the
// binary codec over an in-memory stream, interleaving message kinds.
func TestBinCodecStream(t *testing.T) {
	var buf bytes.Buffer
	c := newBinCodec(&buf)

	req := Request{ID: 1, Op: OpExec, Table: "t", Keys: []string{"k"},
		Params: [][]byte{[]byte("p")}}
	resp := Response{ID: 1, Values: [][]byte{[]byte("v")},
		Computed: []bool{true}, Metas: []Meta{{ValueSize: 1}}}
	notif := Notification{Table: "t", Key: "k", Version: 2}

	if err := c.writeRequest(&req); err != nil {
		t.Fatal(err)
	}
	var gotReq Request
	if cn, err := c.readRequest(&gotReq); err != nil || cn != nil {
		t.Fatalf("readRequest: cancel=%v err=%v", cn, err)
	}
	gotReq.frame = nil // decode bookkeeping, not wire content
	if !reflect.DeepEqual(gotReq, req) {
		t.Fatalf("request: got %+v want %+v", gotReq, req)
	}

	if err := c.writeResponse(&resp); err != nil {
		t.Fatal(err)
	}
	if err := c.writeNotification(&notif); err != nil {
		t.Fatal(err)
	}
	gotResp, gotNotif, err := c.readMessage()
	if err != nil || gotNotif != nil {
		t.Fatalf("first message: resp=%v notif=%v err=%v", gotResp, gotNotif, err)
	}
	if !reflect.DeepEqual(*gotResp, resp) {
		t.Fatalf("response: got %+v want %+v", *gotResp, resp)
	}
	gotResp, gotNotif, err = c.readMessage()
	if err != nil || gotResp != nil {
		t.Fatalf("second message: resp=%v notif=%v err=%v", gotResp, gotNotif, err)
	}
	if *gotNotif != notif {
		t.Fatalf("notification: got %+v want %+v", *gotNotif, notif)
	}
}

// chunkStream hands out one chunk per Read, so a bufio.Reader over it
// refills from the start of its buffer for each chunk: the bytes a frame was
// decoded from are overwritten by the next frame read. Writes are dropped.
// newBinCodec builds a binary codec over any ReadWriter whose writes land
// at once, for tests and fuzzers that drive in-memory buffers.
func newBinCodec(c io.ReadWriter) *binCodec {
	return &binCodec{br: bufio.NewReaderSize(c, 64<<10), fw: &syncSink{w: c}}
}

// syncSink is a frameSink that writes each frame before enqueue returns.
type syncSink struct {
	w  io.Writer
	mu sync.Mutex
}

func (s *syncSink) enqueue(f outFrame) error {
	s.mu.Lock()
	_, err := s.w.Write((*f.bp)[f.off:])
	s.mu.Unlock()
	putBuf(f.bp)
	return err
}

func (s *syncSink) Close() {}

type chunkStream struct{ chunks [][]byte }

func (s *chunkStream) Read(p []byte) (int, error) {
	if len(s.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.chunks[0])
	if s.chunks[0] = s.chunks[0][n:]; len(s.chunks[0]) == 0 {
		s.chunks = s.chunks[1:]
	}
	return n, nil
}

func (s *chunkStream) Write(p []byte) (int, error) { return len(p), nil }

func framed(payload []byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(payload))), payload...)
}

// sameResponse is field-for-field equality that does not tell a nil slice
// from an empty one (a pooled response reuses emptied slices) but does tell
// a nil value blob from an empty one, and compares costs by their bits.
func sameResponse(a, b *Response) bool {
	if a.ID != b.ID || a.Code != b.Code || a.Err != b.Err || a.Credit != b.Credit ||
		a.Window != b.Window || a.RetryAfterMillis != b.RetryAfterMillis ||
		a.QueueMicros != b.QueueMicros || a.ServiceMicros != b.ServiceMicros ||
		len(a.Values) != len(b.Values) || len(a.Metas) != len(b.Metas) ||
		!slices.Equal(a.Computed, b.Computed) {
		return false
	}
	for i := range a.Values {
		if (a.Values[i] == nil) != (b.Values[i] == nil) || !bytes.Equal(a.Values[i], b.Values[i]) {
			return false
		}
	}
	for i := range a.Metas {
		x, y := a.Metas[i], b.Metas[i]
		if x.ValueSize != y.ValueSize || x.ComputedSize != y.ComputedSize || x.Version != y.Version ||
			math.Float64bits(x.ComputeCost) != math.Float64bits(y.ComputeCost) {
			return false
		}
	}
	return true
}

// TestInPlaceDecodeOutlivesReadBuffer: a put ack, an error reply and a
// notification are decoded where they lie in the client's read buffer, and
// each keeps every field after later frames overwrote those bytes. A
// response carrying values gets its own frame, so its values survive too.
func TestInPlaceDecodeOutlivesReadBuffer(t *testing.T) {
	ack := Response{ID: 1, Computed: []bool{true, false}, Metas: []Meta{{Version: 7}, {Version: 9}},
		Credit: 3, Window: 9, QueueMicros: 5, ServiceMicros: 6}
	errReply := Response{ID: 2, Code: CodeServer, Err: "storage: disk full"}
	notif := Notification{Table: "t", Key: "k0", Version: 8}
	valued := Response{ID: 3, Values: [][]byte{[]byte("value"), nil}, Computed: []bool{false, false},
		Metas: []Meta{{ValueSize: 5, Version: 2}, {}}}
	// The last frame is longer than any before it and all 0xEE bytes past
	// its headers: it overwrites every byte the others were read from.
	filler := Notification{Table: strings.Repeat("\xEE", 200), Key: strings.Repeat("\xEE", 200)}
	c := newBinCodec(&chunkStream{chunks: [][]byte{
		framed(appendResponse(nil, &ack)),
		framed(appendResponse(nil, &errReply)),
		framed(appendNotification(nil, &notif)),
		framed(appendResponse(nil, &valued)),
		framed(appendNotification(nil, &filler)),
	}})
	var resps []*Response
	var notifs []*Notification
	for range 5 {
		resp, n, err := c.readMessage()
		if err != nil {
			t.Fatal(err)
		}
		if resp != nil {
			resps = append(resps, resp)
		} else {
			notifs = append(notifs, n)
		}
	}
	for i, want := range []*Response{&ack, &errReply, &valued} {
		if !sameResponse(resps[i], want) {
			t.Errorf("response %d after the buffer was overwritten:\n got %+v\nwant %+v", i, *resps[i], *want)
		}
	}
	if *notifs[0] != notif || *notifs[1] != filler {
		t.Errorf("notifications after the buffer was overwritten: %+v, %+v", *notifs[0], *notifs[1])
	}
}

func TestReadFrameRejectsOversizedHeader(t *testing.T) {
	var buf bytes.Buffer
	c := newBinCodec(&buf)
	// A frame claiming 2^40 bytes must be rejected before any allocation.
	buf.Write([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x20})
	if _, err := c.readRequest(&Request{}); err != errFrameTooBig {
		t.Fatalf("err = %v, want errFrameTooBig", err)
	}
}

func TestWriteFrameRejectsOversizedPayload(t *testing.T) {
	var buf bytes.Buffer
	c := newBinCodec(&buf)
	err := c.send(func(b []byte) []byte { return append(b, make([]byte, maxFrame+1)...) })
	if err != errFrameTooBig {
		t.Fatalf("err = %v, want errFrameTooBig", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("rejected frame still wrote %d bytes", buf.Len())
	}
}

func TestDecodeRejectsWrongKind(t *testing.T) {
	reqPayload := appendRequest(nil, &Request{ID: 1})
	if _, err := decodeResponse(reqPayload); err != errBadKind {
		t.Fatalf("decodeResponse(request) err = %v, want errBadKind", err)
	}
	if err := decodeMessage([]byte{0x7F}); err != errBadKind {
		t.Fatalf("decodeMessage(unknown kind) err = %v, want errBadKind", err)
	}
	if err := decodeMessage(nil); err != errTruncated {
		t.Fatalf("decodeMessage(empty) err = %v, want errTruncated", err)
	}
}

// TestDecodeCorruptCountsNoHugeAlloc feeds payloads whose element counts
// claim far more entries than the frame holds; decode must fail cleanly
// (sliceCap clamps the allocation) instead of OOMing.
func TestDecodeCorruptCountsNoHugeAlloc(t *testing.T) {
	// kind=request, id=0, op=0, prio=0, epoch=0, table="", then
	// nkeys = 2^40.
	payload := []byte{0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20}
	if _, err := decodeRequest(payload); err == nil {
		t.Fatal("corrupt key count decoded without error")
	}
	// kind=response, id=0, code=0, err="", credit=0, window=0,
	// retryAfter=0, queueMicros=0, serviceMicros=0, then nvalues = 2^40.
	payload = []byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x80, 0x80, 0x80, 0x80, 0x80, 0x20}
	if _, err := decodeResponse(payload); err == nil {
		t.Fatal("corrupt value count decoded without error")
	}
	// A large, valid-length frame whose meta count claims ~2^40 entries:
	// the remaining-bytes clamp alone would still let the 32-byte in-memory
	// Meta structs amplify to a huge pre-allocation, so the capacity
	// ceiling must kick in and decode must fail on truncation instead.
	payload = append([]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x00, 0x00, 0x00,
		0x80, 0x80, 0x80, 0x80, 0x80, 0x20}, make([]byte, 64<<10)...)
	if _, err := decodeResponse(payload); err == nil {
		t.Fatal("huge meta count over a padded frame decoded without error")
	}
	// Same header, 0 values, then nflags near 2^64 so the ceiling
	// division (nc+7)/8 would wrap to 0 and bypass take()'s bounds check
	// straight into make([]bool, nc). Must error, not panic or OOM.
	payload = []byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}
	if _, err := decodeResponse(payload); err == nil {
		t.Fatal("overflowing flag count decoded without error")
	}
	// A header truncated inside the backpressure fields (err present,
	// credit present, window missing) must fail as truncated, not decode.
	payload = []byte{0x02, 0x00, 0x00, 0x00, 0x07}
	if _, err := decodeResponse(payload); err == nil {
		t.Fatal("response truncated inside the credit header decoded without error")
	}
}

// TestHugeFrameClaimNoHugeAlloc feeds both frame readers a 5-byte stream: a
// length header that claims 60 MiB, then the kind byte. Each must fail on the
// truncation having allocated at most frameTrustMax for the claim, not the
// claim itself (it allocated 62.9 MB when a reader trusted the header).
func TestHugeFrameClaimNoHugeAlloc(t *testing.T) {
	for _, side := range []struct {
		name string
		kind byte
		read func(*binCodec) error
	}{
		{"client", kindResponse, func(c *binCodec) error { _, _, err := c.readMessage(); return err }},
		{"server", kindRequest, func(c *binCodec) error { var req Request; _, err := c.readRequest(&req); return err }},
	} {
		stream := append(binary.AppendUvarint(nil, 60<<20), side.kind)
		c := newBinCodec(bytes.NewBuffer(stream))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := side.read(c)
		runtime.ReadMemStats(&after)
		if err != io.ErrUnexpectedEOF {
			t.Errorf("%s: a frame cut short read as %v, want %v", side.name, err, io.ErrUnexpectedEOF)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
			t.Errorf("%s: a 60 MiB claim over 5 bytes allocated %d B, want < 2 MiB", side.name, got)
		}
	}
}

// TestLargeFrameReadsExact reads frames on both sides of frameTrustMax, and
// on both sides of the connection: each arrives whole, and a client frame
// within the bound costs one exact-size allocation, not a grown buffer.
func TestLargeFrameReadsExact(t *testing.T) {
	for _, n := range []int{100 << 10, frameTrustMax - 64, frameTrustMax + 1, 3*frameTrustMax + 17} {
		value := bytes.Repeat([]byte{0xAB}, n)
		payload := appendResponse(nil, &Response{ID: 1, Values: [][]byte{value}, Metas: []Meta{{Version: 1}}})
		c := newBinCodec(bytes.NewBuffer(framed(payload)))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, _, err := c.readMessage()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("client, %d B value: %v", n, err)
		}
		if !bytes.Equal(resp.Values[0], value) {
			t.Fatalf("client, %d B value: read back %d B that differ", n, len(resp.Values[0]))
		}
		// An exact-size buffer is the payload rounded up to whole pages.
		if got := after.TotalAlloc - before.TotalAlloc; len(payload) <= frameTrustMax && got > uint64(len(payload)+16<<10) {
			t.Errorf("client, %d B frame: read allocated %d B, want one exact-size buffer", len(payload), got)
		}

		payload = appendRequest(nil, &Request{ID: 2, Op: OpExec, Table: "t", Keys: []string{"k"}, Params: [][]byte{value}})
		c = newBinCodec(bytes.NewBuffer(framed(payload)))
		var req Request
		if _, err := c.readRequest(&req); err != nil {
			t.Fatalf("server, %d B params: %v", n, err)
		}
		if !bytes.Equal(req.Params[0], value) {
			t.Fatalf("server, %d B params: read back %d B that differ", n, len(req.Params[0]))
		}
		putBuf(req.frame)
	}
}

// --- Fuzz -------------------------------------------------------------------

// FuzzDecodeFrame asserts decode never panics on corrupt input, both at the
// payload layer and through the framed reader.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add(appendRequest(nil, &Request{ID: 3, Op: OpExec, Table: "t",
		Keys: []string{"a", "b"}, Params: [][]byte{nil, []byte("p")},
		Stats: loadbalance.ComputeStats{PendingLocal: 1, TCC: 0.5, NetBw: 1e9}}))
	f.Add(appendRequest(nil, &Request{ID: 4, Op: OpExec, Priority: PriorityHigh,
		Table: "t", Keys: []string{"k"}}))
	f.Add(appendResponse(nil, &Response{ID: 9, Code: CodeServer, Err: "e",
		Values: [][]byte{[]byte("v"), nil}, Computed: []bool{true, false},
		Metas: []Meta{{ValueSize: 1, Version: 2}, {}}}))
	f.Add(appendResponse(nil, &Response{ID: 10, Code: CodeOverloaded,
		Err: "exec queue full", Credit: 0, Window: 32, RetryAfterMillis: 17,
		QueueMicros: 250, ServiceMicros: 90}))
	f.Add(appendNotification(nil, &Notification{Table: "t", Key: "k", Version: 1}))
	f.Add(appendCancel(nil, &Cancel{ID: 7, Index: 3}))
	f.Add([]byte{0x04}) // truncated cancel
	// An epoch-stamped request, a CodeMoved redirect carrying a
	// moved-region payload, and a version-0 "placement moved" notification.
	f.Add(appendRequest(nil, &Request{ID: 11, Op: OpGet, Epoch: 1 << 40,
		Table: "t", Keys: []string{"k"}}))
	f.Add(appendResponse(nil, &Response{ID: 12, Code: CodeMoved, Err: "moved",
		Values: [][]byte{encodeMoved([]movedRegion{
			{epoch: 9, region: 2, owner: 3, addr: "n:1"}})}}))
	f.Add(appendNotification(nil, &Notification{Table: "t", Key: "k", Version: 0}))
	// Truncated and length-corrupted variants.
	full := appendResponse(nil, &Response{ID: 1, Values: [][]byte{[]byte("vvvv")}})
	f.Add(full[:len(full)-2])
	f.Add([]byte{0x02, 0x01, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0xFF})
	// Flag count near 2^64: (nc+7)/8 wraps unless bounds-checked first
	// (header: credit, window, 3 zero uvarints before the counts).
	f.Add([]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	// Truncated inside the credit/window pair.
	f.Add([]byte{0x02, 0x00, 0x00, 0x00, 0x07})
	// An uncached fetch (the priority byte's prioNoCache bit), and the
	// value-less responses the client decodes in place: a put ack and an
	// error reply.
	f.Add(appendRequest(nil, &Request{ID: 13, Op: OpGet, Priority: PriorityLow | prioNoCache,
		Table: "t", Keys: []string{"k"}}))
	f.Add(appendResponse(nil, &Response{ID: 14, Metas: []Meta{{Version: 3}}, Credit: 1, Window: 8}))
	f.Add(appendResponse(nil, &Response{ID: 15, Code: CodeServer, Err: "storage: disk full"}))
	// A header that claims 60 MiB over a stream that ends at the kind byte:
	// the read must not allocate the claim (frameTrustMax).
	f.Add(append(binary.AppendUvarint(nil, 60<<20), kindResponse))

	f.Fuzz(func(t *testing.T, data []byte) {
		_ = decodeMessage(data) // must not panic

		// The same bytes as a framed stream: header parsing must not panic
		// or over-allocate either.
		c := newBinCodec(bytes.NewBuffer(data))
		for {
			if _, _, err := c.readMessage(); err != nil {
				break
			}
		}

		// Differential: the client's read, which decodes a value-less frame
		// in place, yields what decoding an owned copy yields, even after
		// the read buffer was overwritten.
		if len(data) == 0 || (data[0] != kindResponse && data[0] != kindNotification) {
			return
		}
		c = newBinCodec(&chunkStream{chunks: [][]byte{framed(data), bytes.Repeat([]byte{0xEE}, len(data)+16)}})
		resp, n, err := c.readMessage()
		c.br.Peek(1) // refill: the next chunk lands where the frame was
		owned := bytes.Clone(data)
		if data[0] == kindResponse {
			want, werr := decodeResponse(owned)
			if (err == nil) != (werr == nil) {
				t.Fatalf("read error %v, owned-copy decode error %v", err, werr)
			}
			if err == nil && !sameResponse(resp, &want) {
				t.Fatalf("read %+v, owned-copy decode %+v", *resp, want)
			}
			return
		}
		want, werr := decodeNotification(owned)
		if (err == nil) != (werr == nil) {
			t.Fatalf("read error %v, owned-copy decode error %v", err, werr)
		}
		if err == nil && *n != want {
			t.Fatalf("read %+v, owned-copy decode %+v", *n, want)
		}
	})
}

// FuzzDecodeMigration covers the migration payload decoders that live inside
// response values and scan params rather than the frame layer: the
// CodeMoved redirect payload, the OpScan region filter, and the migration
// state record. None may panic or over-allocate on corrupt bytes.
func FuzzDecodeMigration(f *testing.F) {
	f.Add(encodeMoved(nil))
	f.Add(encodeMoved([]movedRegion{{epoch: 9, region: 2, owner: 3, addr: "n:1"}}))
	f.Add(encodeMoved([]movedRegion{
		{epoch: 8, region: 0, owner: 1, addr: "a"},
		{epoch: 1 << 40, region: 7, owner: 2, addr: "host:9999"},
	}))
	f.Add(encodeRegionFilter(2, 4))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) // huge count, tiny buffer
	s := NewServer(NewRegistry(), false, WireBinary)
	f.Add(s.exportState())
	s.Close()

	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = decodeMoved(data)
		_, _, _ = decodeRegionFilter(data)
		d := NewServer(NewRegistry(), false, WireBinary)
		defer d.Close()
		_ = d.importState(data)
		if v := d.udfCost.load(); math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			t.Fatalf("corrupt state record poisoned avgUDFSeconds: %v", v)
		}
	})
}
