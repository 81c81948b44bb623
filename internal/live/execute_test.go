package live

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"joinopt/internal/loadbalance"
)

// memConn is the net.Conn under a socketless *wireConn: writes land in a
// buffer (or fail with werr), nothing ever arrives to read. Only the methods
// the server stages call are implemented; the embedded nil Conn panics on
// any other.
type memConn struct {
	net.Conn
	mu     sync.Mutex
	buf    bytes.Buffer
	werr   error
	closed bool
	resps  []*Response    // decoded by drain; test goroutine only
	notifs []Notification // decoded by drain; test goroutine only
}

func (c *memConn) Read([]byte) (int, error) { return 0, io.EOF }

func (c *memConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.werr != nil {
		return 0, c.werr
	}
	return c.buf.Write(p)
}

func (c *memConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return nil
}

func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

func (c *memConn) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// drain decodes every frame written to the conn so far onto resps and notifs.
func (c *memConn) drain(t *testing.T) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	rd := newBinCodec(&c.buf)
	for {
		resp, n, err := rd.readMessage()
		if err == io.EOF {
			return
		}
		if err != nil {
			t.Fatalf("decoding the conn's output: %v", err)
		}
		if resp != nil {
			c.resps = append(c.resps, resp)
		} else {
			c.notifs = append(c.notifs, *n)
		}
	}
}

// responses returns, and forgets, the responses written since the last call;
// notifications does the same for invalidations.
func (c *memConn) responses(t *testing.T) []*Response {
	t.Helper()
	c.drain(t)
	out := c.resps
	c.resps = nil
	return out
}

func (c *memConn) notifications(t *testing.T) []Notification {
	t.Helper()
	c.drain(t)
	out := c.notifs
	c.notifs = nil
	return out
}

// socketlessConn is a server-side connection over memory: the codec's
// synchronous writer path, so a stage's output is in the buffer when the
// stage returns.
func socketlessConn() (*wireConn, *memConn) {
	mc := &memConn{}
	return &wireConn{c: mc, binCodec: newBinCodec(mc)}, mc
}

// socketlessServer is a server with no listener, for driving the stages
// (admit → execute → respond → notify) directly: table "t" holds k0..k7 under
// the "tag" UDF (value + "!" + param), and admission is started, so the UDF
// limiter and the run queues exist.
func socketlessServer(t *testing.T, balanced bool, cfg AdmissionConfig) *Server {
	t.Helper()
	reg := NewRegistry()
	reg.Register("tag", func(_ string, p, v []byte) []byte {
		return append(append(append([]byte{}, v...), '!'), p...)
	})
	s := NewServer(reg, balanced)
	rows := make(map[string][]byte)
	for i := 0; i < 8; i++ {
		rows[fmt.Sprintf("k%d", i)] = []byte(fmt.Sprintf("v%d", i))
	}
	s.AddTable(TableSpec{Name: "t", UDF: "tag", Rows: rows})
	s.SetAdmission(cfg)
	s.startAdmission()
	t.Cleanup(s.Close)
	return s
}

// serve runs one request through handle on a fresh socketless conn, as a
// dispatcher would, and returns the single response it framed.
func serve(t *testing.T, s *Server, wc *wireConn, mc *memConn, req Request) *Response {
	t.Helper()
	r := getRequest()
	*r = req
	wc.beginActive(r.ID)
	s.handle(wc, r, 0)
	resps := mc.responses(t)
	if len(resps) != 1 {
		t.Fatalf("handle framed %d responses, want 1", len(resps))
	}
	return resps[0]
}

func keysN(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	return keys
}

// TestExecuteBalancerSplit: on a balanced server the first d slots of an exec
// batch come back computed with their measured cost, the other b−d come back
// raw ("bounced") priced at the UDF EWMA — and d is the balancer's answer for
// the load at that instant.
func TestExecuteBalancerSplit(t *testing.T) {
	s := socketlessServer(t, true, AdmissionConfig{})
	s.udfCost.set(1e-3)
	const b = 8
	// A compute node with nothing queued and a UDF as fast as ours: the
	// minimization splits the batch between the two sides.
	stats := loadbalance.ComputeStats{TCC: 1e-3, NetBw: 1e9}
	d := s.balance(stats, b)
	if d <= 0 || d >= b {
		t.Fatalf("balancer chose d=%d of %d; the test needs a proper split", d, b)
	}
	wc, mc := socketlessConn()
	resp := serve(t, s, wc, mc, Request{ID: 7, Op: OpExec, Table: "t", Keys: keysN(b), Stats: stats})
	if resp.Code != CodeOK || len(resp.Values) != b {
		t.Fatalf("response: code %v, %d values", resp.Code, len(resp.Values))
	}
	for i := 0; i < b; i++ {
		raw := fmt.Sprintf("v%d", i)
		switch {
		case i < d:
			if !resp.Computed[i] || string(resp.Values[i]) != raw+"!" {
				t.Errorf("slot %d: computed=%v value=%q, want the UDF output", i, resp.Computed[i], resp.Values[i])
			}
			if resp.Metas[i].ComputeCost <= 0 || resp.Metas[i].ComputedSize != int64(len(raw)+1) {
				t.Errorf("slot %d: meta %+v, want a measured cost and the output size", i, resp.Metas[i])
			}
		default:
			if resp.Computed[i] || string(resp.Values[i]) != raw {
				t.Errorf("slot %d: computed=%v value=%q, want the raw row bounced", i, resp.Computed[i], resp.Values[i])
			}
			if got := resp.Metas[i].ComputeCost; got != s.udfCost.load() {
				t.Errorf("bounced slot %d priced at %v, want the UDF EWMA %v", i, got, s.udfCost.load())
			}
		}
	}
	if got := s.Bounced.Load(); got != int64(b-d) {
		t.Errorf("Bounced = %d, want %d", got, b-d)
	}
	if s.pendingExec.Load() != 0 || s.pendingTotal.Load() != 0 || len(s.udfSlots) != 0 {
		t.Errorf("after the batch: pendingExec=%d pendingTotal=%d slots held=%d, want all zero",
			s.pendingExec.Load(), s.pendingTotal.Load(), len(s.udfSlots))
	}
}

// TestExecuteSkipsCanceledSlot: a slot whose cancel frame arrived before the
// batch was dispatched runs no UDF, is counted in ExecCanceled, and leaves the
// load counters balanced.
func TestExecuteSkipsCanceledSlot(t *testing.T) {
	s := socketlessServer(t, false, AdmissionConfig{})
	wc, mc := socketlessConn()
	r := getRequest()
	*r = Request{ID: 3, Op: OpExec, Table: "t", Keys: keysN(4)}
	wc.beginActive(r.ID)
	wc.markCanceled(Cancel{ID: 3, Index: 2})
	s.handle(wc, r, 0)
	resps := mc.responses(t)
	if len(resps) != 1 {
		t.Fatalf("%d responses, want 1", len(resps))
	}
	for i, computed := range resps[0].Computed {
		if computed != (i != 2) {
			t.Errorf("slot %d computed=%v", i, computed)
		}
	}
	if got := s.ExecCanceled.Load(); got != 1 {
		t.Errorf("ExecCanceled = %d, want 1", got)
	}
	if s.pendingExec.Load() != 0 || wc.cancelsSeen.Load() != 0 {
		t.Errorf("pendingExec=%d cancelsSeen=%d after the batch, want 0", s.pendingExec.Load(), wc.cancelsSeen.Load())
	}
}

// TestExecuteTypedFailures: a request the node cannot serve is answered with
// CodeServer, never dropped.
func TestExecuteTypedFailures(t *testing.T) {
	s := socketlessServer(t, false, AdmissionConfig{})
	s.AddTable(TableSpec{Name: "orphan", UDF: "never-registered"})
	for _, req := range []Request{
		{ID: 1, Op: OpExec, Table: "nope", Keys: []string{"k0"}},
		{ID: 2, Op: OpExec, Table: "orphan", Keys: []string{"k0"}},
		{ID: 3, Op: Op(99), Table: "t"},
		{ID: 4, Op: OpScan, Table: "t", Params: [][]byte{nil, nil, {0x80}}},                           // truncated version bound
		{ID: 5, Op: OpScan, Table: "t", Params: [][]byte{nil, nil, {0x80, 0x01, 0x00}}},               // trailing byte
		{ID: 6, Op: OpScan, Table: "t", Params: [][]byte{nil, nil, binary.AppendUvarint(nil, 1<<63)}}, // no int64 version
	} {
		wc, mc := socketlessConn()
		resp := serve(t, s, wc, mc, req)
		if resp.ID != req.ID || resp.Code != CodeServer {
			t.Errorf("request %d: answered id %d code %v, want CodeServer", req.ID, resp.ID, resp.Code)
		}
		if wc.inflight.Load() != 0 {
			t.Errorf("request %d: inflight = %d after the answer", req.ID, wc.inflight.Load())
		}
	}
}

// TestExecWorkersBoundsUDFConcurrency: ExecWorkers is the ceiling on UDFs in
// flight, not on batches — with one slot, an 8-key batch runs its UDFs one at
// a time whatever the host's core count — and the limiter conserves work: a
// lone batch on an idle four-slot node fans out.
func TestExecWorkersBoundsUDFConcurrency(t *testing.T) {
	for _, tc := range []struct {
		workers int
		ok      func(peak int64) bool
		want    string
	}{
		{1, func(p int64) bool { return p == 1 }, "exactly 1"},
		{4, func(p int64) bool { return p >= 2 && p <= 4 }, "between 2 and 4"},
	} {
		t.Run(fmt.Sprintf("workers=%d", tc.workers), func(t *testing.T) {
			var running, peak atomic.Int64
			reg := NewRegistry()
			reg.Register("slow", func(_ string, _, v []byte) []byte {
				n := running.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(5 * time.Millisecond)
				running.Add(-1)
				return v
			})
			s := NewServer(reg, false)
			s.AddTable(TableSpec{Name: "t", UDF: "slow", Rows: map[string][]byte{"k0": []byte("v")}})
			s.SetAdmission(AdmissionConfig{ExecWorkers: tc.workers})
			addr, err := s.Serve("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			c, err := DialNode(addr, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			resp, err := c.Call(Request{Op: OpExec, Table: "t", Keys: keysN(8)})
			if err != nil {
				t.Fatal(err)
			}
			for i, computed := range resp.Computed {
				if !computed {
					t.Errorf("slot %d not computed", i)
				}
			}
			if p := peak.Load(); !tc.ok(p) {
				t.Errorf("peak concurrent UDFs = %d with ExecWorkers=%d, want %s", p, tc.workers, tc.want)
			}
		})
	}
}

// TestUDFLimiterGrantsOnlyIdleSlots: a batch arriving while every other slot
// is taken is granted the one slot it blocks for, so it runs inline.
func TestUDFLimiterGrantsOnlyIdleSlots(t *testing.T) {
	s := socketlessServer(t, false, AdmissionConfig{ExecWorkers: 3})
	if got := s.acquireUDFSlots(8); got != 3 {
		t.Fatalf("lone batch granted %d of 3 idle slots", got)
	}
	<-s.udfSlots
	<-s.udfSlots
	if got := s.acquireUDFSlots(1); got != 1 {
		t.Fatalf("a one-UDF batch took %d slots", got)
	}
	if got := s.acquireUDFSlots(8); got != 1 {
		t.Fatalf("batch under load granted %d slots, want the 1 it blocked for", got)
	}
	for i := 0; i < 3; i++ {
		<-s.udfSlots
	}
	if len(s.udfSlots) != 0 {
		t.Fatalf("%d slots still held", len(s.udfSlots))
	}
}
