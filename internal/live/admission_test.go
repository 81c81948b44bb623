package live

import "testing"

// TestAdmitAfterCloseRefusesNotSheds: a request that reaches admission after
// Close shut the run queues is refused as the transport-class failure a
// closing node's stragglers get — not shed as overload. It carries no
// retry-after hint, is not counted in Shed, and is deregistered like any
// answer.
func TestAdmitAfterCloseRefusesNotSheds(t *testing.T) {
	s := socketlessServer(t, false, AdmissionConfig{})
	s.Close()
	wc, mc := socketlessConn()
	for i, op := range []Op{OpExec, OpPut, OpGet} {
		req := getRequest()
		req.ID, req.Op = uint64(10+i), op
		wc.beginActive(req.ID)
		s.admit(wc, req)
	}
	resps := mc.responses(t)
	if len(resps) != 3 {
		t.Fatalf("%d responses, want 3", len(resps))
	}
	for i, r := range resps {
		if r.ID != uint64(10+i) || r.Code != CodeTransport || r.Err != refuseMsg || r.RetryAfterMillis != 0 {
			t.Errorf("answer %d after Close = %+v, want CodeTransport %q with no retry-after hint", i, r, refuseMsg)
		}
	}
	if got := s.Shed.Load(); got != 0 {
		t.Errorf("Shed = %d after refusing at a closed node, want 0", got)
	}
	if n := wc.inflight.Load(); n != 0 {
		t.Errorf("%d requests still registered in flight, want 0", n)
	}
}
