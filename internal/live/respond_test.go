package live

import (
	"errors"
	"testing"
)

// TestRespondOversizeFallsBackToSmallError: a response too big to frame is
// replaced by a small CodeServer error under the same ID — the client's
// pending call fails instead of hanging — and the conn, on which nothing was
// written, stays usable.
func TestRespondOversizeFallsBackToSmallError(t *testing.T) {
	s := socketlessServer(t, false, AdmissionConfig{})
	wc, mc := socketlessConn()
	chunk := make([]byte, 1<<20)
	big := getResponse()
	big.ID = 9
	for i := 0; i <= maxFrame/len(chunk); i++ {
		big.Values = append(big.Values, chunk)
	}
	req := getRequest()
	req.ID = 9
	wc.beginActive(req.ID)
	s.respond(wc, req, big, classFetch)

	resps := mc.responses(t)
	if len(resps) != 1 || resps[0].ID != 9 || resps[0].Code != CodeServer || resps[0].Err != errFrameTooBig.Error() {
		t.Fatalf("framed %+v, want one small CodeServer error for id 9", resps)
	}
	if mc.isClosed() || wc.inflight.Load() != 0 {
		t.Fatalf("closed=%v inflight=%d, want an open conn with nothing in flight", mc.isClosed(), wc.inflight.Load())
	}
	if resp := serve(t, s, wc, mc, Request{ID: 10, Op: OpGet, Table: "t", Keys: []string{"k1"}}); string(resp.Values[0]) != "v1" {
		t.Fatalf("the conn's next request answered %q", resp.Values[0])
	}
}

// TestRespondWriteErrorClosesConn: any write error other than the frame-size
// rejection means a broken stream, so the conn is closed — served or shed.
func TestRespondWriteErrorClosesConn(t *testing.T) {
	s := socketlessServer(t, false, AdmissionConfig{})
	for name, send := range map[string]func(*wireConn, *Request){
		"served": func(wc *wireConn, req *Request) { s.handle(wc, req, 0) },
		"shed":   func(wc *wireConn, req *Request) { s.shed(wc, req, classFetch) },
	} {
		wc, mc := socketlessConn()
		mc.werr = errors.New("memConn: broken pipe")
		req := getRequest()
		*req = Request{ID: 1, Op: OpGet, Table: "t", Keys: []string{"k0"}}
		wc.beginActive(req.ID)
		send(wc, req)
		if !mc.isClosed() {
			t.Errorf("%s: conn left open after a failed write", name)
		}
		if wc.inflight.Load() != 0 {
			t.Errorf("%s: inflight = %d after the failed write", name, wc.inflight.Load())
		}
	}
	if got := s.Shed.Load(); got != 1 {
		t.Errorf("Shed = %d, want 1", got)
	}
}

// TestRespondShedCarriesHintAndCredit: a shed leaves through the same respond
// as a served request, so it carries the backpressure pair beside its
// retry-after hint.
func TestRespondShedCarriesHintAndCredit(t *testing.T) {
	s := socketlessServer(t, false, AdmissionConfig{})
	wc, mc := socketlessConn()
	req := getRequest()
	req.ID, req.Op = 4, OpExec
	wc.beginActive(req.ID)
	s.shed(wc, req, classExec)
	resps := mc.responses(t)
	if len(resps) != 1 {
		t.Fatalf("%d responses, want 1", len(resps))
	}
	r := resps[0]
	if r.ID != 4 || r.Code != CodeOverloaded || r.RetryAfterMillis == 0 || r.Window == 0 {
		t.Fatalf("shed answer %+v, want CodeOverloaded with a retry-after hint and a window", r)
	}
}
