package live

import (
	"testing"
	"time"

	"joinopt/internal/storage"
)

// holders counts the conns registered as cachers of k.
func (c *cachers) holders(k string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	set, ok := c.byKey[k]
	if !ok {
		return 0
	}
	return 1 + len(set.more)
}

// size counts the keys c holds any cacher for.
func (c *cachers) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byKey)
}

func putReq(id uint64, key, value string) Request {
	return Request{ID: id, Op: OpPut, Table: "t", Keys: []string{key}, Params: [][]byte{[]byte(value)}}
}

// TestNotifyRegisterBeforeRead: the fetch registers its conn before it reads
// the row, so a put that lands between the two still finds the cacher — shown
// with an engine whose Get commits a put before returning the old value.
func TestNotifyRegisterBeforeRead(t *testing.T) {
	s := socketlessServer(t, false, AdmissionConfig{})
	tb := s.table("t")
	reader, readerOut := socketlessConn()
	writer, writerOut := socketlessConn()
	tb.store = putDuringGet{Table: tb.store, put: func() {
		if resp := serve(t, s, writer, writerOut, putReq(1, "k0", "new")); resp.Code != CodeOK {
			t.Errorf("put: %v %s", resp.Code, resp.Err)
		}
	}}
	serve(t, s, reader, readerOut, Request{ID: 2, Op: OpGet, Table: "t", Keys: []string{"k0"}})
	notifs := readerOut.notifications(t)
	if len(notifs) != 1 || notifs[0].Key != "k0" || notifs[0].Version != 1 {
		t.Fatalf("the reader got %+v, want the invalidation of k0 at version 1", notifs)
	}
}

// putDuringGet is a storage.Table whose Get runs put after the row has
// been read and before it is returned.
type putDuringGet struct {
	storage.Table
	put func()
}

func (p putDuringGet) Get(k string) ([]byte, int64, bool) {
	v, ver, ok := p.Table.Get(k)
	if p.put != nil {
		p.put()
	}
	return v, ver, ok
}

// TestNotifyFailedFlushKeepsRegistrations: a write batch that fails at the
// barrier takes nobody out of the registry and notifies nobody; the next
// acknowledged write of the key still does.
func TestNotifyFailedFlushKeepsRegistrations(t *testing.T) {
	s := socketlessServer(t, false, AdmissionConfig{})
	fault := storage.WrapFault(s.engine)
	s.engine = fault
	fault.FailFlush.Store(true)
	reader, readerOut := socketlessConn()
	writer, writerOut := socketlessConn()
	serve(t, s, reader, readerOut, Request{ID: 1, Op: OpGet, Table: "t", Keys: []string{"k0"}})

	if resp := serve(t, s, writer, writerOut, putReq(2, "k0", "lost")); resp.Code != CodeServer {
		t.Fatalf("put through a failing flush answered %v", resp.Code)
	}
	if notifs := readerOut.notifications(t); len(notifs) != 0 || s.table("t").cachers.holders("k0") != 1 {
		t.Fatalf("failed batch: %d notifications, %d holders; want 0 and 1", len(notifs), s.table("t").cachers.holders("k0"))
	}
	fault.FailFlush.Store(false)
	if resp := serve(t, s, writer, writerOut, putReq(3, "k0", "kept")); resp.Code != CodeOK {
		t.Fatalf("put: %v %s", resp.Code, resp.Err)
	}
	if notifs := readerOut.notifications(t); len(notifs) != 1 || s.table("t").cachers.holders("k0") != 0 {
		t.Fatalf("acknowledged batch: %d notifications, %d holders; want 1 and 0", len(notifs), s.table("t").cachers.holders("k0"))
	}
}

// TestNotifyStaleReplicatedRowNotifiesNobody: an OpPutRepl row that loses its
// set-if-newer race reports Computed=false and takes no cacher; the row that
// applies does both.
func TestNotifyStaleReplicatedRowNotifiesNobody(t *testing.T) {
	s := socketlessServer(t, false, AdmissionConfig{})
	reader, readerOut := socketlessConn()
	stream, streamOut := socketlessConn()
	serve(t, s, reader, readerOut, Request{ID: 1, Op: OpGet, Table: "t", Keys: []string{"k0", "k1"}})
	serve(t, s, stream, streamOut, putReq(2, "k0", "v@1")) // k0 now at version 1
	readerOut.notifications(t)
	serve(t, s, reader, readerOut, Request{ID: 3, Op: OpGet, Table: "t", Keys: []string{"k0"}})

	resp := serve(t, s, stream, streamOut, Request{ID: 4, Op: OpPutRepl, Table: "t",
		Keys:   []string{"k0", "k1"},
		Params: [][]byte{encodePutRepl(1, []byte("stale")), encodePutRepl(5, []byte("fresh"))}})
	if resp.Code != CodeOK || len(resp.Computed) != 2 || resp.Computed[0] || !resp.Computed[1] {
		t.Fatalf("replicated batch answered code %v applied %v, want [false true]", resp.Code, resp.Computed)
	}
	notifs := readerOut.notifications(t)
	if len(notifs) != 1 || notifs[0].Key != "k1" || notifs[0].Version != 5 {
		t.Fatalf("notifications %+v, want only k1 at version 5", notifs)
	}
	if c := &s.table("t").cachers; c.holders("k0") != 1 || c.holders("k1") != 0 {
		t.Fatalf("holders k0=%d k1=%d, want 1 and 0", c.holders("k0"), c.holders("k1"))
	}
}

// TestNotifyTakeIfEmitsVersionZero: a predicate take (a region moving away)
// deregisters exactly the selected keys and owes their cachers a version-0
// "moved, not changed" notification.
func TestNotifyTakeIfEmitsVersionZero(t *testing.T) {
	var c cachers
	a, aOut := socketlessConn()
	b, _ := socketlessConn()
	c.register(a, []string{"k0", "k1"})
	c.register(b, []string{"k1"})
	push(c.takeIf("t", func(k string) bool { return k == "k0" }))
	notifs := aOut.notifications(t)
	if len(notifs) != 1 || notifs[0] != (Notification{Table: "t", Key: "k0", Version: 0}) {
		t.Fatalf("notifications %+v, want k0 at version 0", notifs)
	}
	if c.holders("k0") != 0 || c.holders("k1") != 2 {
		t.Fatalf("holders k0=%d k1=%d, want 0 and 2", c.holders("k0"), c.holders("k1"))
	}
	// A conn whose read loop has exited is swept, and can never come back.
	b.gone.Store(true)
	c.dropConn(b)
	c.register(b, []string{"k1", "k2"})
	if c.holders("k1") != 1 || c.holders("k2") != 0 {
		t.Fatalf("after the drop: holders k1=%d k2=%d, want 1 and 0", c.holders("k1"), c.holders("k2"))
	}
}

// TestNotifySeveralCachersOfOneKey: a key's set keeps its first conn inline
// and the rest aside. Dropping the first promotes another, and a write owes
// each remaining cacher but the writer one notification.
func TestNotifySeveralCachersOfOneKey(t *testing.T) {
	var c cachers
	a, aOut := socketlessConn()
	b, bOut := socketlessConn()
	w, wOut := socketlessConn()
	for _, wc := range []*wireConn{a, b, w, b} {
		c.register(wc, []string{"k0"})
	}
	if n := c.holders("k0"); n != 3 {
		t.Fatalf("holders %d after registering a, b, w and b again; want 3", n)
	}
	c.dropConn(a)
	if n := c.holders("k0"); n != 2 {
		t.Fatalf("holders %d after a dropped; want 2", n)
	}
	push(c.take("t", []string{"k0"}, []Meta{{Version: 4}}, nil, w))
	if got := bOut.notifications(t); len(got) != 1 || got[0] != (Notification{Table: "t", Key: "k0", Version: 4}) {
		t.Fatalf("b got %+v, want k0 at version 4", got)
	}
	if len(aOut.notifications(t)) != 0 || len(wOut.notifications(t)) != 0 {
		t.Fatal("the dropped conn or the writer was notified")
	}
	if c.size() != 0 {
		t.Fatalf("the take left %d keys registered", c.size())
	}
}

// TestDisconnectDropsCacherRegistrations: a connection that goes away takes
// its registrations with it. Without the drop, every reconnect of a client
// leaks the dead conn and its buffers until some later put of each key it
// fetched, and that put encodes a notification for a closed writer.
func TestDisconnectDropsCacherRegistrations(t *testing.T) {
	s := NewServer(NewRegistry(), false)
	s.AddTable(TableSpec{Name: "t", Rows: map[string][]byte{"k0": []byte("v")}})
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	get := Request{Op: OpGet, Table: "t", Keys: []string{"k0"}}
	for i := 0; i < 5; i++ {
		c, err := DialNode(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Call(get); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	// connLoop's exit drops the registrations before it leaves s.conns.
	waitUntil(t, 5*time.Second, "the five closed conns to leave the server", func() bool {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return len(s.conns) == 0
	})
	if n := s.table("t").cachers.holders("k0"); n != 0 {
		t.Fatalf("%d dead conns still registered as cachers of k0", n)
	}

	notified := make(chan Notification, 4)
	live, err := DialNode(addr, func(n Notification) { notified <- n })
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	writer, err := DialNode(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	if _, err := live.Call(get); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Call(putReq(0, "k0", "w")); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-notified:
		if n.Key != "k0" || n.Version != 1 {
			t.Fatalf("notification %+v, want k0 at version 1", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the live cacher was never notified")
	}
	select {
	case n := <-notified:
		t.Fatalf("a second notification arrived: %+v", n)
	case <-time.After(20 * time.Millisecond):
	}
}
