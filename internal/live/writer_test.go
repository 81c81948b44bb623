package live

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

// gatedWriter blocks every Write until the gate opens, then records the
// bytes (or fails, when err is set).
type gatedWriter struct {
	gate chan struct{}
	err  error

	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *gatedWriter) Write(p []byte) (int, error) {
	<-w.gate
	if w.err != nil {
		return 0, w.err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func testFrame(b byte) outFrame {
	bp := getBuf(bufInitialCap)
	*bp = append((*bp)[:0], b, b, b)
	return outFrame{bp: bp}
}

// TestFrameWriterCloseFlushesQueue pins the graceful half of Close: frames
// queued before it — including ones the writer goroutine had not picked up
// yet — are on the stream when Close returns. Server.Drain relies on it: a
// response counts as finished once it is queued here.
func TestFrameWriterCloseFlushesQueue(t *testing.T) {
	w := &gatedWriter{gate: make(chan struct{})}
	fw := newFrameWriter(w, nil)
	const frames = 10
	for i := 0; i < frames; i++ {
		if err := fw.enqueue(testFrame(byte('a' + i))); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	closed := make(chan struct{})
	go func() { fw.Close(); close(closed) }()
	close(w.gate) // the stream was stalled; now it drains
	<-closed
	want := []byte("aaabbbcccdddeeefffggghhhiiijjj")
	if got := w.buf.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("stream after Close = %q, want every queued frame in order: %q", got, want)
	}
	fw.Close() // idempotent
}

// TestFrameWriterFailDropsQueue pins the other half: after a write error the
// queue is recycled, not written, and senders learn the error.
func TestFrameWriterFailDropsQueue(t *testing.T) {
	boom := errors.New("boom")
	w := &gatedWriter{gate: make(chan struct{}), err: boom}
	fw := newFrameWriter(w, nil)
	for i := 0; i < 3; i++ {
		if err := fw.enqueue(testFrame('x')); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	close(w.gate)
	<-fw.done
	// enqueue's select may still find queue room once or twice; it must
	// report the write error as soon as it looks at the dead channel.
	var err error
	for i := 0; err == nil && i < 2*maxCoalescedFrames; i++ {
		err = fw.enqueue(testFrame('y'))
	}
	if !errors.Is(err, boom) {
		t.Fatalf("enqueue after a write error: %v, want the write error", err)
	}
	if n := w.buf.Len(); n != 0 {
		t.Fatalf("%d bytes reached the stream after a write error", n)
	}
	fw.Close() // must not block on a writer that already exited
}
