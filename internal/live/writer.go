package live

import (
	"bufio"
	"errors"
	"io"
	"sync/atomic"
)

// maxCoalescedFrames bounds how many encoded frames can queue on one
// connection's writer before senders block; it is also the upper bound on
// how many frames one gather can merge into a single buffered write. The
// gathered bytes themselves are bounded by the bufio.Writer, which cuts a
// syscall whenever its 64 KiB buffer fills.
const maxCoalescedFrames = 256

var errWriterClosed = errors.New("live: connection writer closed")

// outFrame is one fully framed message queued on a frameWriter: the arena
// buffer and the offset its length header starts at (the bytes before the
// offset are the unused remainder of the frameHdrMax reservation).
type outFrame struct {
	bp  *[]byte
	off int32
}

// frameWriter is a connection's coalescing write half: senders encode and
// frame their message into an arena buffer and enqueue it; a single writer
// goroutine per connection gathers every frame queued since the last
// syscall into one buffered write and flush. Concurrent shard flushes (and
// pipelined responses, and invalidation bursts) to the same connection
// therefore share syscalls instead of serializing on a write mutex, and the
// sender never blocks on the kernel unless the queue itself is full.
//
// On a write error the writer closes the underlying connection, so the read
// loop observes the broken stream and fails every pending call through the
// normal transport-error path (the PR 3 failure model); queued and
// subsequently enqueued frames are recycled, not written. A graceful Close
// is the opposite: what was queued before it is written out and flushed.
type frameWriter struct {
	bw   *bufio.Writer
	conn io.Closer // closed on write error to wake the read loop; may be nil

	ch     chan outFrame
	dead   chan struct{} // closed on first write error or on Close
	closed atomic.Bool   // guards close(dead)
	err    error         // first write error; published by closing dead
	done   chan struct{} // closed when the writer goroutine has exited
}

func newFrameWriter(w io.Writer, conn io.Closer) *frameWriter {
	fw := &frameWriter{
		bw:   bufio.NewWriterSize(w, 64<<10),
		conn: conn,
		ch:   make(chan outFrame, maxCoalescedFrames),
		dead: make(chan struct{}),
		done: make(chan struct{}),
	}
	go fw.run()
	return fw
}

// enqueue hands one framed buffer to the writer goroutine, blocking only if
// the queue is full. The buffer's ownership passes to the writer, which
// recycles it after the bytes are on the stream. A dead writer recycles the
// buffer immediately and reports why it is dead.
func (fw *frameWriter) enqueue(f outFrame) error {
	select {
	case fw.ch <- f:
		return nil
	case <-fw.dead:
		putBuf(f.bp)
		if fw.err != nil {
			return fw.err
		}
		return errWriterClosed
	}
}

// Close stops the writer goroutine and waits for it. Frames queued before
// Close are written out first: a response counts as finished once it is
// queued here (Server.Drain closes on that count), so dropping it would lose
// an answer already committed to. wireConn.Close bounds that final write.
func (fw *frameWriter) Close() {
	if fw.closed.CompareAndSwap(false, true) {
		close(fw.dead)
	}
	<-fw.done
}

// fail records the first write error and brings the connection down so the
// read loop fails every pending call.
func (fw *frameWriter) fail(err error) {
	if fw.closed.CompareAndSwap(false, true) {
		fw.err = err
		close(fw.dead)
	}
	if fw.conn != nil {
		fw.conn.Close()
	}
}

func (fw *frameWriter) run() {
	defer close(fw.done)
	defer fw.drain()
	for {
		select {
		case f := <-fw.ch:
			if !fw.gather(f) {
				return
			}
		case <-fw.dead:
			// Only a graceful Close gets here (a write error returns through
			// gather above): write out what was queued before it.
			select {
			case f := <-fw.ch:
				fw.gather(f)
			default:
			}
			return
		}
	}
}

// gather writes f plus every frame already queued behind it, then flushes
// the lot in one syscall (or as few as the bufio buffer allows). Reports
// whether the stream is still healthy.
func (fw *frameWriter) gather(f outFrame) bool {
	for {
		_, err := fw.bw.Write((*f.bp)[f.off:])
		putBuf(f.bp)
		if err != nil {
			fw.fail(err)
			return false
		}
		select {
		case f = <-fw.ch:
			continue
		default:
		}
		if err := fw.bw.Flush(); err != nil {
			fw.fail(err)
			return false
		}
		return true
	}
}

// drain recycles whatever is left in the queue after a write error. A sender
// that raced its frame in after this final sweep leaks that one buffer to
// the GC, which is harmless; no goroutine ever blocks on it.
func (fw *frameWriter) drain() {
	for {
		select {
		case f := <-fw.ch:
			putBuf(f.bp)
		default:
			return
		}
	}
}
