package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// span is one benchmark-side interval around a call into a layer. Spans of
// one operation share op; parent is the id of the span that caused this one
// (0 for a root). n is how many calls the interval covers: the per-call
// probes of nanosecond-scale functions time a batch per span, because two
// clock reads cost as much as the call they would bracket.
type span struct {
	name       string
	start, end int64 // ns on the process clock
	id, parent int32
	op         int32
	n          int32
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// *tracer records nothing, so the untraced path pays one nil check per
// would-be span.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, 1<<18)} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, start, end int64, parent, op, n int32) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{name: name, start: start, end: end, id: id, parent: parent, op: op, n: n})
	t.mu.Unlock()
	return id
}

// reserve allocates an id for a span whose children finish before it does;
// finish fills it in.
func (t *tracer) reserve(name string, op int32) int32 {
	return t.add(name, 0, 0, 0, op, 1)
}

func (t *tracer) finish(id int32, start, end int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].start, t.spans[id-1].end = start, end
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its child spans cover, and the calls it covers. Children of one parent in
// this harness never overlap each other, so covered time is their sum
// clipped to the parent's interval.
func (t *tracer) selfTimes() (selfNs map[string]float64, calls map[string]float64) {
	selfNs, calls = map[string]float64{}, map[string]float64{}
	covered := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.parent == 0 {
			continue
		}
		p := t.spans[s.parent-1]
		covered[s.parent] += max(0, min(s.end, p.end)-max(s.start, p.start))
	}
	for _, s := range t.spans {
		selfNs[s.name] += float64(max(0, s.end-s.start-covered[s.id]))
		calls[s.name] += float64(s.n)
	}
	return selfNs, calls
}

// durations returns the duration in nanoseconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// write stores the spans as JSON lines: name, start and end in nanoseconds
// on the process clock, id, parent id (0 = root), op id and call count.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("create span directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create span file: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	for _, s := range t.spans {
		b = append(b[:0], `{"name":`...)
		b = strconv.AppendQuote(b, s.name)
		b = append(b, `,"start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, `,"id":`...)
		b = strconv.AppendInt(b, int64(s.id), 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, `,"op":`...)
		b = strconv.AppendInt(b, int64(s.op), 10)
		b = append(b, `,"n":`...)
		b = strconv.AppendInt(b, int64(s.n), 10)
		b = append(b, "}\n"...)
		_, _ = w.Write(b) // bufio keeps the first error; Flush reports it
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close span file: %w", err)
	}
	return nil
}
