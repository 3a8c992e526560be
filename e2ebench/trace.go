package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one traced interval: a layer boundary crossed by the
// benchmark, with the span that caused it. Spans of one request share
// Req. Times are offsets from the tracer's epoch.
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Req    uint64        `json:"req,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID allocates a span id, so that a parent can be named before its
// interval is known.
func (t *tracer) newID() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span under a preallocated id.
func (t *tracer) record(id, parent, req uint64, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
}

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, req uint64, start, end time.Time) uint64 {
	id := t.newID()
	t.record(id, parent, req, name, start, end)
	return id
}

// requestSpans records the client-side spans of one request: the root
// from its due time to the end of its output check, and one child per
// phase.
func (t *tracer) requestSpans(id uint64, r request) {
	root := t.add("client.request", 0, id, r.due, r.checked)
	t.add("client.wait", root, id, r.due, r.sent)
	t.add("http.exchange", root, id, r.sent, r.hdr)
	t.add("http.body", root, id, r.hdr, r.end)
	t.add("client.check", root, id, r.end, r.checked)
}

// timed runs f inside a span and returns its duration.
func (t *tracer) timed(name string, parent uint64, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(name, parent, 0, start, end)
	return end.Sub(start)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
