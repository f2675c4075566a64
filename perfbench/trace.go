package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request or suite
// item share req; parent is the index of the enclosing span (-1 for a
// root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the tracer's origin
	End    int64  `json:"endNs"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op returning -1.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// record adds a closed span for work timed by the layer itself (the
// ADE sub-pass durations a remarks.Emitter reports), laid end to end
// from start.
func (t *tracer) record(name string, parent int, req int64, start int64, d time.Duration) int64 {
	if t == nil {
		return start
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: start + int64(d), Parent: parent, Req: req})
	return start + int64(d)
}

// startOf returns span i's start offset.
func (t *tracer) startOf(i int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[i].Start
}

// spanTotals are per-name sums over a tracer's closed spans.
type spanTotals struct {
	self  map[string]time.Duration // duration minus direct children's
	total map[string]time.Duration // duration
	n     map[string]int
}

func (t *tracer) totals() spanTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := spanTotals{map[string]time.Duration{}, map[string]time.Duration{}, map[string]int{}}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		d := time.Duration(s.End - s.Start)
		st.self[s.Name] += d
		st.total[s.Name] += d
		st.n[s.Name]++
		if s.Parent >= 0 {
			st.self[t.spans[s.Parent].Name] -= d
		}
	}
	return st
}

// absorb appends o's spans, keeping their parent links.
func (t *tracer) absorb(o *tracer) {
	o.mu.Lock()
	defer o.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	shift := int64(o.origin.Sub(t.origin))
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		s.Start += shift
		s.End += shift
		t.spans = append(t.spans, s)
	}
}

// write stores the spans as JSON lines under dir and returns the path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		enc.Encode(s)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
