// Package obs is the observability layer: zero-dependency tracing and
// metrics for the whole query path (LFM → sdb → MedicalServer → DX).
//
// A Tracer produces per-query span trees — parse, plan, per-operator
// execution, LFM page reads, netsim round-trips — with durations from a
// monotonic (or injected simulated) clock and counters attached as span
// attributes: pages read, cache hits and misses, retries, injected
// faults. A Registry aggregates process-wide counters and bounded
// histograms and exposes them in the Prometheus text format
// (WriteProm). A SlowLog keeps a bounded ring of forensic captures —
// the full span tree plus the executed plan — for queries over a
// latency threshold.
//
// Everything is nil-safe: a nil *Tracer starts nil *Spans, and every
// method on a nil *Span, *Counter, or *Histogram is a no-op. Call
// sites therefore carry no "if traced" branches, and the disabled-path
// overhead is a nil check.
package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Tracer starts root spans and stamps all spans of its trees with a
// shared clock. The zero value is not useful; a nil *Tracer is valid
// and produces nil spans (tracing disabled).
type Tracer struct {
	epoch time.Time
	clock func() time.Duration // nil = monotonic since epoch
}

// NewTracer returns a tracer using the monotonic wall clock.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// NewTracerClock returns a tracer reading time from clock — typically
// a simulated clock, so span durations are deterministic.
func NewTracerClock(clock func() time.Duration) *Tracer {
	return &Tracer{clock: clock}
}

// Enabled reports whether the tracer produces spans.
func (t *Tracer) Enabled() bool { return t != nil }

// now returns the tracer's current reading; 0 on a nil tracer.
func (t *Tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	if t.clock != nil {
		return t.clock()
	}
	return time.Since(t.epoch)
}

// Start begins a root span. Returns nil on a nil tracer.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{tracer: t, name: name, start: t.now()}
}

// Attr is one span attribute: a key with either an integer or a string
// value. Integer attributes accumulate with AddInt; SumInt folds them
// over a whole tree, which is how the span accounting is reconciled
// against lfm.Stats.
type Attr struct {
	Key   string
	Int   int64
	Str   string
	IsStr bool
}

// Span is one timed node of a trace tree. Spans are safe for
// concurrent use: parallel workers can add children and attributes to
// a shared parent. All methods are no-ops on a nil *Span.
type Span struct {
	tracer *Tracer

	mu       sync.Mutex
	name     string        // immutable after construction
	start    time.Duration // immutable after construction
	end      time.Duration // guarded by mu
	ended    bool          // guarded by mu
	attrs    []Attr        // guarded by mu
	children []*Span       // guarded by mu
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Child starts a child span. Returns nil on a nil receiver, so
// instrumentation chains stay branch-free when tracing is off.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tracer: s.tracer, name: name, start: s.tracer.now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End stamps the span's end time. Calling End again extends the end —
// aggregate spans (e.g. per-handle LFM spans) re-End after each
// contribution, so their duration covers the whole active period.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := s.tracer.now()
	s.mu.Lock()
	s.end = now
	s.ended = true
	s.mu.Unlock()
}

// Duration returns end-start for an ended span; for a live span, the
// time since start.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.end - s.start
	}
	return s.tracer.now() - s.start
}

// SetInt sets an integer attribute, replacing any prior value.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key && !s.attrs[i].IsStr {
			s.attrs[i].Int = v
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Int: v})
}

// AddInt accumulates into an integer attribute, creating it at v.
func (s *Span) AddInt(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key && !s.attrs[i].IsStr {
			s.attrs[i].Int += v
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Int: v})
}

// SetStr sets a string attribute, replacing any prior value.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key && s.attrs[i].IsStr {
			s.attrs[i].Str = v
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Str: v, IsStr: true})
}

// Int returns an integer attribute's value and whether it is set.
func (s *Span) Int(key string) (int64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key && !a.IsStr {
			return a.Int, true
		}
	}
	return 0, false
}

// Str returns a string attribute's value and whether it is set.
func (s *Span) Str(key string) (string, bool) {
	if s == nil {
		return "", false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key && a.IsStr {
			return a.Str, true
		}
	}
	return "", false
}

// Attrs returns a copy of the span's attributes in insertion order.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Children returns a copy of the span's direct children.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Walk visits the tree depth-first, passing each span and its depth.
func (s *Span) Walk(fn func(sp *Span, depth int)) {
	if s == nil {
		return
	}
	s.walk(fn, 0)
}

func (s *Span) walk(fn func(sp *Span, depth int), depth int) {
	fn(s, depth)
	for _, c := range s.Children() {
		c.walk(fn, depth+1)
	}
}

// SumInt folds an integer attribute over the whole tree — e.g.
// SumInt("pages") totals the LFM page reads recorded anywhere under
// this span, which must equal the pages the spanned calls were billed.
func (s *Span) SumInt(key string) int64 {
	var total int64
	s.Walk(func(sp *Span, _ int) {
		if v, ok := sp.Int(key); ok {
			total += v
		}
	})
	return total
}

// Find returns the first span in the tree (depth-first, this span
// included) with the given name, or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name() == name {
		return s
	}
	for _, c := range s.Children() {
		if m := c.Find(name); m != nil {
			return m
		}
	}
	return nil
}

// Count returns the number of spans in the tree.
func (s *Span) Count() int {
	n := 0
	s.Walk(func(*Span, int) { n++ })
	return n
}

// Render writes the tree as indented text, one span per line:
// name, duration, then attributes in insertion order.
func (s *Span) Render(w io.Writer) {
	s.Walk(func(sp *Span, depth int) {
		fmt.Fprintf(w, "%s%s %s", strings.Repeat("  ", depth), sp.Name(), sp.Duration())
		for _, a := range sp.Attrs() {
			if a.IsStr {
				fmt.Fprintf(w, " %s=%q", a.Key, a.Str)
			} else {
				fmt.Fprintf(w, " %s=%d", a.Key, a.Int)
			}
		}
		fmt.Fprintln(w)
	})
}

// RenderString is Render into a string ("" on nil).
func (s *Span) RenderString() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	s.Render(&b)
	return b.String()
}
