package obs

import (
	"sync"
	"time"
)

// SlowEntry is one forensic capture of a slow query: its label and
// total latency, the rendered span tree, and the executed plan with
// per-operator counters (the EXPLAIN ANALYZE view reconstructed from
// the operator spans).
type SlowEntry struct {
	Label   string
	Total   time.Duration // measured wall clock
	Tree    string
	Explain []string
}

// SlowLog is a bounded ring of slow-query captures: the newest
// Capacity entries are kept, older ones are overwritten. Safe for
// concurrent use; a nil *SlowLog drops everything.
type SlowLog struct {
	mu    sync.Mutex
	buf   []SlowEntry // guarded by mu
	next  int         // guarded by mu
	total uint64      // guarded by mu
}

// NewSlowLog returns a ring holding up to capacity entries
// (minimum 1).
func NewSlowLog(capacity int) *SlowLog {
	if capacity < 1 {
		capacity = 1
	}
	return &SlowLog{buf: make([]SlowEntry, 0, capacity)}
}

// Add records one capture, evicting the oldest when full.
func (l *SlowLog) Add(e SlowEntry) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, e)
		return
	}
	l.buf[l.next] = e
	l.next = (l.next + 1) % cap(l.buf)
}

// Entries returns the retained captures, oldest first.
func (l *SlowLog) Entries() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowEntry, 0, len(l.buf))
	if len(l.buf) < cap(l.buf) {
		return append(out, l.buf...)
	}
	out = append(out, l.buf[l.next:]...)
	return append(out, l.buf[:l.next]...)
}

// Total returns how many captures were ever added, including evicted
// ones — the difference from len(Entries()) says how much history was
// dropped.
func (l *SlowLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}
