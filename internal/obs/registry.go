package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry is a process-wide collection of named counters and bounded
// histograms. Instruments are created on first use and safe for
// concurrent updates. A nil *Registry is valid: it hands out nil
// instruments whose methods are no-ops, so metric call sites need no
// enabled checks.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter   // guarded by mu
	hists    map[string]*Histogram // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds (ascending) if needed. An existing histogram
// keeps its original buckets.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		bounds := append([]float64(nil), buckets...)
		sort.Float64s(bounds)
		h = &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
		r.hists[name] = h
	}
	return h
}

// WriteProm writes every instrument in the Prometheus text exposition
// format, sorted by name for deterministic output.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.Unlock()

	names := make([]string, 0, len(counters))
	for n := range counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, counters[n].Value()); err != nil {
			return err
		}
	}

	names = names[:0]
	for n := range hists {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := hists[n].writeProm(w, n); err != nil {
			return err
		}
	}
	return nil
}

// Counter is a monotonically increasing integer metric. Nil-safe.
type Counter struct{ v int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	atomic.AddInt64(&c.v, n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return atomic.LoadInt64(&c.v)
}

// Histogram is a bounded histogram: observations land in the first
// bucket whose upper bound is >= the value, with an implicit +Inf
// bucket, plus a running sum and count. Nil-safe.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // guarded by mu
	counts []uint64  // len(bounds)+1; last is +Inf; guarded by mu
	sum    float64   // guarded by mu
	count  uint64    // guarded by mu
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

// Quantile estimates the q-th quantile (0 <= q <= 1) from the bucket
// counts, linearly interpolating within the containing bucket the way
// Prometheus's histogram_quantile does. Observations in the +Inf
// bucket clamp to the largest finite bound. Returns 0 with no
// observations.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || len(h.bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.count)
	cum := uint64(0)
	for i, b := range h.bounds {
		prev := cum
		cum += h.counts[i]
		if float64(cum) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if h.counts[i] == 0 {
				return b
			}
			frac := (rank - float64(prev)) / float64(h.counts[i])
			return lo + (b-lo)*frac
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// writeProm emits the histogram in Prometheus text format: cumulative
// _bucket{le=...} series, then _sum and _count.
func (h *Histogram) writeProm(w io.Writer, name string) error {
	h.mu.Lock()
	bounds := append([]float64(nil), h.bounds...)
	counts := append([]uint64(nil), h.counts...)
	sum, count := h.sum, h.count
	h.mu.Unlock()

	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	cum := uint64(0)
	for i, b := range bounds {
		cum += counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(b), cum); err != nil {
			return err
		}
	}
	cum += counts[len(counts)-1]
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, formatFloat(sum), name, count)
	return err
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Standard bucket layouts for the query path.
var (
	// LatencyBuckets covers query latency in seconds, from sub-ms to
	// tens of seconds.
	LatencyBuckets = []float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}
	// PageBuckets covers 4 KB pages touched per query.
	PageBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536}
	// RowBuckets covers rows produced per operator.
	RowBuckets = []float64{0, 1, 4, 16, 64, 256, 1024, 4096, 16384}
)
