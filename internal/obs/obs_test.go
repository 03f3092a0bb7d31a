package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic tracer clock: each reading advances it
// by step.
type fakeClock struct {
	mu   sync.Mutex
	now  time.Duration
	step time.Duration
}

func (c *fakeClock) read() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += c.step
	return c.now
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("root")
	if sp != nil {
		t.Fatal("nil tracer produced a span")
	}
	// Every span method must be a no-op on nil.
	c := sp.Child("x")
	if c != nil {
		t.Fatal("nil span produced a child")
	}
	sp.End()
	sp.SetInt("k", 1)
	sp.SetStr("s", "v")
	if _, ok := sp.Int("k"); ok {
		t.Fatal("nil span has attrs")
	}
	if _, ok := sp.Str("s"); ok {
		t.Fatal("nil span has attrs")
	}
	if sp.Name() != "" || sp.Duration() != 0 || sp.SumInt("k") != 0 {
		t.Fatal("nil span has state")
	}
	if sp.Find("root") != nil || sp.Children() != nil || sp.Attrs() != nil {
		t.Fatal("nil span has structure")
	}
	if sp.RenderString() != "" {
		t.Fatal("nil span renders")
	}

	var reg *Registry
	reg.Counter("c").Inc()
	reg.Histogram("h", LatencyBuckets).Observe(1)
	if err := reg.WriteProm(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("c").Value() != 0 {
		t.Fatal("nil registry counted")
	}

	var sl *SlowLog
	sl.Add(SlowEntry{})
	if sl.Total() != 0 || sl.Entries() != nil {
		t.Fatal("nil slowlog has state")
	}
}

func TestSpanTree(t *testing.T) {
	clk := &fakeClock{step: time.Millisecond}
	tr := &Tracer{clock: clk.read}
	root := tr.Start("query")
	root.SetStr("spec", "study 1")
	a := root.Child("parse")
	a.End()
	b := root.Child("execute")
	b.SetInt("pages", 15)
	op := b.Child("table scan")
	op.SetInt("pages", 3)
	op.End()
	b.End()
	root.End()

	if got := root.SumInt("pages"); got != 18 {
		t.Fatalf("SumInt(pages) = %d, want 18", got)
	}
	spans := 0
	root.Walk(func(*Span, int) { spans++ })
	if spans != 4 {
		t.Fatalf("Walk met %d spans, want 4", spans)
	}
	if root.Find("table scan") != op {
		t.Fatal("Find missed the operator span")
	}
	if root.Find("missing") != nil {
		t.Fatal("Find invented a span")
	}
	if v, ok := b.Int("pages"); !ok || v != 15 {
		t.Fatalf("pages attr = %d,%v want 15,true", v, ok)
	}
	if s, ok := root.Str("spec"); !ok || s != "study 1" {
		t.Fatalf("spec attr = %q,%v", s, ok)
	}
	if root.Duration() <= 0 {
		t.Fatal("root has no duration")
	}
	if len(root.Children()) != 2 {
		t.Fatalf("root has %d children, want 2", len(root.Children()))
	}

	out := root.RenderString()
	for _, want := range []string{"query", "  parse", "  execute", "    table scan", `spec="study 1"`, "pages=15"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}

	depths := map[string]int{}
	root.Walk(func(sp *Span, depth int) { depths[sp.Name()] = depth })
	if depths["query"] != 0 || depths["execute"] != 1 || depths["table scan"] != 2 {
		t.Fatalf("wrong depths: %v", depths)
	}
}

func TestSpanAttrOverwrite(t *testing.T) {
	tr := NewTracer()
	sp := tr.Start("s")
	sp.SetInt("k", 1)
	sp.SetInt("k", 7)
	sp.SetStr("s", "a")
	sp.SetStr("s", "b")
	if v, _ := sp.Int("k"); v != 7 {
		t.Fatalf("SetInt did not overwrite: %d", v)
	}
	if v, _ := sp.Str("s"); v != "b" {
		t.Fatalf("SetStr did not overwrite: %q", v)
	}
	if len(sp.Attrs()) != 2 {
		t.Fatalf("attrs = %v, want 2 entries", sp.Attrs())
	}
	// Same key as int and string coexist without clobbering each other.
	sp.SetInt("s", 3)
	if v, _ := sp.Str("s"); v != "b" {
		t.Fatal("int attr clobbered string attr")
	}
}

func TestSpanConcurrency(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("batch")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c := root.Child("q")
				c.SetInt("n", 1)
				c.End()
				root.SetInt("last", int64(j))
			}
		}()
	}
	wg.Wait()
	root.End()
	if got := root.SumInt("n"); got != 800 {
		t.Fatalf("SumInt(n) = %d, want 800", got)
	}
	if v, ok := root.Int("last"); !ok || v < 0 || v > 99 {
		t.Fatalf("last = %d,%v, want one of the writers' values", v, ok)
	}
}

func TestRegistryCounters(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("qbism_queries_total")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if reg.Counter("qbism_queries_total") != c {
		t.Fatal("counter not deduplicated by name")
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				reg.Counter("conc").Inc()
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("conc").Value(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
}

func TestRegistryHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.count != 5 {
		t.Fatalf("count = %d, want 5", h.count)
	}
	if h.sum != 556.5 {
		t.Fatalf("sum = %g, want 556.5", h.sum)
	}
	// Same name returns the same histogram even with different buckets.
	if reg.Histogram("lat", []float64{7}) != h {
		t.Fatal("histogram not deduplicated by name")
	}

	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE lat histogram",
		`lat_bucket{le="1"} 2`,   // 0.5 and 1 (le is inclusive)
		`lat_bucket{le="10"} 3`,  // + 5
		`lat_bucket{le="100"} 4`, // + 50
		`lat_bucket{le="+Inf"} 5`,
		"lat_sum 556.5",
		"lat_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWritePromDeterministic(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b_total").Inc()
	reg.Counter("a_total").Add(2)
	reg.Histogram("z_hist", []float64{1}).Observe(0.5)

	var first strings.Builder
	if err := reg.WriteProm(&first); err != nil {
		t.Fatal(err)
	}
	var second strings.Builder
	if err := reg.WriteProm(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatal("WriteProm output not deterministic")
	}
	if strings.Index(first.String(), "a_total") > strings.Index(first.String(), "b_total") {
		t.Fatalf("counters not name-sorted:\n%s", first.String())
	}
	for _, want := range []string{"# TYPE a_total counter", "a_total 2", "b_total 1"} {
		if !strings.Contains(first.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, first.String())
		}
	}
}

func TestSlowLogRing(t *testing.T) {
	sl := NewSlowLog(3)
	for i := 0; i < 5; i++ {
		sl.Add(SlowEntry{Label: string(rune('a' + i)), Total: time.Duration(i)})
	}
	if n := len(sl.Entries()); n != 3 {
		t.Fatalf("len = %d, want 3", n)
	}
	if sl.Total() != 5 {
		t.Fatalf("total = %d, want 5", sl.Total())
	}
	got := sl.Entries()
	if len(got) != 3 || got[0].Label != "c" || got[1].Label != "d" || got[2].Label != "e" {
		t.Fatalf("entries = %+v, want c,d,e oldest-first", got)
	}

	// Capacity is clamped to at least one entry.
	tiny := NewSlowLog(0)
	tiny.Add(SlowEntry{Label: "x"})
	tiny.Add(SlowEntry{Label: "y"})
	if len(tiny.Entries()) != 1 || tiny.Entries()[0].Label != "y" {
		t.Fatalf("tiny ring = %+v", tiny.Entries())
	}
}

func TestSlowLogConcurrency(t *testing.T) {
	sl := NewSlowLog(8)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				sl.Add(SlowEntry{Label: "q"})
				sl.Entries()
			}
		}()
	}
	wg.Wait()
	if n := len(sl.Entries()); sl.Total() != 400 || n != 8 {
		t.Fatalf("total=%d len=%d, want 400, 8", sl.Total(), n)
	}
}

func TestTracerMonotonicClock(t *testing.T) {
	tr := NewTracer()
	sp := tr.Start("s")
	time.Sleep(time.Millisecond)
	live := sp.Duration()
	if live <= 0 {
		t.Fatal("live duration not positive")
	}
	sp.End()
	d := sp.Duration()
	if d <= 0 {
		t.Fatal("ended duration not positive")
	}
	// Re-Ending extends the span.
	time.Sleep(time.Millisecond)
	sp.End()
	if sp.Duration() <= d {
		t.Fatal("re-End did not extend the span")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewRegistry().Histogram("q", []float64{1, 2, 4, 8})

	// Empty and nil histograms answer 0 instead of panicking.
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram p50 = %v", got)
	}
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Errorf("nil histogram p50 = %v", got)
	}

	// 100 observations spread uniformly in (1, 2]: every quantile
	// interpolates inside that bucket, so p50 ≈ 1.5 exactly under
	// Prometheus-style linear interpolation.
	for i := 0; i < 100; i++ {
		h.Observe(1.5)
	}
	if got := h.Quantile(0.5); got != 1.5 {
		t.Errorf("p50 = %v, want 1.5 (midpoint of the (1,2] bucket)", got)
	}
	if got := h.Quantile(1); got != 2 {
		t.Errorf("p100 = %v, want the bucket's upper bound 2", got)
	}

	// Out-of-range q clamps.
	if got := h.Quantile(-3); got != h.Quantile(0) {
		t.Errorf("q<0 not clamped: %v", got)
	}
	if got := h.Quantile(7); got != h.Quantile(1) {
		t.Errorf("q>1 not clamped: %v", got)
	}

	// A second bucket shifts the upper quantiles: 100 in (1,2] and 100
	// in (2,4] puts p75 at the midpoint of the second bucket.
	for i := 0; i < 100; i++ {
		h.Observe(3)
	}
	if got := h.Quantile(0.75); got != 3 {
		t.Errorf("p75 = %v, want 3 (midpoint of the (2,4] bucket)", got)
	}

	// +Inf observations clamp to the largest finite bound.
	h2 := NewRegistry().Histogram("q2", []float64{1, 2})
	h2.Observe(100)
	h2.Observe(200)
	if got := h2.Quantile(0.99); got != 2 {
		t.Errorf("overflow p99 = %v, want clamp to 2", got)
	}
}
