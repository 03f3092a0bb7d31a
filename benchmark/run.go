package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"qbism/internal/bench"
	"qbism/internal/lfm"
	"qbism/internal/transport"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	traceDir string
}

// window is everything measured between the start and the end of the
// timed passes (or, for bulk_open, of the ladder).
type window struct {
	passes int
	ops    int // operations completed, failures included
	total  opStats
	lat    []float64 // every operation's latency, ms, pooled over passes
	series map[string][]float64
	ladder []rung
	before counters
	after  counters
}

func (w *window) lfmDelta() lfm.Stats          { return w.after.lfm.Sub(w.before.lfm) }
func (w *window) clientDelta() transport.Stats { return w.after.client.Sub(w.before.client) }
func (w *window) registryDelta(name string) float64 {
	return float64(w.after.registry[name] - w.before.registry[name])
}

// perOp is the exact counters of a stretch of operations, per
// operation: LFM pages touched (device reads plus cache hits — what
// the unbuffered protocol would read), DATA_REGION bytes returned (the
// response header carries timings, so whole-response sizes do not
// repeat), and heap allocations.
func perOp(before, after counters, st opStats, ops int) (pages, respBytes, allocs float64) {
	l := after.lfm.Sub(before.lfm)
	n := float64(ops)
	return ratio(float64(l.PageReads+l.CacheHits), n),
		ratio(float64(st.respBytes), n),
		ratio(float64(after.mallocs-before.mallocs), n)
}

// runClosed repeats passes over the operation list until the timed
// window is used up. workers is the executor pool size handed to
// population_batch sweeps.
func (h *harness) runClosed(rec *recorder, budget time.Duration, maxPasses, workers int) *window {
	w := &window{series: make(map[string][]float64), before: h.snapshot()}
	clients := h.clients
	if h.workload == wlPopulationBatch {
		clients = 1 // one driver; the parallelism is inside each sweep
	}
	start := time.Now()
	for w.passes == 0 || (time.Since(start) < budget && (maxPasses == 0 || w.passes < maxPasses)) {
		before := h.snapshot()
		stats := make([]opStats, clients)
		base := w.passes * len(h.ops) // distinct span ids per pass
		wall, lat := closedPass(len(h.ops), clients, func(c, i int) {
			st, _ := h.runOp(rec, c, base+i, workers)
			stats[c].add(st)
		})
		after := h.snapshot()
		var st opStats
		for _, s := range stats {
			st.add(s)
		}
		pages, respBytes, allocs := perOp(before, after, st, len(h.ops))
		w.series["throughput_qps"] = append(w.series["throughput_qps"], float64(len(h.ops))/wall.Seconds())
		w.series["latency_p50_ms"] = append(w.series["latency_p50_ms"], percentile(lat, 50))
		w.series["latency_p95_ms"] = append(w.series["latency_p95_ms"], percentile(lat, 95))
		w.series["lfm_pages_per_query"] = append(w.series["lfm_pages_per_query"], pages)
		w.series["resp_bytes_per_query"] = append(w.series["resp_bytes_per_query"], respBytes)
		w.series["allocs_per_query"] = append(w.series["allocs_per_query"], allocs)
		w.lat = append(w.lat, lat...)
		w.total.add(st)
		w.ops += len(h.ops)
		w.passes++
		w.after = after
	}
	return w
}

// runLadder is bulk_open's timed window: the fixed-rate rungs in
// ascending order, each for an equal share of the budget, every rung
// walking the operation list from its start.
func (h *harness) runLadder(rec *recorder, budget time.Duration, rates []float64) *window {
	w := &window{series: make(map[string][]float64), before: h.snapshot()}
	per := budget / time.Duration(len(rates))
	for _, rate := range rates {
		stats := make([]opStats, h.clients)
		r := openRung(rate, per, h.clients, func(c, i int) bool {
			st, ok := h.runOp(rec, c, i, 0)
			stats[c].add(st)
			return ok
		})
		for _, s := range stats {
			w.total.add(s)
		}
		w.ops += r.Completed + r.Failed
		w.ladder = append(w.ladder, r)
		w.passes++
	}
	w.after = h.snapshot()
	return w
}

// hostInfo fingerprints the machine and the build.
func hostInfo() host {
	rev := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return host{Host: bench.CurrentHost(), GitRev: rev}
}

// run measures one workload.
func run(o options) (*result, error) {
	cfg := workloadConfig(o.workload, o.smoke)
	ops, err := generate(o.workload, corpusOf(cfg), o.seed)
	if err != nil {
		return nil, err
	}
	budget := time.Duration(o.seconds * float64(time.Second))

	// Set-up, timed once: a paper-scale load costs ≈ 9 s of the ≈ 37 s
	// the driver's time cap leaves a run, so the driver's ten runs per
	// set do the averaging.
	t0 := time.Now()
	h, err := setUp(o.workload, cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setup := time.Since(t0)
	defer h.close()
	h.ops, h.specs = ops, distinctSpecs(o.workload, h.corp, ops)
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	res := &result{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke, Traced: o.trace,
		Host: hostInfo(), OpsHash: opsHash(ops), PassOps: len(ops), Clients: h.clients,
		EndToEnd: make(metricSet), PerPass: make(map[string]passSeries),
	}
	e2e := res.EndToEnd
	e2e.set("setup_s", "s", setup.Seconds())
	e2e.set("setup_heap_mb", "MiB", float64(mem.HeapInuse)/(1<<20))
	userBytes := float64(len(h.corp.Studies)) * float64(h.sys.Curve.Length())
	e2e.set("stored_bytes_per_user_byte", "ratio", float64(h.pagesInUse()*h.sys.LFM.PageSize())/userBytes)

	// Verification, which is also the warm-up of the server path; then
	// one discarded pass to warm the client path.
	var srv *recorder
	if o.trace {
		srv = newRecorder()
	}
	verified := h.verify(srv)
	var w *window
	if o.workload == wlBulkOpen {
		w = h.runLadder(nil, budget, ladder)
	} else {
		h.runClosed(nil, 0, 1, h.clients)
		w = h.runClosed(nil, budget, 0, h.clients)
	}
	h.endToEnd(res, w)
	h.reconcile(w)

	if o.trace {
		tf, err := h.traced(res, w, srv, budget)
		if err != nil {
			return nil, err
		}
		tf.Workload, tf.Seed = o.workload, o.seed
		path, err := writeTrace(o.traceDir, tf)
		if err != nil {
			return nil, fmt.Errorf("writing the trace: %w", err)
		}
		fmt.Printf("trace: %d client, %d server, %d load spans in %s\n",
			len(tf.Client), len(tf.Server), len(tf.Load), path)
	}

	res.Passes = w.passes
	res.Attempted = verified + w.ops
	res.Failed, res.Problems = h.outcome()
	res.Correct = len(res.Problems) == 0
	e2e.set("failed_frac", "ratio", ratio(float64(res.Failed), float64(res.Attempted)))
	if o.trace {
		// A traced driver run records the end-to-end metrics the manifest
		// cannot gate, as the untraced window measured them (0 where one
		// does not apply to the workload).
		for _, g := range localGates {
			res.PerLayer.set(g.Name, g.Unit, e2e[g.Name].Value)
		}
	}
	return res, nil
}

// endToEnd fills the end-to-end metrics the timed window yields.
func (h *harness) endToEnd(res *result, w *window) {
	e2e := res.EndToEnd
	pages, respBytes, allocs := perOp(w.before, w.after, w.total, w.ops)
	e2e.set("lfm_pages_per_query", "pages", pages)
	e2e.set("resp_bytes_per_query", "B", respBytes)
	e2e.set("allocs_per_query", "count", allocs)
	if h.workload == wlBulkOpen {
		top, at := w.ladder[len(w.ladder)-1], w.ladder[ladderLatencyRung]
		e2e.set("throughput_qps", "1/s", top.AchievedQPS)
		e2e.set("latency_p50_ms", "ms", at.p50())
		e2e.set("latency_p95_ms", "ms", at.p95())
		e2e.set("max_rate_in_slo_qps", "1/s", maxRateInSLO(w.ladder))
		for _, r := range w.ladder {
			res.Ladder = append(res.Ladder, rungSummary{
				Rate: r.Rate, Scheduled: r.Scheduled, Completed: r.Completed, Unsent: r.Unsent,
				Failed: r.Failed, Missed: r.Missed, AchievedQPS: r.AchievedQPS,
				P50Ms: r.p50(), P95Ms: r.p95(), InSLO: r.inSLO(),
			})
		}
		return
	}
	for name, values := range w.series {
		res.PerPass[name] = newPassSeries(values)
	}
	// The rate is taken per pass and the run reports its fastest pass:
	// interference on a shared box only ever slows a pass down, so the
	// fastest one is the closest the window came to the undisturbed
	// system, and it repeats better than the median pass does. The
	// percentiles are medians over passes of each pass's nearest-rank
	// percentile.
	e2e.set("throughput_qps", "1/s", slices.Max(w.series["throughput_qps"]))
	e2e.set("latency_p50_ms", "ms", median(w.series["latency_p50_ms"]))
	e2e.set("latency_p95_ms", "ms", median(w.series["latency_p95_ms"]))
	if h.workload == wlDaemonSmall {
		// The one workload whose window holds thousands of samples, so
		// that well over ten lie beyond the pooled p99.
		e2e.set("latency_p99_ms", "ms", percentile(w.lat, 99))
	}
}

// reconcile cross-checks the counters the metrics are built from. A
// disagreement is a bug in the benchmark or the program's accounting,
// so it fails the run instead of becoming a number.
func (h *harness) reconcile(w *window) {
	if h.dmn != nil {
		if client, server := h.clientStats().Calls, h.dmn.Stats().Calls; client != server {
			h.problem("reconcile: clients made %d calls, the server dispatched %d", client, server)
		}
	}
	// Per-query page counts are deltas of the shared lfm.Stats, exact
	// only while one query runs at a time; a sweep also reads band
	// REGIONs outside any query.
	serial := h.clients == 1 && h.workload != wlPopulationBatch
	if reads := w.lfmDelta().PageReads; serial && w.total.metaPages != reads {
		h.problem("reconcile: Σ QueryMeta.LFMPages = %d, lfm.Stats counted %d page reads", w.total.metaPages, reads)
	}
	if h.sys.Cfg.CachePages == 0 {
		for _, name := range []string{"lfm_pages_per_query", "resp_bytes_per_query"} {
			for _, v := range w.series[name] {
				if v != w.series[name][0] {
					h.problem("reconcile: %s differs between passes of the same list: %v", name, w.series[name])
					break
				}
			}
		}
	}
}
