package main

import (
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestGeneratorDeterminism(t *testing.T) {
	c := corpusOf(workloadConfig(wlDXInteractive, false))
	for _, name := range workloadNames {
		a, err := generate(name, c, 1993)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, c, 1993)
		other, _ := generate(name, c, 1994)
		if opsHash(a) != opsHash(b) {
			t.Errorf("%s: the same seed gave two different operation lists", name)
		}
		if opsHash(a) == opsHash(other) {
			t.Errorf("%s: seeds 1993 and 1994 gave the same operation list", name)
		}
		// What a seed may not change is how much of each shape a pass holds.
		if !reflect.DeepEqual(shapeCounts(a), shapeCounts(other)) {
			t.Errorf("%s: shape mix depends on the seed: %v vs %v", name, shapeCounts(a), shapeCounts(other))
		}
	}
	if _, err := generate("nonesuch", c, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func shapeCounts(ops []op) map[string]int {
	counts := make(map[string]int)
	for _, o := range ops {
		counts[o.Shape]++
	}
	return counts
}

func TestGeneratedListSizes(t *testing.T) {
	c := corpusOf(workloadConfig(wlDXInteractive, false))
	want := map[string]int{wlDXInteractive: 48, wlDaemonSmall: 1024, wlBulkOpen: 576, wlPopulationBatch: 64}
	for name, n := range want {
		ops, err := generate(name, c, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(ops) != n {
			t.Errorf("%s: %d operations per pass, the frozen size is %d", name, len(ops), n)
		}
	}
	// Boxes must fit the grid, with sides inside [N/8, 5N/8).
	ops, _ := generate(wlDXInteractive, c, 7)
	for _, o := range ops {
		if o.Shape != shapeBox {
			continue
		}
		b := o.Spec.Box
		side := int(b[3]-b[0]) + 1
		if side < c.Side/8 || side >= 5*c.Side/8 || int(b[3]) >= c.Side || int(b[4]) >= c.Side || int(b[5]) >= c.Side {
			t.Errorf("box %v: side %d outside [%d,%d) or off the %d grid", *b, side, c.Side/8, 5*c.Side/8, c.Side)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	values := []float64{50, 10, 40, 20, 30} // unsorted on purpose
	for _, tc := range []struct{ p, want float64 }{
		{50, 30}, {95, 50}, {100, 50}, {20, 10}, {21, 20}, {1, 10},
	} {
		if got := percentile(values, tc.p); got != tc.want {
			t.Errorf("p%g = %g, want %g", tc.p, got, tc.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
	// 100 samples: p99 is the 99th, one sample beyond it.
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %g, want 99", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartiles(ten), [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if got, want := quartiles([]float64{1, 2}), [3]float64{0.75, 1.5, 2.25}; got != want {
		t.Errorf("quartiles(1,2) = %v, want %v", got, want)
	}
	if got := spread(ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want 1", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "loadgen.op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "transport.call", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "qbism.unmarshal", Start: 20, End: 50}, // overlaps span 2
		{ID: 4, Parent: 1, Name: "dx.render", Start: 90, End: 120},      // clipped to its parent
		{ID: 5, Parent: 2, Name: "qbism.serve_rpc", Start: 12, End: 22},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 20 - 10, 3: 30, 4: 30, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	rows := tableRows(selfPerOp(spans, 2))
	var total float64
	for _, r := range rows {
		total += r.ShareFrac
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %g", total)
	}
	if rows[0].Span != "loadgen.op" || rows[0].SelfUsOp != 0.025 || rows[0].Module != "loadgen" {
		t.Errorf("largest row = %+v, want loadgen.op at 0.025 us/op", rows[0])
	}
}

func TestRecorderNilIsFree(t *testing.T) {
	var rec *recorder
	id := rec.start("x", 0, 0)
	rec.end(id)
	if err := rec.timed("y", 0, id, func() error { return nil }); err != nil || id != 0 || rec.snapshot() != nil {
		t.Error("a nil recorder must record nothing and pass calls through")
	}
}

// A stalled call must be charged to the requests queued behind it, from
// the instant each was due — not from when the connection finally took
// them.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	const stall = 100 * time.Millisecond
	r := openRung(100, 300*time.Millisecond, 1, func(_, i int) bool {
		if i == 0 {
			time.Sleep(stall)
		}
		return true
	})
	if r.Scheduled != 30 {
		t.Fatalf("scheduled %d requests, want 30", r.Scheduled)
	}
	// Request i was due at 10·i ms and could not start before the stall
	// ended at ≥100 ms, whatever the machine's load.
	for i := 1; i <= 5; i++ {
		if floor := float64(100 - 10*i); r.LatencyMs[i] < floor {
			t.Errorf("request %d: latency %.2f ms from its due time, must be at least %.0f", i, r.LatencyMs[i], floor)
		}
	}
	late := append([]float64(nil), r.SendLateMs...)
	sort.Float64s(late)
	if late[len(late)-1] < 89 {
		t.Errorf("largest send lateness %.2f ms; request 1 started at least 90 ms late", late[len(late)-1])
	}
	if r.Completed+r.Unsent+r.Failed != r.Scheduled {
		t.Errorf("completed %d + unsent %d + failed %d != scheduled %d", r.Completed, r.Unsent, r.Failed, r.Scheduled)
	}
}

// Requests the connections never got to before the rung ended are
// unsent, and unsent requests miss the limit.
func TestOpenLoopUnsentMissTheLimit(t *testing.T) {
	r := openRung(1000, 100*time.Millisecond, 1, func(_, i int) bool {
		time.Sleep(10 * time.Millisecond)
		return true
	})
	if r.Scheduled != 100 {
		t.Fatalf("scheduled %d, want 100", r.Scheduled)
	}
	if r.Completed > 11 || r.Unsent < 89 {
		t.Errorf("one connection at 10 ms per call completed %d and left %d unsent in 100 ms", r.Completed, r.Unsent)
	}
	if r.Missed < r.Unsent {
		t.Errorf("%d unsent but only %d missed", r.Unsent, r.Missed)
	}
	if r.inSLO() {
		t.Error("a rung that left most requests unsent is inside the limit")
	}
	if r.AchievedQPS > 110 {
		t.Errorf("achieved %.0f q/s with a 10 ms call on one connection", r.AchievedQPS)
	}
	// An unsent request's recorded latency is the wait it had
	// accumulated at the end of the rung.
	if got, want := r.LatencyMs[99], 1.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("last request waited %.3f ms when the rung ended, want %.3f", got, want)
	}
}

func TestOpenLoopFailuresCount(t *testing.T) {
	r := openRung(200, 50*time.Millisecond, 2, func(_, i int) bool { return i != 3 })
	if r.Failed != 1 || r.inSLO() {
		t.Errorf("failed = %d, inSLO = %v; one failure must put the rung outside the limit", r.Failed, r.inSLO())
	}
}

func TestMaxRateInSLO(t *testing.T) {
	good := func(rate float64) rung {
		return rung{Rate: rate, Scheduled: 100, Completed: 100, AchievedQPS: rate}
	}
	slow := good(600)
	slow.Missed = 6 // more than 5 % beyond the limit
	behind := good(1200)
	behind.AchievedQPS = 0.9 * 1200
	if got := maxRateInSLO([]rung{good(150), good(300), slow, behind}); got != 300 {
		t.Errorf("max rate = %g, want 300", got)
	}
	// A rung that passes above one that fails does not count.
	if got := maxRateInSLO([]rung{good(150), slow, good(600)}); got != 150 {
		t.Errorf("max rate = %g, want 150", got)
	}
	if got := maxRateInSLO([]rung{behind}); got != 0 {
		t.Errorf("max rate = %g, want 0", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_qps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	noisy := []float64{80, 100, 120, 90, 110}
	for _, tc := range []struct {
		name   string
		def    metricDef
		exact  bool
		a, b   float64
		pa, pb []float64
		want   string
	}{
		{"within bound", lower, false, 100, 105, steady, steady, verdictOK},
		{"beyond bound", lower, false, 100, 115, steady, steady, verdictWorse},
		{"improved", lower, false, 100, 50, steady, steady, verdictOK},
		{"higher is better", higher, false, 100, 85, steady, steady, verdictWorse},
		{"spread wider than bound", lower, false, 100, 105, noisy, steady, verdictUnresolved},
		{"noisy but every pass better", lower, false, 100, 60, noisy, []float64{60, 61, 59}, verdictOK},
		{"exact equal", lower, true, 141.5, 141.5, nil, nil, verdictOK},
		{"exact moved either way", lower, true, 141.5, 141.4, nil, nil, verdictWorse},
		{"no passes recorded", higher, false, 520, 500, nil, nil, verdictOK},
	} {
		if _, got := verdict(tc.def, tc.exact, tc.a, tc.b, tc.pa, tc.pb); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	zero := metricDef{Name: "failed_frac", Better: "lower", Bound: 0}
	if _, got := verdict(zero, false, 0, 0.01, nil, nil); got != verdictWorse {
		t.Errorf("failures appearing: %s, want worse", got)
	}
	if _, got := verdict(zero, false, 0, 0, nil, nil); got != verdictOK {
		t.Errorf("no failures on either side: %s, want ok", got)
	}
}

// The smoke run drives all four workloads end to end on a 32³ corpus
// and pins the contract: a run emits exactly the metrics BENCHMARK.json
// names, each with the unit it declares, and answers correctly.
func TestSmokeEmitsExactlyTheManifest(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range workloadNames {
		res, err := run(options{workload: name, seed: 1993, seconds: 0.2, trace: true, smoke: true, traceDir: dir})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d problems=%v", name, res.Correct, res.Failed, res.Attempted, res.Problems)
		}
		if len(res.SelfTime) == 0 {
			t.Errorf("%s: traced run produced no self-time table", name)
		}
		for _, traced := range []bool{false, true} {
			res.Traced = traced
			line, err := resultLine(m, res)
			if err != nil {
				t.Errorf("%s (trace %v): %v", name, traced, err)
				continue
			}
			var parsed struct {
				Correct   bool                   `json:"correct"`
				Attempted int                    `json:"attempted"`
				Failed    int                    `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &parsed); err != nil {
				t.Fatalf("%s: result line is not JSON: %v", name, err)
			}
			defs := m.EndToEnd
			if traced {
				defs = m.PerLayer
			}
			if len(parsed.Metrics) != len(defs) {
				t.Errorf("%s (trace %v): %d metrics on the line, the manifest names %d", name, traced, len(parsed.Metrics), len(defs))
			}
			for _, d := range defs {
				if v, ok := parsed.Metrics[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("%s (trace %v): %s = %+v, want unit %s", name, traced, d.Name, v, d.Unit)
				}
			}
		}
		// Nothing is emitted per layer that the manifest does not name.
		named := make(map[string]bool)
		for _, d := range m.PerLayer {
			named[d.Name] = true
		}
		for metric := range res.PerLayer {
			if !named[metric] {
				t.Errorf("%s: per-layer metric %s is not in BENCHMARK.json", name, metric)
			}
		}
		// End-to-end metrics are never 0 (the bound is a share of them).
		for _, d := range m.EndToEnd {
			if res.EndToEnd[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g", name, d.Name, res.EndToEnd[d.Name].Value)
			}
		}
	}
}
