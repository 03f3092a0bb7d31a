package qbism

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"qbism/internal/medserver"
)

func tracedConfig() Config {
	cfg := chaosBaseConfig()
	cfg.Trace = true
	return cfg
}

// TestTraceSpanPagesExact is the accounting acceptance check: over the
// full Table 3 suite run serially with tracing on, the "pages" counters
// summed over every query's span tree must equal the LFM's own
// PageReads delta exactly. The span tree is the I/O ledger — if it ever
// drifts from the device's accounting, a read path exists that the
// trace cannot see.
func TestTraceSpanPagesExact(t *testing.T) {
	sys, err := New(tracedConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := sys.LFM.Stats().PageReads
	var spanPages uint64
	for _, spec := range sys.Table3Queries() {
		res, err := sys.RunQuery(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Label(), err)
		}
		if res.Trace == nil {
			t.Fatalf("%s: tracing on but Trace is nil", spec.Label())
		}
		spanPages += uint64(res.Trace.SumInt("pages"))
		if got := uint64(res.Trace.SumInt("pages")); got != res.Meta.LFMPages {
			t.Errorf("%s: span pages %d != QueryMeta.LFMPages %d",
				spec.Label(), got, res.Meta.LFMPages)
		}
	}
	statsPages := sys.LFM.Stats().PageReads - before
	if spanPages != statsPages {
		t.Fatalf("span trees account %d pages, lfm.Stats says %d", spanPages, statsPages)
	}
	if spanPages == 0 {
		t.Fatal("suite read zero pages — the check is vacuous")
	}
}

// TestTraceSpanStructure pins the span model: a traced band+structure
// query produces the documented tree — query → rpc round trip with
// request/server/response legs, the two SQL phases with parse/plan/
// execute children, per-handle LFM read spans, and the DX stages.
func TestTraceSpanStructure(t *testing.T) {
	sys, err := New(tracedConfig())
	if err != nil {
		t.Fatal(err)
	}
	study := sys.Studies[0].StudyID
	b := sys.BandRegions[study][0]
	res, err := sys.RunQuery(QuerySpec{
		StudyID: study, Atlas: "Talairach", Structure: "ntal",
		HasBand: true, BandLo: int(b.Lo), BandHi: int(b.Hi),
	})
	if err != nil {
		t.Fatal(err)
	}
	root := res.Trace
	if root.Name() != "query" {
		t.Fatalf("root span is %q, want query", root.Name())
	}
	for _, want := range []string{
		"rpc.medicalQuery", "net.request", "server", "net.response",
		"sql.metadata", "sql.data", "sql.query", "sql.parse", "sql.plan",
		"sql.execute", "lfm.read", "dx.import", "dx.render",
	} {
		if root.Find(want) == nil {
			t.Errorf("span %q missing from tree:\n%s", want, root.RenderString())
		}
	}
	if root.Duration() <= 0 {
		t.Error("root span has no duration")
	}
	// The execute phase carries the operator tree with its counters.
	exec := root.Find("sql.execute")
	if len(exec.Children()) == 0 {
		t.Fatal("sql.execute has no operator spans")
	}
	data := root.Find("sql.data")
	if data.SumInt("udfCalls") == 0 {
		t.Error("data query executed no UDFs according to its spans")
	}
}

// TestUntracedQueriesCarryNoSpans checks the off switch: without
// Config.Trace the result's Trace is nil, no Tracer or SlowLog is
// allocated, and the metrics registry still counts queries.
func TestUntracedQueriesCarryNoSpans(t *testing.T) {
	sys, err := New(chaosBaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sys.Tracer.Enabled() {
		t.Error("tracer enabled without Config.Trace")
	}
	if sys.SlowLog != nil {
		t.Error("slow log allocated without a threshold")
	}
	res, err := sys.RunQuery(QuerySpec{StudyID: sys.Studies[0].StudyID, Atlas: "Talairach", FullStudy: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Error("untraced query returned a span tree")
	}
	if got := sys.Metrics.Counter("qbism_queries_total").Value(); got != 1 {
		t.Errorf("qbism_queries_total = %d, want 1", got)
	}
}

// TestDegradedCounterIncrementsOncePerQuery is the regression test for
// the band-fallback accounting fix: a query answered through the slow
// path bumps qbism_degraded_total exactly once — not once per fallback
// SQL statement, not zero times — and its root span carries the
// degradation warning.
func TestDegradedCounterIncrementsOncePerQuery(t *testing.T) {
	sys, err := New(tracedConfig())
	if err != nil {
		t.Fatal(err)
	}
	study := sys.Studies[0].StudyID
	bands := sys.BandRegions[study]
	b := bands[len(bands)/2]
	spec := QuerySpec{StudyID: study, Atlas: "Talairach", HasBand: true, BandLo: int(b.Lo), BandHi: int(b.Hi)}

	if _, err := sys.RunQuery(spec); err != nil {
		t.Fatal(err)
	}
	if got := sys.Metrics.Counter("qbism_degraded_total").Value(); got != 0 {
		t.Fatalf("healthy query bumped qbism_degraded_total to %d", got)
	}

	// Bit-rot the stored band REGION behind the checksum table — the
	// row the default encoding resolves to, the k³-tree row.
	res, err := sys.DB.Exec(fmt.Sprintf(
		"select ib.region from intensityBand ib where ib.studyId = %d and ib.lo = %d and ib.hi = %d and ib.encoding = '%s'",
		study, b.Lo, b.Hi, medserver.EncK3Tree))
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("band row lookup: %v", err)
	}
	if err := sys.LFM.Corrupt(res.Rows[0][0].L, 3, 0x40); err != nil {
		t.Fatal(err)
	}

	for i := 1; i <= 3; i++ {
		dres, err := sys.RunQuery(spec)
		if err != nil {
			t.Fatalf("degraded run %d failed: %v", i, err)
		}
		if !dres.Meta.Degraded {
			t.Fatalf("run %d not degraded", i)
		}
		if got := sys.Metrics.Counter("qbism_degraded_total").Value(); got != int64(i) {
			t.Fatalf("after %d degraded queries qbism_degraded_total = %d", i, got)
		}
		if w, ok := dres.Trace.Str("degraded"); !ok || w == "" {
			t.Errorf("run %d: root span missing degraded annotation", i)
		}
		if dres.Trace.Find("band.fallback") == nil {
			t.Errorf("run %d: no band.fallback span in tree", i)
		}
	}
}

// TestSlowLogCapturesForensics drives queries over a 1ns threshold so
// every query is "slow", and checks the ring captures label, latency,
// the rendered span tree, and the reconstructed EXPLAIN ANALYZE plan.
// The ring's eviction at its bound is obs.TestSlowLogRing's.
func TestSlowLogCapturesForensics(t *testing.T) {
	cfg := tracedConfig()
	sys, err := New(cfg, WithSlowLog(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	specs := sys.Table3Queries()
	for _, spec := range specs {
		if _, err := sys.RunQuery(spec); err != nil {
			t.Fatalf("%s: %v", spec.Label(), err)
		}
	}
	if sys.SlowLog.Total() != uint64(len(specs)) {
		t.Errorf("slow log saw %d queries, want %d", sys.SlowLog.Total(), len(specs))
	}
	entries := sys.SlowLog.Entries()
	if want := min(len(specs), slowLogCapacity); len(entries) != want {
		t.Fatalf("ring holds %d entries, want %d", len(entries), want)
	}
	// Oldest-first, and the newest retained entry is the last query.
	if want := specs[len(specs)-1].Label(); entries[len(entries)-1].Label != want {
		t.Errorf("newest entry is %q, want %q", entries[len(entries)-1].Label, want)
	}
	for _, e := range entries {
		if e.Total <= 0 {
			t.Errorf("%s: non-positive latency", e.Label)
		}
		if !strings.Contains(e.Tree, "rpc.medicalQuery") {
			t.Errorf("%s: span tree missing the RPC:\n%s", e.Label, e.Tree)
		}
		if len(e.Explain) == 0 {
			t.Errorf("%s: no EXPLAIN ANALYZE capture", e.Label)
		}
		var sawOperator bool
		for _, line := range e.Explain {
			if strings.Contains(line, "scan ") && strings.Contains(line, "pages=") {
				sawOperator = true
			}
		}
		if !sawOperator {
			t.Errorf("%s: explain lines carry no operator counters: %q", e.Label, e.Explain)
		}
	}

	// A generous threshold captures nothing.
	quiet, err := New(cfg, WithSlowLog(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := quiet.RunQuery(specs[0]); err != nil {
		t.Fatal(err)
	}
	if quiet.SlowLog.Len() != 0 {
		t.Errorf("1h threshold captured %d entries", quiet.SlowLog.Len())
	}
}

// TestSlowLogImpliesTracing: WithSlowLog alone, with Config.Trace off,
// traces the client's queries, so the ring's entries carry span trees —
// on a System, and on a NewClient over the simulated transport.
func TestSlowLogImpliesTracing(t *testing.T) {
	cfg := chaosBaseConfig()
	sys, err := New(cfg, WithSlowLog(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := QuerySpec{StudyID: sys.Studies[0].StudyID, Atlas: "Talairach", Structure: "ntal"}
	for name, c := range map[string]*Client{
		"System":    sys.Client,
		"NewClient": NewClient(plain.Transport, cfg, WithSlowLog(time.Nanosecond)),
	} {
		if _, err := c.RunQuery(spec); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.SlowLog == nil {
			t.Fatalf("%s: WithSlowLog without Config.Trace left no slow log", name)
		}
		entries := c.SlowLog.Entries()
		if len(entries) != 1 || !strings.Contains(entries[0].Tree, "rpc.medicalQuery") || len(entries[0].Explain) == 0 {
			t.Errorf("%s: want one entry with its span tree and plan, got %+v", name, entries)
		}
	}
}

// TestBatchRootSpan checks RunQueriesTraced hangs every per-study query
// tree off one batch root — including under a concurrent worker pool,
// where span appends from different goroutines interleave.
func TestBatchRootSpan(t *testing.T) {
	sys, err := New(tracedConfig())
	if err != nil {
		t.Fatal(err)
	}
	var specs []QuerySpec
	for _, id := range sys.PETStudyIDs() {
		specs = append(specs,
			QuerySpec{StudyID: id, Atlas: "Talairach", FullStudy: true},
			QuerySpec{StudyID: id, Atlas: "Talairach", Structure: "ntal"},
		)
	}
	items, batch := sys.RunQueriesTraced(specs, 4)
	if batch == nil {
		t.Fatal("tracing on but batch span is nil")
	}
	if batch.Name() != "batch" {
		t.Fatalf("batch root named %q", batch.Name())
	}
	if got := len(batch.Children()); got != len(specs) {
		t.Fatalf("batch has %d child query spans, want %d", got, len(specs))
	}
	for _, item := range items {
		if item.Err != nil {
			t.Fatalf("%s: %v", item.Spec.Label(), item.Err)
		}
		if item.Res.Trace == nil {
			t.Fatalf("%s: no trace under batch", item.Spec.Label())
		}
	}
	if n, _ := batch.Int("queries"); n != int64(len(specs)) {
		t.Errorf("batch queries attr = %d, want %d", n, len(specs))
	}

	// Untraced batches still work and return a nil span.
	plain, err := New(chaosBaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	items, batch = plain.RunQueriesTraced(specs[:2], 2)
	if batch != nil {
		t.Error("untraced batch returned a span")
	}
	for _, item := range items {
		if item.Err != nil {
			t.Fatalf("%s: %v", item.Spec.Label(), item.Err)
		}
	}
}

// TestMetricsExposition runs a small suite and checks the registry's
// Prometheus text rendering carries the query counters and latency and
// page histograms with consistent totals.
func TestMetricsExposition(t *testing.T) {
	sys, err := New(tracedConfig())
	if err != nil {
		t.Fatal(err)
	}
	specs := sys.Table3Queries()
	for _, spec := range specs {
		if _, err := sys.RunQuery(spec); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	sys.Metrics.WriteProm(&sb)
	text := sb.String()
	for _, want := range []string{
		fmt.Sprintf("qbism_queries_total %d", len(specs)),
		"# TYPE qbism_query_latency_seconds histogram",
		fmt.Sprintf("qbism_query_latency_seconds_count %d", len(specs)),
		fmt.Sprintf("qbism_query_lfm_pages_count %d", len(specs)),
		"# TYPE sdb_queries_total counter",
		"sdb_operator_rows_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestTracedResultsIdentical is the differential guarantee at the
// system level: the same query suite on traced and untraced twins
// produces byte-identical voxel data and identical page accounting —
// observability must never change what a query computes or reads.
func TestTracedResultsIdentical(t *testing.T) {
	plain, err := New(chaosBaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	traced, err := New(tracedConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range plain.Table3Queries() {
		a, err := plain.RunQuery(spec)
		if err != nil {
			t.Fatalf("%s untraced: %v", spec.Label(), err)
		}
		b, err := traced.RunQuery(spec)
		if err != nil {
			t.Fatalf("%s traced: %v", spec.Label(), err)
		}
		ab, bb := marshalResult(t, plain.Cfg.Method, a), marshalResult(t, traced.Cfg.Method, b)
		if string(ab) != string(bb) {
			t.Errorf("%s: traced result diverged", spec.Label())
		}
		if a.Meta.LFMPages != b.Meta.LFMPages {
			t.Errorf("%s: traced pages %d != untraced %d",
				spec.Label(), b.Meta.LFMPages, a.Meta.LFMPages)
		}
	}
}

// TestPerCallIOExactUnderConcurrency holds the per-query bill to the
// serial one while eight workers share the server: Table 3's six specs
// over every study, several times over, on an unbuffered corpus (every
// page touch a device read, so a spec's cost is a constant). Each item's
// Meta.LFMPages and LFMReads must equal the same spec run alone, and the
// items must sum to what the device meter counted for the batch — no
// page is billed twice or to nobody. With tracing on, each tree's
// "pages" must also sum to its own Meta.LFMPages, and the operator
// counters reconstructed from its spans must be the serial tree's.
func TestPerCallIOExactUnderConcurrency(t *testing.T) {
	for _, trace := range []bool{false, true} {
		name := "untraced"
		if trace {
			name = "traced"
		}
		t.Run(name, func(t *testing.T) {
			sys, err := New(Config{Bits: 5, NumPET: 2, NumMRI: 1, Seed: 11, SmallStudies: true, Checksums: true, Trace: trace})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			var specs []QuerySpec
			for _, st := range sys.Studies {
				for _, spec := range sys.Table3Queries() {
					spec.StudyID = st.StudyID
					specs = append(specs, spec)
				}
			}
			serial := make([]*QueryResult, len(specs))
			for i, spec := range specs {
				if serial[i], err = sys.RunQuery(spec); err != nil {
					t.Fatalf("%s alone: %v", spec.Label(), err)
				}
			}

			const repeats = 4
			var batch []QuerySpec
			for r := 0; r < repeats; r++ {
				batch = append(batch, specs...)
			}
			before := sys.LFM.Stats()
			items := sys.RunQueries(batch, 8)
			device := sys.LFM.Stats().Sub(before)

			var pages, reads uint64
			for i, item := range items {
				if item.Err != nil {
					t.Fatalf("%s: %v", item.Spec.Label(), item.Err)
				}
				got, want := item.Res, serial[i%len(specs)]
				pages += got.Meta.LFMPages
				reads += got.Meta.LFMReads
				if got.Meta.LFMPages != want.Meta.LFMPages || got.Meta.LFMReads != want.Meta.LFMReads {
					t.Errorf("%s: billed %d pages in %d reads under 8 workers, %d in %d alone",
						item.Spec.Label(), got.Meta.LFMPages, got.Meta.LFMReads, want.Meta.LFMPages, want.Meta.LFMReads)
				}
				if !trace {
					continue
				}
				if sum := uint64(got.Trace.SumInt("pages")); sum != got.Meta.LFMPages {
					t.Errorf("%s: span tree accounts %d pages, its QueryMeta %d", item.Spec.Label(), sum, got.Meta.LFMPages)
				}
				if g, w := explainFromSpan(got.Trace), explainFromSpan(want.Trace); len(g) == 0 || strings.Join(g, "\n") != strings.Join(w, "\n") {
					t.Errorf("%s: operator counters under 8 workers differ from the serial tree's:\n%s\n-- alone:\n%s",
						item.Spec.Label(), strings.Join(g, "\n"), strings.Join(w, "\n"))
				}
			}
			if pages != device.PageReads || reads != device.Reads {
				t.Errorf("items bill %d pages in %d reads, the device counted %d in %d", pages, reads, device.PageReads, device.Reads)
			}
			if pages == 0 {
				t.Fatal("batch read zero pages — the check is vacuous")
			}
		})
	}
}
