package qbism

import (
	"runtime"
	"testing"

	"qbism/internal/medserver"
)

// The per-request allocation budget of the MedicalServer, pinned where
// `go test ./...` sees it. A request runs two prepared statements
// on operator trees the statements keep between executions (DESIGN.md
// §17), reads each into its own row with no Rows (§27), decodes and
// encodes fixed binary headers (§22), and its spatial UDFs read, parse
// and build into their call sites' state (§27), and the spec's strings
// are the catalog's own (§29); what is left is the response frame and
// the DATA_REGION blob — the reply. Re-introduce
// per-call parsing or planning (+500 allocations a request), a
// per-execution operator tree or hash table (+40) or a per-row
// allocation in the executor and these ceilings trip long before the
// 12 s repo benchmark would run. The ceilings are the measured counts
// themselves (the same with and without -race): the benchmark's 2 %
// bound on allocs_per_query is 0.6 of an allocation on daemon_small, so
// one stray allocation has to fail here.

// serveAllocConfig is what the budgets are measured on: Bits 5,
// untraced, page cache on.
var serveAllocConfig = Config{Bits: 5, NumPET: 2, NumMRI: 1, Seed: 7, SmallStudies: true, CachePages: 4096}

// bareServer loads a MedicalServer with nothing in front of it — no
// client, no link: what qbismd serves.
func bareServer(tb testing.TB, cfg Config) *medserver.Server {
	tb.Helper()
	srv, err := medserver.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	return srv
}

// serveAllocSystem is the same server with its client in front.
func serveAllocSystem(tb testing.TB) *System {
	tb.Helper()
	sys, err := New(serveAllocConfig)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { sys.Close() })
	return sys
}

// serveAllocSpecs are a small-structure request and a structure ∩ band
// one, the two shapes with the most joins per voxel returned.
func serveAllocSpecs(sys *medserver.Server) (small, mixed QuerySpec) {
	study := sys.Studies[0].StudyID
	b := sys.BandRegions[study][len(sys.BandRegions[study])-1]
	small = QuerySpec{StudyID: study, Atlas: "Talairach", Structure: "putamen"}
	mixed = QuerySpec{StudyID: study, Atlas: "Talairach", Structure: "putamen",
		HasBand: true, BandLo: int(b.Lo), BandHi: int(b.Hi)}
	return small, mixed
}

func TestServeRPCAllocBudget(t *testing.T) {
	sys := bareServer(t, serveAllocConfig)
	small, mixed := serveAllocSpecs(sys)
	for _, tc := range []struct {
		name string
		spec QuerySpec
		// As measured: the response frame and the blob. Before, they were
		// 4 and 4 while the spec's two strings were copied out of every
		// request, 16 and 17 while a UDF call allocated its
		// field buffer, probe, run list and Region, each statement its
		// Rows and output row, and the blob's REGION its own encoding;
		// 17 and 21 while intersection() expanded a k³ structure to
		// runs, encoded its result for extractVoxels() to decode and
		// every UDF call allocated its argument vector; 24 and 28 with
		// JSON on the wire, 65 and 80 with an operator tree per
		// execution, 91 and 101 before the one-pass decode.
		ceiling float64
	}{
		{"small-structure", small, 2},
		{"structure-and-band", mixed, 2},
	} {
		req, err := EncodeQueryRequest(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(50, func() {
			if _, err := sys.ServeRPC(nil, QueryMethod, req); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per ServeRPC", tc.name, got)
		if got > tc.ceiling {
			t.Errorf("%s: %.0f allocs per ServeRPC, ceiling %.0f — did per-call parsing, a per-execution operator tree or a per-row allocation come back?",
				tc.name, got, tc.ceiling)
		}
	}
}

// BenchmarkServeRPCSmall is one small-structure request served
// directly, no transport: ns/op and allocs/op of the server side alone.
// `make bench-smoke` runs one iteration.
func BenchmarkServeRPCSmall(b *testing.B) { benchServeSmall(b, false) }

// BenchmarkServeRPCMixed is the structure ∩ band request served the
// same way: intersection() nested in extractVoxels(), the shape whose
// REGIONs stay parsed from one call to the next.
func BenchmarkServeRPCMixed(b *testing.B) {
	sys := bareServer(b, serveAllocConfig)
	_, mixed := serveAllocSpecs(sys)
	req, err := EncodeQueryRequest(mixed)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.ServeRPC(nil, QueryMethod, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeRPCTraced is the same request under a span, as a daemon
// with Config.Trace serves it: the two benchmarks' difference is what
// the span tree — statement phases, operators, per-field lfm.read
// lines — costs a request. `make bench-smoke` prints both.
func BenchmarkServeRPCTraced(b *testing.B) { benchServeSmall(b, true) }

func benchServeSmall(b *testing.B, trace bool) {
	cfg := serveAllocConfig
	cfg.Trace = trace
	sys := bareServer(b, cfg)
	_, tracer := sys.Observers() // nil untraced, and so is every span
	small, _ := serveAllocSpecs(sys)
	req, err := EncodeQueryRequest(small)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tracer.Start("server")
		_, err := sys.ServeRPC(sp, QueryMethod, req)
		sp.End()
		if err != nil {
			b.Fatal(err)
		}
	}
}

// The bulk replies — a whole study, a whole band, a hemisphere — are
// where the bytes are: the reply should cost the server its blob, the
// application frame around it and little else (DESIGN.md §18), however
// many pages it is read from.

// bulkAllocConfig is a Bits 6 corpus (a VOLUME is 64 pages) behind a
// page cache that holds a quarter of one VOLUME, so bulk reads thrash it
// the way the repo benchmark's bulk_open workload does.
var bulkAllocConfig = Config{Bits: 6, NumPET: 1, NumMRI: 1, Seed: 7, SmallStudies: true, CachePages: 16}

// bulkAllocSpecs are the three bulk shapes: the full study, the band
// with the most voxels, and the left hemisphere.
func bulkAllocSpecs(sys *medserver.Server) (full, band, hemisphere QuerySpec) {
	study := sys.Studies[0].StudyID
	widest := sys.BandRegions[study][0]
	for _, b := range sys.BandRegions[study] {
		if b.Region.NumVoxels() > widest.Region.NumVoxels() {
			widest = b
		}
	}
	full = QuerySpec{StudyID: study, Atlas: "Talairach", FullStudy: true}
	band = QuerySpec{StudyID: study, Atlas: "Talairach", HasBand: true, BandLo: int(widest.Lo), BandHi: int(widest.Hi)}
	hemisphere = QuerySpec{StudyID: study, Atlas: "Talairach", Structure: "ntal1"}
	return full, band, hemisphere
}

func TestBulkReplyAllocBudget(t *testing.T) {
	sys := bareServer(t, bulkAllocConfig)
	full, band, hemisphere := bulkAllocSpecs(sys)
	for _, tc := range []struct {
		name string
		spec QuerySpec
		// Allocations as measured, bytes at ≈ 1.25 × measured (2.06,
		// 3.18, 2.07 × the reply; 3, 4, 4 allocations while the spec's
		// strings were copied; 10, 15, 18 and 2.07, 3.54, 5.02 before
		// the call sites kept their buffers; PR 20 was at 18, 23, 26 and 2.07, 3.54,
		// 5.02, PR 17 at 45, 60, 67 and 2.09, 3.57, 5.32, PR 16 at 47, 91,
		// 96 and 2.09, 4.06, 7.02, PR 13 at 112, 162, 128 and 4.09, 6.20,
		// 11.85):
		// allocations per ServeRPC, and bytes allocated per
		// ServeRPC as a multiple of the reply's size. The full study is
		// the blob and the application frame and nothing else to speak of
		// (ceiling 2.3, not 2.6: a third payload-sized buffer must trip
		// it). A band whose voxels lie on every page reads the VOLUME
		// through a range buffer too large for its call site to keep
		// (sdb.MaxIdleBytes); the hemisphere is a 28 KB reply under the
		// same fixed costs.
		maxAllocs, maxBytesPerReplyByte float64
	}{
		// (Allocations were 11, 16 and 19 while every UDF call allocated
		// its argument vector.)
		{"full-study", full, 2, 2.3},
		{"whole-band", band, 3, 4.0},
		{"hemisphere", hemisphere, 2, 2.6},
	} {
		req, err := EncodeQueryRequest(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		var reply int
		serve := func() {
			resp, err := sys.ServeRPC(nil, QueryMethod, req)
			if err != nil {
				t.Fatal(err)
			}
			reply = len(resp)
		}
		allocs := testing.AllocsPerRun(20, serve)
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			serve()
		}
		runtime.ReadMemStats(&after)
		perReplyByte := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(reply)
		t.Logf("%s: %d-byte reply, %.0f allocs and %.2f × the reply's bytes per ServeRPC", tc.name, reply, allocs, perReplyByte)
		if allocs > tc.maxAllocs {
			t.Errorf("%s: %.0f allocs per ServeRPC, ceiling %.0f — is a page, a range or a frame being allocated per read again?",
				tc.name, allocs, tc.maxAllocs)
		}
		if perReplyByte > tc.maxBytesPerReplyByte {
			t.Errorf("%s: %.2f bytes allocated per reply byte, ceiling %.2f — did a payload-sized copy come back?",
				tc.name, perReplyByte, tc.maxBytesPerReplyByte)
		}
	}
}

// BenchmarkServeRPCBulk is one full-study request served directly
// through a thrashing page cache: B/op against the reply size is the
// number of payload-sized buffers a bulk reply costs the server.
// `make bench-smoke` runs a few iterations.
func BenchmarkServeRPCBulk(b *testing.B) {
	sys := bareServer(b, bulkAllocConfig)
	full, _, _ := bulkAllocSpecs(sys)
	req, err := EncodeQueryRequest(full)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := sys.ServeRPC(nil, QueryMethod, req)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(resp)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.ServeRPC(nil, QueryMethod, req); err != nil {
			b.Fatal(err)
		}
	}
}
