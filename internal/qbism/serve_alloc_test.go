package qbism

import "testing"

// The per-request allocation budget of the MedicalServer, pinned where
// `go test ./...` sees it. A request runs two prepared statements
// through the slot-resolved executor (DESIGN.md §17); what is left is
// the spec/meta JSON, the frames, the operator tree of each execution
// and the spatial UDFs' own work. Re-introduce per-call parsing or
// planning (+500 allocations a request) or a per-row allocation in the
// executor and these ceilings trip long before the 12 s repo benchmark
// would run.

// serveAllocSystem is the System the budget is measured on: Bits 5,
// untraced, page cache on.
func serveAllocSystem(tb testing.TB) *System {
	tb.Helper()
	sys, err := New(Config{Bits: 5, NumPET: 2, NumMRI: 1, Seed: 7, SmallStudies: true, CachePages: 4096})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { sys.Close() })
	return sys
}

// serveAllocSpecs are a small-structure request and a structure ∩ band
// one, the two shapes with the most joins per voxel returned.
func serveAllocSpecs(sys *System) (small, mixed QuerySpec) {
	study := sys.Studies[0].StudyID
	b := sys.BandRegions[study][len(sys.BandRegions[study])-1]
	small = QuerySpec{StudyID: study, Atlas: "Talairach", Structure: "putamen"}
	mixed = QuerySpec{StudyID: study, Atlas: "Talairach", Structure: "putamen",
		HasBand: true, BandLo: int(b.Lo), BandHi: int(b.Hi)}
	return small, mixed
}

func TestServeRPCAllocBudget(t *testing.T) {
	sys := serveAllocSystem(t)
	small, mixed := serveAllocSpecs(sys)
	for _, tc := range []struct {
		name    string
		spec    QuerySpec
		ceiling float64 // ≈ 1.25 × measured (91 and 101 at PR 13)
	}{
		{"small-structure", small, 114},
		{"structure-and-band", mixed, 126},
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
			t.Errorf("%s: %.0f allocs per ServeRPC, ceiling %.0f — did per-call parsing or a per-row allocation come back?",
				tc.name, got, tc.ceiling)
		}
	}
}

// BenchmarkServeRPCSmall is one small-structure request served
// directly, no transport: ns/op and allocs/op of the server side alone.
// `make bench-smoke` runs one iteration.
func BenchmarkServeRPCSmall(b *testing.B) {
	sys := serveAllocSystem(b)
	small, _ := serveAllocSpecs(sys)
	req, err := EncodeQueryRequest(small)
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
