package qbism

import (
	"bytes"
	"fmt"
	"testing"

	"qbism/internal/rencode"
	"qbism/internal/sfc"
)

func reprBaseConfig(rencodeMode string) Config {
	return Config{
		Bits:         4,
		NumPET:       2,
		NumMRI:       1,
		Seed:         11,
		Method:       rencode.Naive,
		SmallStudies: true,
		Rencode:      rencodeMode,
	}
}

// reprQueryShapes returns one spec per §3.4 query shape against the
// given system, including a default-encoding band query (the one the
// planner resolves) and an explicitly pinned h-naive one.
func reprQueryShapes(s *System) []QuerySpec {
	study := s.Studies[0].StudyID
	bands := s.BandRegions[study]
	b := bands[len(bands)/2]
	return []QuerySpec{
		{StudyID: study, Atlas: "Talairach", FullStudy: true},
		{StudyID: study, Atlas: "Talairach", Box: &[6]uint32{1, 1, 1, 9, 9, 9}},
		{StudyID: study, Atlas: "Talairach", Structure: "ntal"},
		{StudyID: study, Atlas: "Talairach", HasBand: true, BandLo: int(b.Lo), BandHi: int(b.Hi)},
		{StudyID: study, Atlas: "Talairach", HasBand: true, BandLo: int(b.Lo), BandHi: int(b.Hi),
			Encoding: EncHilbertNaive},
		{StudyID: study, Atlas: "Talairach", Structure: "ntal",
			HasBand: true, BandLo: int(b.Lo), BandHi: int(b.Hi)},
	}
}

// TestReprDifferentialAutoVsRuns is the acceptance differential: every
// query shape answers byte-identically whether the system stores and
// resolves planner-selected representations (auto) or reproduces the
// seed's all-runs layout. The representation is invisible in results —
// only sizes and probe costs may differ.
func TestReprDifferentialAutoVsRuns(t *testing.T) {
	auto, err := New(reprBaseConfig(RencodeAuto))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := New(reprBaseConfig(RencodeRuns))
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range reprQueryShapes(auto) {
		ra, err := auto.RunQuery(spec)
		if err != nil {
			t.Fatalf("shape %d (%s) on auto: %v", i, spec.Label(), err)
		}
		rr, err := runs.RunQuery(spec)
		if err != nil {
			t.Fatalf("shape %d (%s) on runs: %v", i, spec.Label(), err)
		}
		if !bytes.Equal(marshalResult(t, auto, ra), marshalResult(t, runs, rr)) {
			t.Errorf("shape %d (%s): auto result differs from runs baseline", i, spec.Label())
		}
	}
}

// TestReprForcedK3Differential pins the forced mode: with every REGION
// stored as a k³-tree (bands and structures), all query shapes still
// answer byte-identically to the runs baseline, and the probe counter
// proves the compressed fast path actually ran.
func TestReprForcedK3Differential(t *testing.T) {
	k3, err := New(reprBaseConfig(EncK3Tree))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := New(reprBaseConfig(RencodeRuns))
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range reprQueryShapes(k3) {
		rk, err := k3.RunQuery(spec)
		if err != nil {
			t.Fatalf("shape %d (%s) on k3: %v", i, spec.Label(), err)
		}
		rr, err := runs.RunQuery(spec)
		if err != nil {
			t.Fatalf("shape %d (%s) on runs: %v", i, spec.Label(), err)
		}
		if !bytes.Equal(marshalResult(t, k3, rk), marshalResult(t, runs, rr)) {
			t.Errorf("shape %d (%s): forced-k3 result differs from runs baseline", i, spec.Label())
		}
	}
	if k3.Metrics.Counter(metricRegionProbes).Value() == 0 {
		t.Error("forced-k3 queries never took the compressed probe fast path")
	}
}

// TestBandReprPicksRecorded checks the load-time pick bookkeeping: in
// auto mode every stored band has a recorded resolution matching a
// fresh run of the pure policy, and the census adds up.
func TestBandReprPicksRecorded(t *testing.T) {
	s, err := New(reprBaseConfig(RencodeAuto))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, st := range s.Studies {
		for _, b := range s.BandRegions[st.StudyID] {
			total++
			got := s.bandEncoding(st.StudyID, int(b.Lo), int(b.Hi))
			// The load picks from the lengths of the rows it encoded;
			// EncodedSize derives the same two sizes without encoding.
			sizeRuns, err := rencode.EncodedSize(rencode.Naive, b.Region)
			if err != nil {
				t.Fatal(err)
			}
			sizeK3, err := rencode.EncodedSize(rencode.K3Tree, b.Region)
			if err != nil {
				t.Fatal(err)
			}
			want := pickBandRepr(sizeRuns, sizeK3, 0.5)
			if got != want {
				t.Errorf("study %d band [%d,%d]: recorded %q, policy says %q",
					st.StudyID, b.Lo, b.Hi, got, want)
			}
		}
	}
	counts := s.BandReprCounts()
	if n := counts[EncHilbertNaive] + counts[EncK3Tree]; n != total {
		t.Errorf("census counts %d bands, system stores %d", n, total)
	}
	// Unknown bands resolve to the seed default.
	if enc := s.bandEncoding(999, 0, 1); enc != EncHilbertNaive {
		t.Errorf("unknown band resolves to %q, want %q", enc, EncHilbertNaive)
	}
}

// TestAdaptBandRepr drives the feedback loop: a decode-heavy observed
// workload pushes picks toward runs, a probe-heavy one pushes them back,
// and the two adaptations change the same set of bands. Non-auto modes
// never adapt.
func TestAdaptBandRepr(t *testing.T) {
	s, err := New(reprBaseConfig(RencodeAuto))
	if err != nil {
		t.Fatal(err)
	}
	// All-decode workload: bands whose k³-tree is larger than the runs
	// encoding (but within slack) must flip to h-naive.
	s.Metrics.Counter(metricRegionDecodes).Add(1000)
	toRuns, err := s.AdaptBandRepr()
	if err != nil {
		t.Fatal(err)
	}
	// All-probe workload flips exactly those bands back.
	s.Metrics.Counter(metricRegionProbes).Add(1_000_000)
	toK3, err := s.AdaptBandRepr()
	if err != nil {
		t.Fatal(err)
	}
	if toRuns != toK3 {
		t.Errorf("decode-heavy adaptation changed %d bands, probe-heavy changed %d back", toRuns, toK3)
	}
	// Adaptation is idempotent under an unchanged workload.
	again, err := s.AdaptBandRepr()
	if err != nil {
		t.Fatal(err)
	}
	if again != 0 {
		t.Errorf("repeated adaptation changed %d bands, want 0", again)
	}

	pinned, err := New(reprBaseConfig(RencodeRuns))
	if err != nil {
		t.Fatal(err)
	}
	pinned.Metrics.Counter(metricRegionProbes).Add(1_000_000)
	if n, err := pinned.AdaptBandRepr(); err != nil || n != 0 {
		t.Errorf("runs mode adapted %d bands (err %v), want 0", n, err)
	}
}

// TestRencodeValidation: an unknown mode fails at construction, and
// each valid spelling loads.
func TestRencodeValidation(t *testing.T) {
	cfg := reprBaseConfig("bogus")
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted Rencode \"bogus\"")
	}
	for _, mode := range []string{RencodeAuto, RencodeRuns, EncK3Tree, "elias"} {
		if _, err := New(reprBaseConfig(mode)); err != nil {
			t.Errorf("New rejected Rencode %q: %v", mode, err)
		}
	}
}

// TestExplainSpecBandRepr pins the EXPLAIN annotation: default band
// queries lead with the planner's pick, explicit ones with the forced
// label; non-band queries carry no annotation.
func TestExplainSpecBandRepr(t *testing.T) {
	s, err := New(reprBaseConfig(RencodeAuto))
	if err != nil {
		t.Fatal(err)
	}
	study := s.Studies[0].StudyID
	b := s.BandRegions[study][0]
	spec := QuerySpec{StudyID: study, Atlas: "Talairach", HasBand: true,
		BandLo: int(b.Lo), BandHi: int(b.Hi)}

	lines, err := s.ExplainSpec(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("band repr: %s (planner-selected)",
		s.bandEncoding(study, int(b.Lo), int(b.Hi)))
	if len(lines) == 0 || lines[0] != want {
		t.Errorf("explain leads with %q, want %q", lines[0], want)
	}

	spec.Encoding = EncHilbertNaive
	lines, err = s.ExplainSpec(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if want := "band repr: h-naive (forced)"; len(lines) == 0 || lines[0] != want {
		t.Errorf("explicit-encoding explain leads with %q, want %q", lines[0], want)
	}

	lines, err = s.ExplainSpec(QuerySpec{StudyID: study, Atlas: "Talairach", FullStudy: true}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) > 0 && bytes.HasPrefix([]byte(lines[0]), []byte("band repr:")) {
		t.Errorf("non-band query carries a repr annotation: %q", lines[0])
	}
}

// TestContainsPointUDF exercises the point-membership probe through
// SQL against both a compressed and a materialized structure REGION,
// cross-checked against the atlas geometry.
func TestContainsPointUDF(t *testing.T) {
	for _, mode := range []string{RencodeRuns, EncK3Tree} {
		s, err := New(reprBaseConfig(mode))
		if err != nil {
			t.Fatal(err)
		}
		st := s.Atlas.Structures[0]
		probes := 0
		for _, pt := range []struct{ x, y, z uint32 }{
			{0, 0, 0}, {3, 3, 3}, {7, 7, 7}, {8, 8, 8}, {12, 5, 9},
		} {
			res, err := s.DB.Exec(fmt.Sprintf(
				"select containsPoint(as.region, %d, %d, %d) from atlasStructure as where as.structureId = %d",
				pt.x, pt.y, pt.z, st.ID))
			if err != nil {
				t.Fatalf("mode %s: %v", mode, err)
			}
			if len(res.Rows) != 1 {
				t.Fatalf("mode %s: %d rows", mode, len(res.Rows))
			}
			got := res.Rows[0][0].B
			want := st.Region.ContainsPoint(sfc.Pt(pt.x, pt.y, pt.z))
			if got != want {
				t.Errorf("mode %s: containsPoint(%d,%d,%d) = %v, want %v",
					mode, pt.x, pt.y, pt.z, got, want)
			}
			probes++
		}
		if probes == 0 {
			t.Fatal("no probes ran")
		}
		if mode == EncK3Tree && s.Metrics.Counter(metricRegionProbes).Value() == 0 {
			t.Error("forced-k3 containsPoint never took the probe fast path")
		}
		// Out-of-range coordinates are a typed error, not a panic.
		if _, err := s.DB.Exec(fmt.Sprintf(
			"select containsPoint(as.region, 99, 0, 0) from atlasStructure as where as.structureId = %d",
			st.ID)); err == nil {
			t.Errorf("mode %s: out-of-range coordinate accepted", mode)
		}
	}
}
