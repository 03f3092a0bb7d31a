package qbism

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"qbism/internal/medserver"
	"qbism/internal/rencode"
	"qbism/internal/sdb"
	"qbism/internal/sfc"
	"qbism/internal/transport"
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
// mode resolves) and an explicitly pinned h-naive one.
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
// resolves its default representation (auto) or reproduces the
// seed's all-runs layout. The representation is invisible in results —
// only sizes and probe costs may differ.
func TestReprDifferentialAutoVsRuns(t *testing.T) {
	auto, err := New(reprBaseConfig(medserver.RencodeAuto))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := New(reprBaseConfig(medserver.RencodeRuns))
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
		if !bytes.Equal(marshalResult(t, auto.Cfg.Method, ra), marshalResult(t, runs.Cfg.Method, rr)) {
			t.Errorf("shape %d (%s): auto result differs from runs baseline", i, spec.Label())
		}
	}
}

// TestReprForcedK3Differential pins the forced mode: with every REGION
// stored as a k³-tree (bands and structures), all query shapes still
// answer byte-identically to the runs baseline, and the probe counter
// proves the compressed fast path actually ran.
func TestReprForcedK3Differential(t *testing.T) {
	k3, err := New(reprBaseConfig(medserver.EncK3Tree))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := New(reprBaseConfig(medserver.RencodeRuns))
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
		if !bytes.Equal(marshalResult(t, k3.Cfg.Method, rk), marshalResult(t, runs.Cfg.Method, rr)) {
			t.Errorf("shape %d (%s): forced-k3 result differs from runs baseline", i, spec.Label())
		}
	}
	if k3.Metrics.Counter("qbism_region_probe_total").Value() == 0 {
		t.Error("forced-k3 queries never took the compressed probe fast path")
	}
}

// TestDefaultBandEncoding: the row a band query with no Encoding reads
// is the Rencode mode's, for every band. The default query and the same
// query naming that label are one query — equal REGIONs, equal page
// counts, neither degraded — and EXPLAIN says which of the two it was.
func TestDefaultBandEncoding(t *testing.T) {
	for _, tc := range []struct{ mode, want string }{
		{medserver.RencodeAuto, medserver.EncK3Tree},
		{medserver.RencodeRuns, EncHilbertNaive},
		{"elias", "elias"},
	} {
		s, err := New(reprBaseConfig(tc.mode))
		if err != nil {
			t.Fatalf("mode %s: %v", tc.mode, err)
		}
		if got := s.BandEncoding(); got != tc.want {
			t.Errorf("mode %s: bandEncoding() = %q, want %q", tc.mode, got, tc.want)
		}
		study := s.Studies[0].StudyID
		bands := s.BandRegions[study]
		b := bands[len(bands)/2]
		spec := QuerySpec{StudyID: study, Atlas: "Talairach", HasBand: true,
			BandLo: int(b.Lo), BandHi: int(b.Hi)}
		named := spec
		named.Encoding = tc.want

		def, err := s.RunQuery(spec)
		if err != nil {
			t.Fatalf("mode %s default: %v", tc.mode, err)
		}
		nam, err := s.RunQuery(named)
		if err != nil {
			t.Fatalf("mode %s named: %v", tc.mode, err)
		}
		if def.Meta.Degraded || nam.Meta.Degraded {
			t.Errorf("mode %s: degraded answer (default %q, named %q)",
				tc.mode, def.Meta.Warning, nam.Meta.Warning)
		}
		if !bytes.Equal(marshalResult(t, s.Cfg.Method, def), marshalResult(t, s.Cfg.Method, nam)) {
			t.Errorf("mode %s: default query and Encoding %q return different REGIONs", tc.mode, tc.want)
		}
		if def.Meta.LFMPages != nam.Meta.LFMPages {
			t.Errorf("mode %s: default read %d pages, Encoding %q read %d",
				tc.mode, def.Meta.LFMPages, tc.want, nam.Meta.LFMPages)
		}

		for _, e := range []struct {
			spec QuerySpec
			src  string
		}{{spec, "default"}, {named, "forced"}} {
			lines, err := s.ExplainSpec(e.spec, false)
			if err != nil {
				t.Fatalf("mode %s explain: %v", tc.mode, err)
			}
			if want := fmt.Sprintf("band repr: %s (%s)", tc.want, e.src); len(lines) == 0 || lines[0] != want {
				t.Errorf("mode %s: explain leads with %q, want %q", tc.mode, lines, want)
			}
		}
	}
}

// TestConflictingSpecRejected: a spec whose restrictions no data shape
// combines is refused whole — through the server entry point and
// through the client, where the refusal is terminal rather than
// retried — and the supported shapes on the same system still answer.
func TestConflictingSpecRejected(t *testing.T) {
	s, err := New(reprBaseConfig(medserver.RencodeAuto), WithRetry(transport.DefaultRetryPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	study := s.PETStudyIDs()[0]
	box := &[6]uint32{1, 1, 1, 2, 2, 2}
	const wantErr = "query spec restrictions conflict"
	for _, spec := range []QuerySpec{
		{StudyID: study, Atlas: "Talairach", Structure: "ntal1", Box: box},
		{StudyID: study, Atlas: "Talairach", HasBand: true, BandLo: 224, BandHi: 255, Box: box},
		{StudyID: study, Atlas: "Talairach", FullStudy: true, Structure: "ntal1"},
	} {
		req, err := EncodeQueryRequest(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.ServeRPC(nil, QueryMethod, req); err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("%s: ServeRPC error %v, want %q", spec.Label(), err, wantErr)
		}
		errs0 := s.Metrics.Counter("qbism_query_errors_total").Value()
		retries0 := s.Metrics.Counter("qbism_retries_total").Value()
		_, err = s.RunQuery(spec)
		if err == nil || !strings.Contains(err.Error(), wantErr) ||
			!strings.Contains(err.Error(), "failed after 1 attempt(s)") {
			t.Errorf("%s: RunQuery error %v, want a terminal %q", spec.Label(), err, wantErr)
		}
		if got := s.Metrics.Counter("qbism_query_errors_total").Value() - errs0; got != 1 {
			t.Errorf("%s: qbism_query_errors_total advanced by %d, want 1", spec.Label(), got)
		}
		if got := s.Metrics.Counter("qbism_retries_total").Value() - retries0; got != 0 {
			t.Errorf("%s: qbism_retries_total advanced by %d, want 0", spec.Label(), got)
		}
	}
	for i, spec := range s.Table3Queries() {
		if _, err := s.RunQuery(spec); err != nil {
			t.Errorf("Q%d (%s): %v", i+1, spec.Label(), err)
		}
	}
}

// TestRencodeValidation: an unknown mode fails at construction, and
// each valid spelling loads.
func TestRencodeValidation(t *testing.T) {
	cfg := reprBaseConfig("bogus")
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted Rencode \"bogus\"")
	}
	for _, mode := range []string{medserver.RencodeAuto, medserver.RencodeRuns, medserver.EncK3Tree, "elias"} {
		if _, err := New(reprBaseConfig(mode)); err != nil {
			t.Errorf("New rejected Rencode %q: %v", mode, err)
		}
	}
}

// TestExplainSpecBandRepr pins the EXPLAIN annotation: default band
// queries lead with the mode's default, explicit ones with the forced
// label; non-band queries carry no annotation.
func TestExplainSpecBandRepr(t *testing.T) {
	s, err := New(reprBaseConfig(medserver.RencodeAuto))
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
	if want := "band repr: k3-tree (default)"; len(lines) == 0 || lines[0] != want {
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
	for _, mode := range []string{medserver.RencodeRuns, medserver.EncK3Tree} {
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
		if mode == medserver.EncK3Tree && s.Metrics.Counter("qbism_region_probe_total").Value() == 0 {
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

// TestRegionAccessCounts: every stored REGION a request reads counts
// once, in qbism_region_probe_total when it stays a k³-tree and in
// qbism_region_decode_total when it becomes runs, whichever function
// reads it. The REGION intersection() hands to extractVoxels() is
// neither: it is passed parsed, never encoded and read again. In auto
// mode the mixed query therefore probes its two k³-trees and decodes
// nothing.
func TestRegionAccessCounts(t *testing.T) {
	srv := bareServer(t, serveAllocConfig)
	small, mixed := serveAllocSpecs(srv)
	res, err := srv.DB.Exec(`
		select as.region from atlasStructure as, neuralStructure ns
		where as.structureId = ns.structureId and ns.structureName = ?`, sdb.Str(small.Structure))
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("%s's REGION: %d rows, %v", small.Structure, len(res.Rows), err)
	}
	stored, err := srv.LFM.Read(res.Rows[0][0].L)
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := rencode.MethodOf(stored); m != rencode.K3Tree {
		t.Fatalf("%s is stored as %v; the mixed case needs a k³-tree structure", small.Structure, m)
	}
	band := mixed
	band.Structure = ""
	metrics, _ := srv.Observers()
	probes, decodes := metrics.Counter("qbism_region_probe_total"), metrics.Counter("qbism_region_decode_total")
	for _, tc := range []struct {
		name            string
		spec            QuerySpec
		probes, decodes int64
	}{
		{"structure", small, 0, 1},
		{"band", band, 0, 1},
		{"structure ∩ band", mixed, 2, 0},
	} {
		req, err := EncodeQueryRequest(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		p0, d0 := probes.Value(), decodes.Value()
		if _, err := srv.ServeRPC(nil, QueryMethod, req); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if p, d := probes.Value()-p0, decodes.Value()-d0; p != tc.probes || d != tc.decodes {
			t.Errorf("%s: %d probes and %d decodes, want %d and %d", tc.name, p, d, tc.probes, tc.decodes)
		}
	}
}
