package qbism

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"qbism/internal/experiments"
	"qbism/internal/medserver"
	"qbism/internal/region"
	"qbism/internal/rencode"
	"qbism/internal/rencode/zoo"
	"qbism/internal/sdb"
	"qbism/internal/sfc"
	"qbism/internal/transport"
)

func reprBaseConfig() Config {
	return Config{
		Bits:         4,
		NumPET:       2,
		NumMRI:       1,
		Seed:         11,
		SmallStudies: true,
	}
}

// reprQueryShapes returns one spec per §3.4 query shape against the
// given system, the band shapes both on the default (k³-tree) row and
// pinned to the h-naive label, its synonym.
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
		{StudyID: study, Atlas: "Talairach", Structure: "ntal",
			HasBand: true, BandLo: int(b.Lo), BandHi: int(b.Hi), Encoding: EncHilbertNaive},
	}
}

// oracleRegion builds the REGION a spec selects in memory, from the
// atlas geometry, the band REGIONs the loader kept and the grid — never
// from a stored row.
func oracleRegion(t *testing.T, s *System, spec QuerySpec) *region.Region {
	t.Helper()
	r := region.Full(s.Curve)
	if spec.Box != nil {
		b := spec.Box
		box, err := region.FromBox(s.Curve, region.Box{Min: sfc.Pt(b[0], b[1], b[2]), Max: sfc.Pt(b[3], b[4], b[5])})
		if err != nil {
			t.Fatal(err)
		}
		r = box
	}
	if spec.Structure != "" {
		st, err := s.Atlas.ByName(spec.Structure)
		if err != nil {
			t.Fatal(err)
		}
		r = st.Region
	}
	if spec.HasBand {
		var band *region.Region
		for _, b := range s.BandRegions[spec.StudyID] {
			if int(b.Lo) == spec.BandLo && int(b.Hi) == spec.BandHi {
				band = b.Region
			}
		}
		if band == nil {
			t.Fatalf("%s: no band [%d,%d] in memory", spec.Label(), spec.BandLo, spec.BandHi)
		}
		var err error
		if r, err = region.Intersect(r, band); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// TestReprMatchesOracle is the representation differential: every query
// shape, on the k³-tree rows and structures the store holds, under
// either band label, answers byte-identically to extracting the
// in-memory REGION from the stored VOLUME. The representation is
// invisible in results — only sizes and probe costs may differ. Table
// 4's h-run-naive, z-naive and octant rows, which the experiments store,
// are held to the same in-memory band REGIONs: each decodes to its
// band's voxels.
func TestReprMatchesOracle(t *testing.T) {
	s, err := New(reprBaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range reprQueryShapes(s) {
		res, err := s.RunQuery(spec)
		if err != nil {
			t.Fatalf("shape %d (%s): %v", i, spec.Label(), err)
		}
		if res.Meta.Degraded {
			t.Errorf("shape %d (%s): degraded: %s", i, spec.Label(), res.Meta.Warning)
		}
		vol, err := s.DB.Exec(`select wv.data from warpedVolume wv where wv.studyId = ?`, sdb.Int(int64(spec.StudyID)))
		if err != nil || len(vol.Rows) != 1 {
			t.Fatalf("study %d VOLUME: %d rows, %v", spec.StudyID, len(vol.Rows), err)
		}
		d, err := ExtractStoredOpts(s.LFM, vol.Rows[0][0].L, oracleRegion(t, s, spec), ExtractOpts{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := MarshalDataRegion(d, s.Cfg.Method)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshalResult(t, s.Cfg.Method, res), want) {
			t.Errorf("shape %d (%s): result differs from the in-memory oracle", i, spec.Label())
		}
	}

	if err := experiments.StoreTable4Rows(s.Server); err != nil {
		t.Fatal(err)
	}
	for _, enc := range []string{experiments.EncHRunNaive, experiments.EncZNaive, experiments.EncOctant} {
		rows, err := s.DB.Exec(`select ib.studyId, ib.lo, ib.hi, ib.region from intensityBand ib where ib.encoding = ?`, sdb.Str(enc))
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, row := range rows.Rows {
			spec := QuerySpec{StudyID: int(row[0].I), Atlas: "Talairach", HasBand: true, BandLo: int(row[1].I), BandHi: int(row[2].I)}
			data, err := s.LFM.Read(row[3].L)
			if err != nil {
				t.Fatal(err)
			}
			stored, err := zoo.Decode(data)
			if err != nil {
				t.Fatalf("%s %s: %v", spec.Label(), enc, err)
			}
			if stored, err = stored.Recode(s.Curve); err != nil {
				t.Fatal(err)
			}
			if !stored.Equal(oracleRegion(t, s, spec)) {
				t.Errorf("%s: %s row holds %d voxels, not its band's", spec.Label(), enc, stored.NumVoxels())
			}
			checked++
		}
		bands := 0
		for _, st := range s.Studies {
			bands += len(s.BandRegions[st.StudyID])
		}
		if checked != bands {
			t.Errorf("%s: %d rows for %d bands", enc, checked, bands)
		}
	}
}

// TestDefaultBandEncoding: a band query with no Encoding reads the
// k³-tree row, for every band. The default query and the same query
// naming that label are one query — equal REGIONs, equal page counts,
// neither degraded — and EXPLAIN says which of the two it was.
func TestDefaultBandEncoding(t *testing.T) {
	s, err := New(reprBaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := medserver.EncK3Tree
	study := s.Studies[0].StudyID
	for _, b := range s.BandRegions[study] {
		spec := QuerySpec{StudyID: study, Atlas: "Talairach", HasBand: true,
			BandLo: int(b.Lo), BandHi: int(b.Hi)}
		named := spec
		named.Encoding = want

		def, err := s.RunQuery(spec)
		if err != nil {
			t.Fatalf("%s default: %v", spec.Label(), err)
		}
		nam, err := s.RunQuery(named)
		if err != nil {
			t.Fatalf("%s named: %v", spec.Label(), err)
		}
		if def.Meta.Degraded || nam.Meta.Degraded {
			t.Errorf("%s: degraded answer (default %q, named %q)",
				spec.Label(), def.Meta.Warning, nam.Meta.Warning)
		}
		if !bytes.Equal(marshalResult(t, s.Cfg.Method, def), marshalResult(t, s.Cfg.Method, nam)) {
			t.Errorf("%s: default query and Encoding %q return different REGIONs", spec.Label(), want)
		}
		if def.Meta.LFMPages != nam.Meta.LFMPages {
			t.Errorf("%s: default read %d pages, Encoding %q read %d",
				spec.Label(), def.Meta.LFMPages, want, nam.Meta.LFMPages)
		}

		for _, e := range []struct {
			spec QuerySpec
			src  string
		}{{spec, "default"}, {named, "forced"}} {
			lines, err := s.ExplainSpec(e.spec, false)
			if err != nil {
				t.Fatalf("%s explain: %v", spec.Label(), err)
			}
			if want := fmt.Sprintf("band repr: %s (%s)", want, e.src); len(lines) == 0 || lines[0] != want {
				t.Errorf("%s: explain leads with %q, want %q", spec.Label(), lines, want)
			}
		}
	}
}

// TestUnstoredBandEncodingRefused: a band spec naming a label the
// server does not store — a typo, a codec name that is not a stored row,
// the Table 4 octant and h-run-naive rows, even with the experiments'
// rows stored beside the server's (StoreTable4Rows) — is a terminal
// error through ServeRPC and RunQuery: one attempt, no degraded answer
// and no VOLUME read. A stored label whose row is absent (an unaligned
// band) still degrades to the VOLUME recompute.
func TestUnstoredBandEncodingRefused(t *testing.T) {
	s, err := New(reprBaseConfig(), WithRetry(transport.DefaultRetryPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	if err := experiments.StoreTable4Rows(s.Server); err != nil {
		t.Fatal(err)
	}
	study := s.PETStudyIDs()[0]
	b := s.BandRegions[study][len(s.BandRegions[study])/2]
	degraded := s.Metrics.Counter("qbism_degraded_total")
	const wantErr = "is not stored"
	for _, enc := range []string{"k3tree", "elias", experiments.EncOctant, experiments.EncHRunNaive} {
		for _, structure := range []string{"", "ntal"} {
			spec := QuerySpec{StudyID: study, Atlas: "Talairach", Structure: structure,
				HasBand: true, BandLo: int(b.Lo), BandHi: int(b.Hi), Encoding: enc}
			req, err := EncodeQueryRequest(spec)
			if err != nil {
				t.Fatal(err)
			}
			deg0, pages0 := degraded.Value(), s.LFM.Stats().PageReads
			if _, err := s.ServeRPC(nil, QueryMethod, req); err == nil || !strings.Contains(err.Error(), wantErr) {
				t.Errorf("%s %s: ServeRPC error %v, want %q", spec.Label(), enc, err, wantErr)
			}
			_, err = s.RunQuery(spec)
			if err == nil || !strings.Contains(err.Error(), wantErr) ||
				!strings.Contains(err.Error(), "failed after 1 attempt(s)") {
				t.Errorf("%s %s: RunQuery error %v, want a terminal %q", spec.Label(), enc, err, wantErr)
			}
			if got := degraded.Value() - deg0; got != 0 {
				t.Errorf("%s %s: qbism_degraded_total moved by %d", spec.Label(), enc, got)
			}
			if got := s.LFM.Stats().PageReads - pages0; got != 0 {
				t.Errorf("%s %s: refused spec read %d pages", spec.Label(), enc, got)
			}
			if _, err := s.ExplainSpec(spec, false); err == nil || !strings.Contains(err.Error(), wantErr) {
				t.Errorf("%s %s: ExplainSpec error %v, want %q", spec.Label(), enc, err, wantErr)
			}
		}
	}
	for _, enc := range []string{"", EncHilbertNaive} {
		spec := QuerySpec{StudyID: study, Atlas: "Talairach", HasBand: true, BandLo: 3, BandHi: 9, Encoding: enc}
		res, err := s.RunQuery(spec)
		if err != nil {
			t.Fatalf("unaligned band on %q: %v", enc, err)
		}
		if !res.Meta.Degraded {
			t.Errorf("unaligned band on %q not degraded", enc)
		}
	}
}

// TestConflictingSpecRejected: a spec whose restrictions no data shape
// combines is refused whole — through the server entry point and
// through the client, where the refusal is terminal rather than
// retried — and the supported shapes on the same system still answer.
func TestConflictingSpecRejected(t *testing.T) {
	s, err := New(reprBaseConfig(), WithRetry(transport.DefaultRetryPolicy()))
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

// TestExplainSpecBandRepr pins the EXPLAIN annotation: default band
// queries lead with the default, explicit ones with the forced label;
// non-band queries carry no annotation.
func TestExplainSpecBandRepr(t *testing.T) {
	s, err := New(reprBaseConfig())
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
// SQL against the stored k³-tree structure REGION and against the same
// structure passed as a naive-encoded BYTES bind, cross-checked against
// the atlas geometry.
func TestContainsPointUDF(t *testing.T) {
	s, err := New(reprBaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := s.Atlas.Structures[0]
	naive, err := rencode.Encode(rencode.Naive, st.Region)
	if err != nil {
		t.Fatal(err)
	}
	probes := s.Metrics.Counter("qbism_region_probe_total")
	for _, src := range []struct {
		name, query string // the query takes x, y, z as text, the REGION's source as its bind
		bind        sdb.Value
		probes      bool
	}{
		{"stored k³", "select containsPoint(as.region, %d, %d, %d) from atlasStructure as where as.structureId = ?",
			sdb.Int(int64(st.ID)), true},
		{"naive bind", "select containsPoint(?, %d, %d, %d) from atlas a", sdb.Bytes(naive), false},
	} {
		p0 := probes.Value()
		for _, pt := range []struct{ x, y, z uint32 }{
			{0, 0, 0}, {3, 3, 3}, {7, 7, 7}, {8, 8, 8}, {12, 5, 9},
		} {
			res, err := s.DB.Exec(fmt.Sprintf(src.query, pt.x, pt.y, pt.z), src.bind)
			if err != nil {
				t.Fatalf("%s: %v", src.name, err)
			}
			if len(res.Rows) != 1 {
				t.Fatalf("%s: %d rows", src.name, len(res.Rows))
			}
			got := res.Rows[0][0].B
			want := st.Region.ContainsPoint(sfc.Pt(pt.x, pt.y, pt.z))
			if got != want {
				t.Errorf("%s: containsPoint(%d,%d,%d) = %v, want %v",
					src.name, pt.x, pt.y, pt.z, got, want)
			}
		}
		if took := probes.Value() - p0; src.probes != (took > 0) {
			t.Errorf("%s: %d probes on the compressed fast path", src.name, took)
		}
		// Out-of-range coordinates are a typed error, not a panic.
		if _, err := s.DB.Exec(fmt.Sprintf(src.query, 99, 0, 0), src.bind); err == nil {
			t.Errorf("%s: out-of-range coordinate accepted", src.name)
		}
	}
}

// TestRegionAccessCounts: every stored REGION a request reads counts
// once, in qbism_region_probe_total when it stays a k³-tree and in
// qbism_region_decode_total when it becomes runs, whichever function
// reads it. The REGION intersection() hands to extractVoxels() is
// neither: it is passed parsed, never encoded and read again. The mixed
// query therefore probes its two k³-trees and decodes nothing.
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
