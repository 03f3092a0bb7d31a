package qbism

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"qbism/internal/experiments"
	"qbism/internal/region"
	"qbism/internal/rencode"
	"qbism/internal/sdb"
	"qbism/internal/volume"
)

// testSystem builds a small (32^3) fully loaded system once per test
// binary; building it is itself a significant integration test.
var (
	sysOnce sync.Once
	sysInst *System
	sysErr  error
)

func testSystem(t *testing.T) *System {
	t.Helper()
	sysOnce.Do(func() {
		sysInst, sysErr = New(Config{
			Bits:         5,
			NumPET:       3,
			NumMRI:       1,
			Seed:         7,
			SmallStudies: true,
			WithMeshes:   true,
		})
		if sysErr == nil {
			// The Table 4 tests read all three of its rows.
			sysErr = experiments.StoreTable4Rows(sysInst.Server)
		}
	})
	if sysErr != nil {
		t.Fatal(sysErr)
	}
	return sysInst
}

func TestSystemLoads(t *testing.T) {
	s := testSystem(t)
	if len(s.Studies) != 4 {
		t.Fatalf("studies = %d", len(s.Studies))
	}
	if len(s.Atlas.Structures) != 11 {
		t.Fatalf("structures = %d", len(s.Atlas.Structures))
	}
	// Tables populated.
	for table, wantRows := range map[string]int{
		"atlas":           1,
		"patient":         4,
		"rawVolume":       4,
		"warpedVolume":    4,
		"atlasStructure":  11,
		"neuralStructure": 11,
		"intensityBand":   4 * 8 * 4, // 8 bands x (h-naive + k3-tree + Table 4's z-naive and octant) per study
	} {
		res := s.DB.MustExec("select * from " + table)
		if len(res.Rows) != wantRows {
			t.Errorf("table %s has %d rows, want %d", table, len(res.Rows), wantRows)
		}
	}
}

func TestPaperSQLRunsVerbatim(t *testing.T) {
	// The two §3.4 queries, adjusted only for study id.
	s := testSystem(t)
	res := s.DB.MustExec(`
select a.n, a.x0, a.y0, a.z0, a.dx, a.dy, a.dz,
       a.atlasId, p.name, p.patientId, rv.date
from   atlas a, rawVolume rv,
       warpedVolume wv, patient p
where  a.atlasId = wv.atlasId and
       wv.studyId = rv.studyId and
       rv.patientId = p.patientId and
       rv.studyId = 1 and a.atlasName = 'Talairach'`)
	if len(res.Rows) != 1 {
		t.Fatalf("first query rows = %d", len(res.Rows))
	}
	res = s.DB.MustExec(`
select as.region,
       extractVoxels(wv.data, as.region)
from   warpedVolume wv, atlasStructure as,
       neuralStructure ns
where  wv.studyId = 1 and
       wv.atlasId = as.atlasId and
       as.structureId = ns.structureId and
       ns.structureName = 'putamen'`)
	if len(res.Rows) != 1 {
		t.Fatalf("second query rows = %d", len(res.Rows))
	}
	d, err := UnmarshalDataRegion(res.Rows[0][1].Y)
	if err != nil {
		t.Fatal(err)
	}
	putamen, _ := s.Atlas.ByName("putamen")
	if d.Region.NumVoxels() != putamen.Region.NumVoxels() {
		t.Errorf("extracted %d voxels, structure has %d", d.Region.NumVoxels(), putamen.Region.NumVoxels())
	}
}

func TestExtractMatchesDirectExtraction(t *testing.T) {
	// extractVoxels through SQL+LFM must equal volume.Extract on the
	// in-memory warped volume.
	s := testSystem(t)
	res := s.DB.MustExec(`select wv.data from warpedVolume wv where wv.studyId = 1`)
	volBytes, err := s.LFM.Read(res.Rows[0][0].L)
	if err != nil {
		t.Fatal(err)
	}
	vol, err := volume.New(s.Curve, volBytes)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := s.Atlas.ByName("hippocampus")
	want, err := volume.Extract(vol, st.Region)
	if err != nil {
		t.Fatal(err)
	}
	res = s.DB.MustExec(`
select extractVoxels(wv.data, as.region)
from warpedVolume wv, atlasStructure as, neuralStructure ns
where wv.studyId = 1 and wv.atlasId = as.atlasId
  and as.structureId = ns.structureId and ns.structureName = 'hippocampus'`)
	got, err := UnmarshalDataRegion(res.Rows[0][0].Y)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Region.Equal(want.Region) {
		t.Fatal("regions differ")
	}
	for i := range want.Values {
		if got.Values[i] != want.Values[i] {
			t.Fatalf("value %d differs: %d vs %d", i, got.Values[i], want.Values[i])
		}
	}
}

func TestPageCoalescedExtraction(t *testing.T) {
	// Extracting a clustered structure must cost close to the page span
	// of its voxel bytes, far below one I/O per run.
	s := testSystem(t)
	st, _ := s.Atlas.ByName("ntal")
	res := s.DB.MustExec(`select wv.data from warpedVolume wv where wv.studyId = 1`)
	h := res.Rows[0][0].L
	before := s.LFM.Stats()
	d, err := ExtractStoredOpts(s.LFM, h, st.Region, ExtractOpts{})
	if err != nil {
		t.Fatal(err)
	}
	pages := s.LFM.Stats().Sub(before).PageReads
	if d.NumVoxels() != st.Region.NumVoxels() {
		t.Fatalf("extracted %d voxels", d.NumVoxels())
	}
	// Lower bound: bytes/pagesize; upper bound: one page per run would
	// be NumRuns. Hilbert clustering must land well below the per-run cost.
	minPages := st.Region.NumVoxels() / s.LFM.PageSize()
	if pages < minPages {
		t.Errorf("pages = %d below physical minimum %d", pages, minPages)
	}
	if st.Region.NumRuns() > 40 && pages > uint64(st.Region.NumRuns())/2 {
		t.Errorf("pages = %d not coalesced (runs = %d)", pages, st.Region.NumRuns())
	}
}

func TestEmptyRegionExtraction(t *testing.T) {
	s := testSystem(t)
	res := s.DB.MustExec(`select wv.data from warpedVolume wv where wv.studyId = 1`)
	d, err := ExtractStoredOpts(s.LFM, res.Rows[0][0].L, region.Empty(s.Curve), ExtractOpts{})
	if err != nil || d.NumVoxels() != 0 {
		t.Errorf("empty extraction: %v, %v", d, err)
	}
}

func TestRunQueryEndToEnd(t *testing.T) {
	s := testSystem(t)
	spec := QuerySpec{StudyID: 1, Atlas: "Talairach", Structure: "ntal"}
	res, err := s.RunQuery(spec)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := s.Atlas.ByName("ntal")
	if got := resultData(t, res).Region.NumVoxels(); got != st.Region.NumVoxels() {
		t.Errorf("voxels = %d, want %d", got, st.Region.NumVoxels())
	}
	tm := res.Timing
	if tm.LFMPages == 0 || tm.NetMessages == 0 || PriceQuery(res).Total == 0 {
		t.Errorf("timing incomplete: %+v", tm)
	}
	if res.Meta.Patient == "" || res.Meta.N != s.Side() {
		t.Errorf("meta = %+v", res.Meta)
	}
	if res.Image == nil || res.Image.W != s.Side() {
		t.Error("no rendered image")
	}
}

func TestRunQueryErrors(t *testing.T) {
	s := testSystem(t)
	if _, err := s.RunQuery(QuerySpec{StudyID: 99, Atlas: "Talairach", FullStudy: true}); err == nil {
		t.Error("unknown study accepted")
	}
	if _, err := s.RunQuery(QuerySpec{StudyID: 1, Atlas: "Nowhere", FullStudy: true}); err == nil {
		t.Error("unknown atlas accepted")
	}
	if _, err := s.RunQuery(QuerySpec{StudyID: 1, Atlas: "Talairach"}); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := s.RunQuery(QuerySpec{StudyID: 1, Atlas: "Talairach", Structure: "no-such"}); err == nil {
		t.Error("unknown structure accepted")
	}
	// A band that matches no precomputed intensityBand row used to be an
	// error; it now degrades to recomputing the band from the stored
	// VOLUME and succeeds with a warning.
	res, err := s.RunQuery(QuerySpec{StudyID: 1, Atlas: "Talairach", HasBand: true, BandLo: 3, BandHi: 9})
	if err != nil {
		t.Fatalf("unaligned band: %v", err)
	}
	if !res.Meta.Degraded || res.Meta.Warning == "" {
		t.Errorf("unaligned band not marked degraded: %+v", res.Meta)
	}
	if resultData(t, res).Region.Empty() {
		t.Error("degraded band result empty")
	}
	// An out-of-range band is still a hard error, not degradable.
	if _, err := s.RunQuery(QuerySpec{StudyID: 1, Atlas: "Talairach", HasBand: true, BandLo: 9, BandHi: 3}); err == nil {
		t.Error("inverted band accepted")
	}
}

func TestRunQueryCached(t *testing.T) {
	// A system of its own: the DX cache keeps a shared one's recent
	// queries, which other tests may have issued.
	s, err := New(Config{Bits: 4, NumPET: 1, Seed: 7, SmallStudies: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := QuerySpec{StudyID: 1, Atlas: "Talairach", Structure: "putamen"}
	_, cached, err := s.RunQueryCached(spec)
	if err != nil || cached {
		t.Fatalf("first call cached=%v err=%v", cached, err)
	}
	pages0 := s.LFM.Stats().PageReads
	res2, cached, err := s.RunQueryCached(spec)
	if err != nil || !cached {
		t.Fatalf("second call cached=%v err=%v", cached, err)
	}
	if s.LFM.Stats().PageReads != pages0 {
		t.Error("cached query touched the database")
	}
	if resultData(t, res2).Region.Empty() {
		t.Error("cached result empty")
	}
}

// TestDXCacheKeepsRecentQueries: the DX cache holds "several recently
// issued queries" — eight — whichever way they ran. After nine distinct
// queries, RunQueryCached serves the last eight from the cache, each
// image byte-identical to its own run's render, and misses the first;
// after a two-worker batch of the nine, exactly eight hit.
func TestDXCacheKeepsRecentQueries(t *testing.T) {
	sys, err := New(Config{Bits: 4, NumPET: 2, Seed: 7, SmallStudies: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var specs []QuerySpec
	for _, study := range sys.PETStudyIDs() {
		for _, spec := range sys.Table3Queries() {
			spec.StudyID = study
			specs = append(specs, spec)
		}
	}
	specs = specs[:9]

	// servedFromCache checks that RunQueryCached hits on spec and
	// renders the image its own run rendered.
	servedFromCache := func(spec QuerySpec, want *QueryResult) {
		t.Helper()
		got, hit, err := sys.RunQueryCached(spec)
		if err != nil || !hit {
			t.Errorf("%s: RunQueryCached hit=%v err=%v, want a hit", spec.Label(), hit, err)
			return
		}
		if !bytes.Equal(got.Image.Pix, want.Image.Pix) {
			t.Errorf("%s: cached image differs from its RunQuery render", spec.Label())
		}
	}

	results := make([]*QueryResult, len(specs))
	for i, spec := range specs {
		if results[i], err = sys.RunQuery(spec); err != nil {
			t.Fatalf("%s: %v", spec.Label(), err)
		}
	}
	for i := 1; i < len(specs); i++ {
		servedFromCache(specs[i], results[i])
	}
	if _, hit, err := sys.RunQueryCached(specs[0]); err != nil || hit {
		t.Errorf("first of nine: RunQueryCached hit=%v err=%v, want a miss", hit, err)
	}

	items := sys.RunQueries(specs, 2)
	var missed []int
	for i, item := range items {
		if item.Err != nil {
			t.Fatalf("%s: %v", item.Spec.Label(), item.Err)
		}
		if _, ok := sys.Cache.Get(cacheKeyOf(item.Spec)); !ok {
			missed = append(missed, i)
		}
	}
	if len(missed) != 1 {
		t.Fatalf("after a batch of nine, %d specs are not cached, want 1", len(missed))
	}
	for i, item := range items {
		if i != missed[0] {
			servedFromCache(item.Spec, item.Res)
		}
	}
	if _, hit, err := sys.RunQueryCached(specs[missed[0]]); err != nil || hit {
		t.Errorf("evicted spec: RunQueryCached hit=%v err=%v, want a miss", hit, err)
	}
}

func TestTable3ShapeMatchesPaper(t *testing.T) {
	s := testSystem(t)
	rows, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	q := func(i int) QueryTiming { return rows[i-1].Result.Timing }
	sim := func(i int) time.Duration { return PriceQuery(rows[i-1].Result).Total }

	// Q1 ships the whole volume: most result voxels, most messages,
	// slowest simulated total. (Page counts only separate on the full
	// 128^3 grid — the 32^3 test volume is 8 pages, smaller than the
	// region encodings — so data traffic is the scale-free check here;
	// the benchmark harness exercises the page ordering at full scale.)
	for i := 2; i <= 6; i++ {
		if q(i).Voxels >= q(1).Voxels {
			t.Errorf("Q%d voxels (%d) >= Q1 voxels (%d)", i, q(i).Voxels, q(1).Voxels)
		}
		if q(i).NetMessages >= q(1).NetMessages {
			t.Errorf("Q%d messages (%d) >= Q1 messages (%d)", i, q(i).NetMessages, q(1).NetMessages)
		}
		if sim(i) > sim(1) {
			t.Errorf("Q%d sim total > Q1 (early filtering must pay off)", i)
		}
	}
	// Q1 voxel count is the full grid.
	if q(1).Voxels != s.Curve.Length() || q(1).HRuns != 1 {
		t.Errorf("Q1 = %d voxels %d runs", q(1).Voxels, q(1).HRuns)
	}
	// Q6 (mixed) returns a subset of both Q4 and Q5.
	if q(6).Voxels > q(4).Voxels || q(6).Voxels > q(5).Voxels {
		t.Errorf("Q6 voxels (%d) exceed Q4 (%d) or Q5 (%d)", q(6).Voxels, q(4).Voxels, q(5).Voxels)
	}
	// Q4 (hemisphere) is much bigger than Q3 (ntal).
	if q(4).Voxels <= q(3).Voxels {
		t.Errorf("Q4 voxels (%d) <= Q3 voxels (%d)", q(4).Voxels, q(3).Voxels)
	}
}

func TestTable4Ordering(t *testing.T) {
	s := testSystem(t)
	rows, err := experiments.Table4(s.Server, 128, 159)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// All encodings compute the same result region.
	if rows[0].ResultVox != rows[1].ResultVox || rows[1].ResultVox != rows[2].ResultVox {
		t.Errorf("results differ across encodings: %d %d %d",
			rows[0].ResultVox, rows[1].ResultVox, rows[2].ResultVox)
	}
	// The paper's ordering: h-runs cost fewer I/Os than z-runs, and
	// z-runs fewer than octants is its measured trend — at minimum
	// Hilbert must win.
	if rows[0].LFMPages > rows[1].LFMPages || rows[0].LFMPages > rows[2].LFMPages {
		t.Errorf("h-runs I/O (%d) not minimal (z=%d oct=%d)",
			rows[0].LFMPages, rows[1].LFMPages, rows[2].LFMPages)
	}
	t.Logf("Table4 pages: h=%d z=%d oct=%d", rows[0].LFMPages, rows[1].LFMPages, rows[2].LFMPages)
}

func TestRunRatiosShape(t *testing.T) {
	s := testSystem(t)
	rep, err := experiments.RunRatios(s.Server)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) < 12 {
		t.Fatalf("only %d experiment regions", len(rep.Rows))
	}
	// Paper: 1 : 1.27 : 1.61 : 2.42. Directionally: z > 1, oblong > z,
	// octants > oblong.
	if rep.ZPerH <= 1.0 {
		t.Errorf("z/h ratio = %.2f, want > 1", rep.ZPerH)
	}
	if rep.OblongPerH <= rep.ZPerH {
		t.Errorf("oblong/h (%.2f) <= z/h (%.2f)", rep.OblongPerH, rep.ZPerH)
	}
	if rep.OctPerH <= rep.OblongPerH {
		t.Errorf("oct/h (%.2f) <= oblong/h (%.2f)", rep.OctPerH, rep.OblongPerH)
	}
	// Fits should be strong, as in the paper.
	for name, r := range map[string]float64{"z": rep.RZ, "oblong": rep.ROblong, "oct": rep.ROct} {
		if r < 0.9 {
			t.Errorf("correlation %s = %.3f, want > 0.9", name, r)
		}
	}
	t.Logf("ratios 1 : %.2f : %.2f : %.2f (paper 1 : 1.27 : 1.61 : 2.42)",
		rep.ZPerH, rep.OblongPerH, rep.OctPerH)
}

func TestDeltaLawShape(t *testing.T) {
	s := testSystem(t)
	rows, err := experiments.DeltaLaw(s.Server)
	if err != nil {
		t.Fatal(err)
	}
	// Mean alpha should be positive and in a broad band around the
	// paper's 1.5-1.7 (small grids skew it).
	var mean float64
	for _, r := range rows {
		mean += r.Fit.Alpha
	}
	mean /= float64(len(rows))
	// On the 32^3 test grid regions are tiny and the fitted exponent is
	// much flatter than the paper's 128^3 value of 1.5-1.7; here we only
	// require a decaying power law. The benchmark harness measures the
	// full-scale exponent.
	if mean <= 0.05 || mean > 3.5 {
		t.Errorf("mean alpha = %.2f, want a decaying power law", mean)
	}
	t.Logf("mean alpha = %.2f over %d regions (paper 1.5-1.7)", mean, len(rows))
}

func TestSizesShape(t *testing.T) {
	s := testSystem(t)
	rep, err := experiments.Sizes(s.Server)
	if err != nil {
		t.Fatal(err)
	}
	// Elias must be the smallest and close-ish to entropy; octant the
	// largest; naive and oblong in between — Figure 4's ordering.
	if rep.EliasPerEntropy < 1.0 {
		t.Errorf("elias below entropy bound: %.2f", rep.EliasPerEntropy)
	}
	if rep.EliasPerEntropy > 3.0 {
		t.Errorf("elias/entropy = %.2f, want near paper's 1.17", rep.EliasPerEntropy)
	}
	if rep.NaivePerEntropy <= rep.EliasPerEntropy {
		t.Error("naive not larger than elias")
	}
	if rep.OctPerEntropy <= rep.OblongPerEntropy {
		t.Error("octant not larger than oblong octant")
	}
	t.Logf("1 : %.2f : %.2f : %.2f : %.2f (paper 1 : 1.17 : 9.50 : 10.4 : 17.8)",
		rep.EliasPerEntropy, rep.NaivePerEntropy, rep.OblongPerEntropy, rep.OctPerEntropy)
}

func TestMingapSweep(t *testing.T) {
	s := testSystem(t)
	rows, err := experiments.MingapSweep(s.Server, []uint64{1, 4, 16, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Run ratio decreases with mingap; inflation increases.
	for i := 1; i < len(rows); i++ {
		if rows[i].MeanRunRatio > rows[i-1].MeanRunRatio {
			t.Errorf("run ratio not monotone: %+v", rows)
		}
		if rows[i].MeanInflation < rows[i-1].MeanInflation {
			t.Errorf("inflation not monotone: %+v", rows)
		}
	}
	if rows[0].MeanRunRatio != 1 || rows[0].MeanInflation != 1 {
		t.Errorf("mingap=1 must be exact: %+v", rows[0])
	}
}

func TestDataRegionMarshalRoundTrip(t *testing.T) {
	s := testSystem(t)
	rng := rand.New(rand.NewSource(3))
	ids := make([]uint64, 500)
	for i := range ids {
		ids[i] = rng.Uint64() % s.Curve.Length()
	}
	r, _ := region.FromIDs(s.Curve, ids)
	vals := make([]byte, r.NumVoxels())
	rng.Read(vals)
	d := &volume.DataRegion{Region: r, Values: vals}
	for _, m := range []rencode.Method{rencode.Naive, rencode.Elias} {
		blob, err := MarshalDataRegion(d, m)
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalDataRegion(blob)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Region.Equal(r) {
			t.Fatal("region changed")
		}
		for i := range vals {
			if back.Values[i] != vals[i] {
				t.Fatal("values changed")
			}
		}
	}
}

func TestDataRegionMarshalErrors(t *testing.T) {
	s := testSystem(t)
	r := region.Full(s.Curve)
	d := &volume.DataRegion{Region: r, Values: []byte{1, 2}} // wrong count
	if _, err := MarshalDataRegion(d, rencode.Naive); err == nil {
		t.Error("mismatched values accepted")
	}
	if _, err := UnmarshalDataRegion([]byte{1, 2, 3}); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := UnmarshalDataRegion(nil); err == nil {
		t.Error("nil accepted")
	}
	// Valid tag, truncated region.
	blob, _ := MarshalDataRegion(&volume.DataRegion{Region: region.Empty(s.Curve)}, rencode.Naive)
	if _, err := UnmarshalDataRegion(blob[:5]); err == nil {
		t.Error("truncated region accepted")
	}
}

func TestSpatialUDFsViaSQL(t *testing.T) {
	s := testSystem(t)
	// contains(hemisphere, putamen-in-left-hemisphere?) — putamen is at
	// x≈0.38 so inside ntal1 (left, x<0.5).
	res := s.DB.MustExec(`
select contains(h.region, p.region)
from atlasStructure h, neuralStructure nh, atlasStructure p, neuralStructure np
where h.structureId = nh.structureId and nh.structureName = 'ntal1'
  and p.structureId = np.structureId and np.structureName = 'putamen'`)
	if v := res.Rows[0][0]; v.T != sdb.TBool || !v.B {
		t.Errorf("contains(ntal1, putamen) = %v", v)
	}
	// numVoxels/numRuns agree with the atlas.
	st, _ := s.Atlas.ByName("thalamus")
	res = s.DB.MustExec(`
select numVoxels(as.region), numRuns(as.region)
from atlasStructure as, neuralStructure ns
where as.structureId = ns.structureId and ns.structureName = 'thalamus'`)
	if uint64(res.Rows[0][0].I) != st.Region.NumVoxels() || int(res.Rows[0][1].I) != st.Region.NumRuns() {
		t.Errorf("numVoxels/numRuns = %v/%v", res.Rows[0][0], res.Rows[0][1])
	}
	// union and difference behave like set algebra.
	res = s.DB.MustExec(`
select numVoxels(unionRegion(a.region, b.region)),
       numVoxels(differenceRegion(a.region, b.region)),
       numVoxels(intersection(a.region, b.region))
from atlasStructure a, neuralStructure na, atlasStructure b, neuralStructure nb
where a.structureId = na.structureId and na.structureName = 'ntal1'
  and b.structureId = nb.structureId and nb.structureName = 'ntal2'`)
	left, _ := s.Atlas.ByName("ntal1")
	right, _ := s.Atlas.ByName("ntal2")
	wantUnion := left.Region.NumVoxels() + right.Region.NumVoxels()
	if uint64(res.Rows[0][0].I) != wantUnion {
		t.Errorf("union voxels = %d, want %d", res.Rows[0][0].I, wantUnion)
	}
	if uint64(res.Rows[0][1].I) != left.Region.NumVoxels() {
		t.Errorf("difference voxels = %d, want %d", res.Rows[0][1].I, left.Region.NumVoxels())
	}
	if res.Rows[0][2].I != 0 {
		t.Errorf("hemisphere intersection = %d, want 0", res.Rows[0][2].I)
	}
	// avgIntensity over an extraction is within [0,255].
	res = s.DB.MustExec(`
select avgIntensity(extractVoxels(wv.data, as.region))
from warpedVolume wv, atlasStructure as, neuralStructure ns
where wv.studyId = 1 and wv.atlasId = as.atlasId
  and as.structureId = ns.structureId and ns.structureName = 'ntal'`)
	mean := res.Rows[0][0].F
	if mean <= 0 || mean >= 255 {
		t.Errorf("avgIntensity = %v", mean)
	}
}

func TestUDFTypeErrors(t *testing.T) {
	s := testSystem(t)
	bad := []string{
		`select extractVoxels(wv.studyId, wv.data) from warpedVolume wv where wv.studyId = 1`,
		`select fullVolume(wv.studyId) from warpedVolume wv where wv.studyId = 1`,
		`select boxRegion(1, 2, 3, 4, 5, 'x') from warpedVolume wv where wv.studyId = 1`,
		`select boxRegion(9999, 0, 0, 3, 3, 3) from warpedVolume wv where wv.studyId = 1`,
		`select avgIntensity(wv.studyId) from warpedVolume wv where wv.studyId = 1`,
		`select numVoxels(wv.studyId) from warpedVolume wv where wv.studyId = 1`,
	}
	for _, sql := range bad {
		if _, err := s.DB.Exec(sql); err == nil {
			t.Errorf("accepted: %s", sql)
		}
	}
}

// TestBoxRegionRejectsWideCoordinates: a coordinate past the uint32
// range is an error, not a wrapped one — 2^32 used to become 0 and pass
// as a valid box.
func TestBoxRegionRejectsWideCoordinates(t *testing.T) {
	s := testSystem(t)
	for _, args := range []string{
		"4294967296, 0, 0, 4294967297, 3, 3",
		"0, 0, 0, 3, 3, 4294967298",
		"0, 0, 0, 3, 9223372036854775807, 3",
	} {
		_, err := s.DB.Exec(`select boxRegion(` + args + `) from warpedVolume wv where wv.studyId = 1`)
		if err == nil || !strings.Contains(err.Error(), "boxRegion: argument") {
			t.Errorf("boxRegion(%s): err = %v, want a boxRegion argument error", args, err)
		}
	}
	if _, err := s.DB.Exec(`select boxRegion(0, 0, 0, 3, 3, 3) from warpedVolume wv where wv.studyId = 1`); err != nil {
		t.Errorf("boxRegion(0, 0, 0, 3, 3, 3): %v", err)
	}
}

func TestVoxelwiseMeanAcrossStudies(t *testing.T) {
	// The paper's envisioned multi-study aggregate: voxel-wise average
	// inside ntal across all PET studies, computed through the stored
	// volumes.
	s := testSystem(t)
	st, _ := s.Atlas.ByName("ntal")
	var vols []*volume.Volume
	for _, id := range s.PETStudyIDs() {
		res := s.DB.MustExec(`select wv.data from warpedVolume wv where wv.studyId = ` + itoa(id))
		data, err := s.LFM.Read(res.Rows[0][0].L)
		if err != nil {
			t.Fatal(err)
		}
		v, err := volume.New(s.Curve, data)
		if err != nil {
			t.Fatal(err)
		}
		vols = append(vols, v)
	}
	mean, err := volume.VoxelwiseMean(st.Region, vols)
	if err != nil {
		t.Fatal(err)
	}
	if mean.NumVoxels() != st.Region.NumVoxels() {
		t.Errorf("mean voxels = %d", mean.NumVoxels())
	}
	stats := mean.Stats()
	if stats.Mean <= 0 {
		t.Errorf("mean of means = %v", stats.Mean)
	}
}

func itoa(i int) string { return fmt_itoa(i) }

// fmt_itoa avoids importing strconv just for tests.
func fmt_itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var digits []byte
	for ; i > 0; i /= 10 {
		digits = append([]byte{byte('0' + i%10)}, digits...)
	}
	return string(digits)
}
