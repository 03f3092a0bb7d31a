package qbism

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"qbism/internal/experiments"
	"qbism/internal/sdb"
	"qbism/internal/transport"
)

func TestWriteFormatters(t *testing.T) {
	s := testSystem(t)
	var buf bytes.Buffer

	rows, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	WriteTable3(&buf, rows)
	if !strings.Contains(buf.String(), "Q1") || !strings.Contains(buf.String(), "LFM-IO") {
		t.Error("Table 3 output incomplete")
	}

	t4, err := experiments.Table4(s.Server, 128, 159)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	experiments.WriteTable4(&buf, t4, 128, 159)
	for _, want := range []string{EncHilbertNaive, EncZNaive, EncOctant} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Table 4 output missing %s", want)
		}
	}

	rep, err := experiments.RunRatios(s.Server)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	experiments.WriteRunRatios(&buf, rep)
	if !strings.Contains(buf.String(), "1.27") { // the paper reference line
		t.Error("run-ratio output missing paper reference")
	}

	dl, err := experiments.DeltaLaw(s.Server)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	experiments.WriteDeltaLaw(&buf, dl)
	if !strings.Contains(buf.String(), "mean alpha") {
		t.Error("delta-law output incomplete")
	}

	sz, err := experiments.Sizes(s.Server)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	experiments.WriteSizes(&buf, sz)
	if !strings.Contains(buf.String(), "entropy") {
		t.Error("sizes output incomplete")
	}

	mg, err := experiments.MingapSweep(s.Server, []uint64{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	experiments.WriteMingap(&buf, mg)
	if !strings.Contains(buf.String(), "mingap") {
		t.Error("mingap output incomplete")
	}
}

func TestTable4One(t *testing.T) {
	s := testSystem(t)
	rows, err := experiments.Table4(s.Server, 128, 159, EncHilbertNaive)
	if err != nil {
		t.Fatal(err)
	}
	if row := rows[0]; len(rows) != 1 || row.Encoding != EncHilbertNaive || row.NumStudies != 3 || row.LFMPages == 0 {
		t.Errorf("rows = %+v", rows)
	}
	if _, err := experiments.Table4(s.Server, 128, 159, "bogus-encoding"); err == nil {
		t.Error("unknown encoding accepted")
	}
	if _, err := experiments.Table4(s.Server, 7, 9, EncHilbertNaive); err == nil {
		t.Error("unknown band accepted")
	}
	// The encoding label is a bind value, not SQL text: a quote in it is
	// data, matches no stored row, and the row count says so.
	_, err = experiments.Table4(s.Server, 128, 159, "h-naive' or 'x' = 'x")
	if err == nil || !strings.Contains(err.Error(), "expected 1 row, got 0") {
		t.Errorf("quoted encoding label: %v, want the row-count error", err)
	}
}

func TestFmtDur(t *testing.T) {
	cases := map[time.Duration]string{
		500 * time.Microsecond:  "500µs",
		20 * time.Millisecond:   "20ms",
		1500 * time.Millisecond: "1.50s",
	}
	for d, want := range cases {
		if got := fmtDur(d); got != want {
			t.Errorf("fmtDur(%v) = %q, want %q", d, got, want)
		}
	}
	if truncate("abcdef", 4) != "abc…" || truncate("ab", 4) != "ab" {
		t.Error("truncate broken")
	}
}

func TestSplitResponseErrors(t *testing.T) {
	if _, _, err := DecodeQueryResponse([]byte{1, 2}); err == nil {
		t.Error("short response accepted")
	}
	if _, _, err := DecodeQueryResponse([]byte{0, 0, 0, 99, 1, 2}); err == nil {
		t.Error("truncated header accepted")
	}
	// A whole frame whose header is not a meta header: typed, terminal.
	f, err := transport.EncodeFrame([]byte("{x"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeQueryResponse(f); !errors.Is(err, transport.ErrWireHeader) || transport.RetryableError(err) {
		t.Errorf("bad meta header: %v, want a terminal transport.ErrWireHeader", err)
	}
}

// TestRegionOfErrors: every spatial function reads a REGION argument
// through the server's one accessor, which refuses what is not a REGION
// — an INT, garbage bytes, a dangling handle — and takes a DATA_REGION
// blob as its region.
func TestRegionOfErrors(t *testing.T) {
	s := testSystem(t)
	numVoxels := func(v sdb.Value) (int64, error) {
		res, err := s.DB.Exec(`select numVoxels(?) from atlas a limit 1`, v)
		if err != nil {
			return 0, err
		}
		return res.Rows[0][0].I, nil
	}
	for name, v := range map[string]sdb.Value{
		"int":             sdb.Int(5),
		"garbage bytes":   sdb.Bytes([]byte{0x01, 0x02}),
		"dangling handle": sdb.Long(999999),
	} {
		if _, err := numVoxels(v); err == nil {
			t.Errorf("%s accepted as a REGION", name)
		}
	}
	res := s.DB.MustExec(`
select extractVoxels(wv.data, as.region)
from warpedVolume wv, atlasStructure as, neuralStructure ns
where wv.studyId = 1 and wv.atlasId = as.atlasId
  and as.structureId = ns.structureId and ns.structureName = 'putamen'`)
	got, err := numVoxels(res.Rows[0][0])
	if err != nil {
		t.Fatal(err)
	}
	putamen, _ := s.Atlas.ByName("putamen")
	if uint64(got) != putamen.Region.NumVoxels() {
		t.Errorf("DataRegion blob holds %d voxels, putamen %d", got, putamen.Region.NumVoxels())
	}
}

func TestQuerySpecLabelAndKey(t *testing.T) {
	box := [6]uint32{1, 2, 3, 4, 5, 6}
	specs := []QuerySpec{
		{StudyID: 1, FullStudy: true},
		{StudyID: 1, Box: &box},
		{StudyID: 1, Structure: "ntal"},
		{StudyID: 1, HasBand: true, BandLo: 0, BandHi: 31},
		{StudyID: 1, Structure: "ntal", HasBand: true, BandLo: 0, BandHi: 31},
		{StudyID: 1},
	}
	seen := make(map[string]bool)
	for _, sp := range specs {
		if sp.Label() == "" {
			t.Errorf("empty label for %+v", sp)
		}
		k := sp.Key()
		if seen[k] {
			t.Errorf("duplicate cache key %q", k)
		}
		seen[k] = true
	}
}
