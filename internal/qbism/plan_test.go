package qbism

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"qbism/internal/sdb"
)

// Golden tests for the physical plans behind the paper's measured
// queries: Table 3's spec shapes (Q1–Q6) and a Table 4-style spatial
// probe. The property under test is the tentpole guarantee — spatial
// and selection predicates evaluate below the data-extraction
// projection, so REGION/VOLUME long-field reads happen only for rows
// that survived the WHERE clause.

// planFor renders the EXPLAIN tree for a spec as one string plus the
// line list.
func planFor(t *testing.T, s *System, spec QuerySpec) (string, []string) {
	t.Helper()
	lines, err := s.ExplainSpec(spec, false)
	if err != nil {
		t.Fatalf("ExplainSpec(%s): %v", spec.Label(), err)
	}
	// Band queries lead with the representation annotation; the
	// plan-shape assertions below inspect only the operator tree.
	// TestExplainSpecBandRepr covers the annotation itself.
	for len(lines) > 0 && strings.HasPrefix(lines[0], "band repr:") {
		lines = lines[1:]
	}
	return strings.Join(lines, "\n"), lines
}

// lineIndex returns the index of the first line containing sub, or -1.
func lineIndex(lines []string, sub string) int {
	for i, l := range lines {
		if strings.Contains(l, sub) {
			return i
		}
	}
	return -1
}

func TestExplainSpecTable3Shapes(t *testing.T) {
	s := testSystem(t)
	cases := []struct {
		name string
		spec QuerySpec
		root string // extraction call at the projection root
	}{
		{"Q1-full-study", QuerySpec{StudyID: 1, Atlas: "Talairach", FullStudy: true},
			"fullVolume(wv.data)"},
		{"Q2-box", QuerySpec{StudyID: 1, Atlas: "Talairach", Box: &[6]uint32{4, 4, 4, 12, 12, 12}},
			"extractVoxels(wv.data, boxRegion(?, ?, ?, ?, ?, ?))"},
		{"Q3-structure", QuerySpec{StudyID: 1, Atlas: "Talairach", Structure: "putamen"},
			"extractVoxels(wv.data, as.region)"},
		{"Q5-band", QuerySpec{StudyID: 1, Atlas: "Talairach", HasBand: true, BandLo: 224, BandHi: 255},
			"extractVoxels(wv.data, ib.region)"},
		{"Q6-band-structure", QuerySpec{StudyID: 1, Atlas: "Talairach", Structure: "putamen",
			HasBand: true, BandLo: 224, BandHi: 255},
			"extractVoxels(wv.data, intersection(ib.region, as.region))"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, lines := planFor(t, s, tc.spec)
			// The extraction is the projection at the tree root: line 0,
			// no indentation.
			if !strings.HasPrefix(lines[0], "project ["+tc.root) {
				t.Errorf("root is not the extraction projection:\n%s", plan)
			}
			// Every WHERE predicate evaluates strictly below it.
			for i, l := range lines[1:] {
				if strings.Contains(l, "filter") && !strings.HasPrefix(l, "  ") {
					t.Errorf("filter at line %d not below the projection:\n%s", i+1, plan)
				}
			}
			// The study restriction reaches the warpedVolume scan.
			fi := lineIndex(lines, "filter (wv.studyId = ?)")
			si := lineIndex(lines, "scan warpedVolume")
			if fi < 0 || si < 0 || si != fi+1 {
				t.Errorf("studyId filter not directly above the wv scan:\n%s", plan)
			}
		})
	}
}

func TestExplainSpecBandStructurePushdown(t *testing.T) {
	s := testSystem(t)
	spec := QuerySpec{StudyID: 1, Atlas: "Talairach", Structure: "putamen",
		HasBand: true, BandLo: 224, BandHi: 255}
	plan, lines := planFor(t, s, spec)

	proj := lineIndex(lines, "project [extractVoxels")
	if proj != 0 {
		t.Fatalf("extraction projection not at root:\n%s", plan)
	}
	// The band selection is pushed onto the intensityBand scan: its
	// filter line is annotated and sits directly above scan intensityBand.
	bandFilter := lineIndex(lines, "(ib.lo = ?)")
	if bandFilter < 0 || !strings.Contains(lines[bandFilter], "[pushed]") {
		t.Errorf("band filter not pushed:\n%s", plan)
	}
	ibScan := lineIndex(lines, "scan intensityBand")
	if ibScan != bandFilter+1 {
		t.Errorf("band filter not on the intensityBand scan:\n%s", plan)
	}
	// Likewise the structure-name selection onto neuralStructure.
	nsFilter := lineIndex(lines, "(ns.structureName = ?)")
	if nsFilter < 0 || !strings.Contains(lines[nsFilter], "[pushed]") {
		t.Errorf("structure filter not pushed:\n%s", plan)
	}
	if nsScan := lineIndex(lines, "scan neuralStructure"); nsScan != nsFilter+1 {
		t.Errorf("structure filter not on the neuralStructure scan:\n%s", plan)
	}
	// All four tables join through equality keys, so every join is a
	// hash join — no nested-loop fallback in the paper's main query.
	if n := strings.Count(plan, "hash join on "); n != 3 {
		t.Errorf("want 3 hash joins, got %d:\n%s", n, plan)
	}
	if strings.Contains(plan, "nested loop") {
		t.Errorf("unexpected nested loop:\n%s", plan)
	}
}

func TestExplainSpatialPredicatePushdown(t *testing.T) {
	// A Table 4-style probe written as raw SQL: which structures'
	// REGIONs contain a given box? The contains() predicate names only
	// the atlasStructure alias, so it is evaluated at that scan — below
	// the join and the projection — and the atlasId comparison, which
	// calls no function, runs before the REGION-reading UDF on the same
	// node although it is written after it.
	s := testSystem(t)
	res, err := s.DB.Exec(`
explain select ns.structureName
from   atlasStructure as, neuralStructure ns
where  contains(as.region, boxRegion(14, 14, 14, 16, 16, 16)) and
       as.atlasId = 1 and
       as.structureId = ns.structureId`)
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		lines[i] = row[0].S
	}
	plan := strings.Join(lines, "\n")

	ci := lineIndex(lines, "contains(as.region")
	if ci < 1 || !strings.Contains(lines[ci], "[pushed]") {
		t.Fatalf("contains() not pushed below the projection:\n%s", plan)
	}
	if si := lineIndex(lines, "scan atlasStructure"); si != ci+1 {
		t.Errorf("contains() filter not on the atlasStructure scan:\n%s", plan)
	}
	// Conjuncts by call count: the integer comparison precedes the
	// long-field-reading UDF inside the same filter.
	cheap := strings.Index(lines[ci], "as.atlasId = 1")
	costly := strings.Index(lines[ci], "contains(")
	if cheap < 0 || cheap > costly {
		t.Errorf("predicates not cost-ordered on the scan filter: %q", lines[ci])
	}
	if !strings.Contains(plan, "hash join on as.structureId = ns.structureId") &&
		!strings.Contains(plan, "hash join on ns.structureId = as.structureId") {
		t.Errorf("structure join is not a hash join:\n%s", plan)
	}
}

func TestExplainSpecAnalyzeCounters(t *testing.T) {
	s := testSystem(t)
	spec := QuerySpec{StudyID: 1, Atlas: "Talairach", HasBand: true, BandLo: 224, BandHi: 255}
	lines, err := s.ExplainSpec(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	// The band query leads with its representation annotation; every
	// line after it is an operator line carrying counters.
	if !strings.HasPrefix(lines[0], "band repr: ") {
		t.Fatalf("band query missing repr annotation: %q", lines[0])
	}
	lines = lines[1:]
	plan := strings.Join(lines, "\n")
	counter := regexp.MustCompile(`\[in=\d+ out=\d+ udf=\d+ pages=\d+ probe=\d+\]$`)
	for _, l := range lines {
		if !counter.MatchString(l) {
			t.Errorf("line missing counters: %q", l)
		}
	}
	// The projection evaluated extractVoxels exactly once (one surviving
	// row) and was charged its long-field page reads.
	root := lines[0]
	if !strings.Contains(root, "udf=1 ") {
		t.Errorf("projection UDF count wrong: %q", root)
	}
	if m := regexp.MustCompile(`pages=(\d+) probe=\d+\]$`).FindStringSubmatch(root); m == nil || m[1] == "0" {
		t.Errorf("projection charged no pages: %q", root)
	}
	// The pushed band filter compares plain INT columns: zero pages.
	bf := lineIndex(lines, "(ib.lo = ?)")
	if bf < 0 || !strings.Contains(lines[bf], "pages=0 probe=0]") {
		t.Errorf("band filter charged pages it did not read: %q\n%s", lines[bf], plan)
	}
}

func TestExplainSpecPushdownDisabled(t *testing.T) {
	s, err := New(Config{Bits: 4, NumPET: 1, Seed: 7, SmallStudies: true})
	if err != nil {
		t.Fatal(err)
	}
	s.DB.SetPushdown(false)
	spec := QuerySpec{StudyID: 1, Atlas: "Talairach", Structure: "putamen",
		HasBand: true, BandLo: 224, BandHi: 255}
	plan, lines := planFor(t, s, spec)
	if strings.Contains(plan, "hash join") || strings.Contains(plan, "[pushed]") {
		t.Errorf("pushdown-off plan still optimized:\n%s", plan)
	}
	// One monolithic filter above FROM-order nested loops.
	var filters int
	for _, l := range lines {
		if strings.Contains(l, "filter (") {
			filters++
		}
	}
	if filters != 1 {
		t.Errorf("want one monolithic filter, got %d:\n%s", filters, plan)
	}
	// FROM order: warpedVolume scans first among the scans.
	if wv, ib := lineIndex(lines, "scan warpedVolume"), lineIndex(lines, "scan intensityBand"); wv < 0 || ib < 0 || wv > ib {
		t.Errorf("FROM order not preserved:\n%s", plan)
	}
	// The de-optimized plan still answers correctly.
	if _, err := s.RunQuery(spec); err != nil {
		t.Errorf("pushdown-off query failed: %v", err)
	}
}

// TestPushdownSavesPages is the planner's A/B as an exact counter:
// Table 3's Q6 with a REGION-reading guard written as the first
// conjunct. Pushed down, the guard runs once per atlasStructure row;
// with pushdown off the whole WHERE clause runs in text order over the
// FROM-order cross product, so the guard reads a REGION for every
// study x band x structure x name combination. Same prepared
// statement, same binds, same bytes back — only the pages differ. The
// statement is prepared with the planner off, so SetPushdown(true) has
// to be what turns it on.
func TestPushdownSavesPages(t *testing.T) {
	s, err := New(Config{Bits: 4, NumPET: 1, Seed: 7, SmallStudies: true})
	if err != nil {
		t.Fatal(err)
	}
	s.DB.SetPushdown(false)
	stmt, err := s.DB.Prepare(`
select extractVoxels(wv.data, intersection(ib.region, as.region))
from   warpedVolume wv, intensityBand ib, atlasStructure as, neuralStructure ns
where  numVoxels(as.region) > 0 and
       wv.studyId = ? and
       ib.studyId = wv.studyId and ib.atlasId = wv.atlasId and
       ib.lo = ? and ib.hi = ? and ib.encoding = ? and
       as.atlasId = wv.atlasId and
       as.structureId = ns.structureId and
       ns.structureName = ?`)
	if err != nil {
		t.Fatal(err)
	}
	args := []sdb.Value{sdb.Int(1), sdb.Int(224), sdb.Int(255), sdb.Str(EncHilbertNaive), sdb.Str("putamen")}
	run := func(pushdown bool) (blob []byte, pages uint64) {
		s.DB.SetPushdown(pushdown)
		before := s.LFM.Stats().PageReads
		res, err := stmt.Exec(args...)
		if err != nil {
			t.Fatalf("pushdown=%v: %v", pushdown, err)
		}
		if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
			t.Fatalf("pushdown=%v: %d rows, want one blob", pushdown, len(res.Rows))
		}
		return res.Rows[0][0].Y, s.LFM.Stats().PageReads - before
	}
	onBlob, on := run(true)
	offBlob, off := run(false)
	if len(onBlob) == 0 || !bytes.Equal(onBlob, offBlob) {
		t.Errorf("answers differ: %d bytes with pushdown, %d without", len(onBlob), len(offBlob))
	}
	t.Logf("pages: %d pushed down, %d naive", on, off)
	if on == 0 || off < 10*on {
		t.Errorf("pushdown read %d pages, the naive plan %d: want at least 10x fewer", on, off)
	}
}
