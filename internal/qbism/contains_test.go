package qbism

import (
	"testing"

	"qbism/internal/medserver"
	"qbism/internal/region"
	"qbism/internal/sdb"
)

// containsPairsSQL asks CONTAINS of every ordered pair of atlas
// structures; containsBandSQL asks it of one study's bands, each stored
// once as a k³-tree, against every structure, both ways round.
const (
	containsPairsSQL = `
select a.structureId, b.structureId, contains(a.region, b.region)
from   atlasStructure a, atlasStructure b`
	containsBandSQL = `
select ib.lo, s.structureId, contains(ib.region, s.region), contains(s.region, ib.region)
from   intensityBand ib, atlasStructure s
where  ib.studyId = ? and ib.encoding = ?`
)

// paperContainsServer is a paper-scale (Bits 7) server with one PET
// study: the 11 atlas structures and 8 bands CONTAINS is asked of.
func paperContainsServer(tb testing.TB) *medserver.Server {
	return bareServer(tb, Config{Bits: 7, NumPET: 1, Seed: 7, SmallStudies: true})
}

// TestContainsUDFPaperScale: at paper scale, contains() through sdb —
// the container probed on its stored k³-tree (CoversRuns), the operand
// decoded — answers region.Contains of the in-memory REGIONs for all
// 11 × 11 structure pairs, and for every band of a study against every
// structure, with the band as container and as operand.
func TestContainsUDFPaperScale(t *testing.T) {
	srv := paperContainsServer(t)
	structures := map[int64]*region.Region{}
	for _, st := range srv.Atlas.Structures {
		structures[int64(st.ID)] = st.Region
	}
	if len(structures) != 11 {
		t.Fatalf("%d atlas structures, want 11", len(structures))
	}
	contains := func(a, b *region.Region) bool {
		t.Helper()
		ok, err := region.Contains(a, b)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	metrics, _ := srv.Observers()
	probes := metrics.Counter("qbism_region_probe_total")
	p0 := probes.Value()
	res, err := srv.DB.Exec(containsPairsSQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 11*11 {
		t.Fatalf("%d structure pairs, want %d", len(res.Rows), 11*11)
	}
	held := 0
	for _, row := range res.Rows {
		a, b := structures[row[0].I], structures[row[1].I]
		if want := contains(a, b); row[2].B != want {
			t.Errorf("contains(structure %d, structure %d) = %v, region.Contains %v", row[0].I, row[1].I, row[2].B, want)
		}
		if row[2].B {
			held++
		}
	}
	if held <= 11 {
		t.Errorf("only %d of the pairs are contained: the structures' nesting is not exercised", held)
	}
	if took := probes.Value() - p0; took < int64(len(res.Rows)) {
		t.Errorf("%d k³ probes for %d containers", took, len(res.Rows))
	}

	study := srv.Studies[0].StudyID
	bands := map[int64]*region.Region{}
	for _, b := range srv.BandRegions[study] {
		bands[int64(b.Lo)] = b.Region
	}
	res, err = srv.DB.Exec(containsBandSQL, sdb.Int(int64(study)), sdb.Str(medserver.EncK3Tree))
	if err != nil {
		t.Fatal(err)
	}
	if want := len(bands) * len(structures); len(res.Rows) != want || want == 0 {
		t.Fatalf("%d band × structure rows, want %d", len(res.Rows), want)
	}
	for _, row := range res.Rows {
		b, s := bands[row[0].I], structures[row[1].I]
		if want := contains(b, s); row[2].B != want {
			t.Errorf("contains(band %d, structure %d) = %v, region.Contains %v", row[0].I, row[1].I, row[2].B, want)
		}
		if want := contains(s, b); row[3].B != want {
			t.Errorf("contains(structure %d, band %d) = %v, region.Contains %v", row[1].I, row[0].I, row[3].B, want)
		}
	}
}

// BenchmarkContainsUDF is CONTAINS at paper scale through sdb, on a
// prepared statement run to completion: all 11 × 11 structure pairs, and
// one study's 8 bands against the 11 structures both ways round. Each
// pair reads both REGIONs, probes the container's k³-tree and decodes the
// operand. ns/pair is the census figure for the coverage sweep in place.
func BenchmarkContainsUDF(b *testing.B) {
	srv := paperContainsServer(b)
	study := sdb.Int(int64(srv.Studies[0].StudyID))
	for _, bc := range []struct {
		name  string
		sql   string
		args  []sdb.Value
		pairs int
	}{
		{"structures", containsPairsSQL, nil, 11 * 11},
		{"bands", containsBandSQL, []sdb.Value{study, sdb.Str(medserver.EncK3Tree)}, 2 * 8 * 11},
	} {
		b.Run(bc.name, func(b *testing.B) {
			stmt, err := srv.DB.Prepare(bc.sql)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stmt.Exec(bc.args...); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.pairs), "ns/pair")
		})
	}
}
